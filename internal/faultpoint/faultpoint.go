// Package faultpoint provides named fault-injection hooks for
// robustness tests: error, latency and torn-write injection at the
// serve layer's store-write, compile, worker-run and stream-write
// sites.
//
// Production code calls Hit (or Torn) at each site; when no test has
// enabled injection the cost is a single atomic load and the hook is
// inert. Tests arm sites with Set and must Reset in cleanup — the
// registry is process-global, so armed faults outlive the server that
// tripped them.
package faultpoint

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site names. Keeping them here (rather than scattered string literals)
// makes the injection surface greppable from one place.
const (
	StoreAppend   = "store.append"         // durable-journal record write
	Compile       = "serve.compile"        // deck parse/compile on submit
	WorkerRun     = "serve.worker.run"     // engine execution inside a worker
	StreamWrite   = "serve.stream.write"   // one stream block write
	CoordDispatch = "serve.coord.dispatch" // one shard dispatch to a replica
)

// Fault describes what one armed site injects.
type Fault struct {
	// Err is returned from Hit (after Delay) on firing hits.
	Err error
	// Delay is injected latency before Hit returns, on firing hits.
	Delay time.Duration
	// Times bounds how many hits fire; 0 fires on every hit. Once the
	// budget is spent the site goes inert (but stays registered, so
	// Hits keeps counting).
	Times int
	// TornBytes is interpreted by write sites that support torn-write
	// simulation (store.append): the writer emits only this many bytes
	// of the record before failing, simulating a crash mid-write.
	TornBytes int
	// Exit, on firing hits, terminates the whole process (after Delay)
	// with exit code 3 — a crash simulation for multi-replica failover
	// tests, armed via the nanosimd -faultpoint flag.
	Exit bool
}

type site struct {
	fault Fault
	fired int
	hits  int
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	sites   map[string]*site
)

// Enabled reports whether any test has armed injection. Production hot
// paths may use it to skip site bookkeeping entirely.
func Enabled() bool { return enabled.Load() }

// Set arms a site. The first Set enables the registry.
func Set(name string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = map[string]*site{}
	}
	sites[name] = &site{fault: f}
	enabled.Store(true)
}

// Clear disarms one site.
func Clear(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(sites, name)
	if len(sites) == 0 {
		enabled.Store(false)
	}
}

// Reset disarms every site. Tests must call it in cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = nil
	enabled.Store(false)
}

// Hits reports how many times a site was reached (armed sites only).
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[name]; s != nil {
		return s.hits
	}
	return 0
}

// hit looks up the site and consumes one firing, returning the fault to
// apply (zero Fault when inert).
func hit(name string) Fault {
	mu.Lock()
	defer mu.Unlock()
	s := sites[name]
	if s == nil {
		return Fault{}
	}
	s.hits++
	if s.fault.Times > 0 && s.fired >= s.fault.Times {
		return Fault{}
	}
	s.fired++
	return s.fault
}

// Hit is the generic injection hook: it sleeps the armed delay and
// returns the armed error — or terminates the process for Exit faults.
// Inert (nil) unless a test armed the site.
func Hit(name string) error {
	if !enabled.Load() {
		return nil
	}
	f := hit(name)
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Exit {
		os.Exit(3)
	}
	return f.Err
}

// Parse decodes a command-line fault spec of the form
//
//	site:directive[,directive...]
//
// with directives exit, err=<message>, delay=<duration>, times=<n> and
// torn=<bytes> — e.g. "serve.worker.run:exit,times=1" kills the process
// on the first engine run. It returns the site name and the fault to arm
// with Set.
func Parse(spec string) (string, Fault, error) {
	name, rest, ok := strings.Cut(spec, ":")
	if !ok || name == "" || rest == "" {
		return "", Fault{}, fmt.Errorf("faultpoint: spec %q not of the form site:directive[,...]", spec)
	}
	var f Fault
	for _, d := range strings.Split(rest, ",") {
		key, val, hasVal := strings.Cut(d, "=")
		switch key {
		case "exit":
			f.Exit = true
		case "err":
			if !hasVal || val == "" {
				val = "injected fault"
			}
			f.Err = errors.New(val)
		case "delay":
			dur, err := time.ParseDuration(val)
			if err != nil {
				return "", Fault{}, fmt.Errorf("faultpoint: bad delay in %q: %w", spec, err)
			}
			f.Delay = dur
		case "times":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return "", Fault{}, fmt.Errorf("faultpoint: bad times in %q", spec)
			}
			f.Times = n
		case "torn":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return "", Fault{}, fmt.Errorf("faultpoint: bad torn in %q", spec)
			}
			f.TornBytes = n
		default:
			return "", Fault{}, fmt.Errorf("faultpoint: unknown directive %q in %q", d, spec)
		}
	}
	return name, f, nil
}

// Torn is the write-site hook: ok reports a torn-write injection, with
// n the number of bytes to emit before failing with err.
func Torn(name string) (n int, err error, ok bool) {
	if !enabled.Load() {
		return 0, nil, false
	}
	f := hit(name)
	if f.Err == nil && f.TornBytes == 0 {
		return 0, nil, false
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	return f.TornBytes, f.Err, true
}
