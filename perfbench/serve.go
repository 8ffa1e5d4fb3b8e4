package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nanosim"
	"nanosim/internal/netparse"
)

// serveSetups is how many fresh nanosimd set-ups run before the timed
// phase (the last one serves it) and after it, so the set-up samples
// span the run rather than one moment of the host's speed.
const serveSetups = 5

// runServe is the service workload: nanosimd on loopback with a
// durable data dir, and threads clients that each loop submit ->
// result -> stream, a closed loop. Each client runs whole cycles of its
// seeded schedule, so every run sees the exact job mix.
func runServe(cfg config) (*report, error) {
	decks, cycles := serveInputs(cfg.seed)
	rep := newReport()
	ref := newRefs()
	var p phase
	// setUp starts a fresh nanosimd and fills its deck cache with one
	// pass over the distinct decks, which also records each deck's
	// reference outputs.
	setUp := func() (*daemon, error) {
		t0 := time.Now()
		d, err := startDaemon(cfg)
		if err != nil {
			return nil, err
		}
		for _, dk := range decks {
			if _, err := d.clients[0].op(dk, dk.src, false, ref, nil, 0); err != nil {
				d.stop()
				return nil, fmt.Errorf("fill pass: %w", err)
			}
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		return d, nil
	}
	setUps := serveSetups
	if cfg.trace {
		setUps = 1
	}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < setUps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if d, err = setUp(); err != nil {
			return nil, err
		}
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		// The library path must compute what the service computed.
		for _, dk := range decks {
			if dk.kind == "tran" {
				rep.ops.add(sameAsLibrary(dk, d.clients[0].results[dk.name]))
			}
		}
	}

	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	start, end := time.Now(), deadline(cfg)
	for c, cl := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop(decks, cycles[c], ref, rec, end)
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.rssMB, err = procPeakRSS(d.pid()); err != nil {
		return nil, err
	}
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	var plain, queueWait []float64
	for _, cl := range d.clients {
		p.lat = append(p.lat, cl.lat...)
		plain = append(plain, cl.plain...)
		queueWait = append(queueWait, cl.queueWait...)
		rep.ops.merge(cl.ops)
	}
	if m1.Jobs.Failed != m0.Jobs.Failed {
		rep.ops.add(fmt.Errorf("%d jobs failed on the server", m1.Jobs.Failed-m0.Jobs.Failed))
	}
	if !cfg.trace {
		if err := d.stop(); err != nil {
			return nil, err
		}
		d = nil
		for i := 1; i < setUps; i++ {
			extra, err := setUp()
			if err != nil {
				return nil, err
			}
			if err := extra.stop(); err != nil {
				return nil, err
			}
		}
		rep.setEndToEnd(p)
		return rep, nil
	}
	if err := rec.dump(filepath.Join(cfg.work, "trace-serve-mixed.ndjson")); err != nil {
		return nil, err
	}
	setServeLayers(rep, rec.snapshot(), m0, m1, len(p.lat), median(plain))
	rep.set("serve.queue_wait_ms_p99", sorted(queueWait)[rank(len(queueWait), 99)-1], "ms")
	return rep, nil
}

// setServeLayers derives the serve per-layer metrics from client-side
// spans and the /metrics deltas over the timed phase.
func setServeLayers(rep *report, spans []span, m0, m1 *metricsDoc, ops int, plainP50 float64) {
	layers := fold(spans)
	opMs, unattr := opCoverage(spans, "op")
	p50 := func(name string) float64 {
		if l := layers[name]; l != nil {
			return median(l.durs)
		}
		return 0
	}
	n := float64(ops)
	rep.set("trace.op_ms", median(opMs), "ms")
	rep.set("trace.unattributed_frac", median(unattr), "frac")
	rep.note("traced op total %.2f ms beside the untraced op median %.2f ms", median(opMs), plainP50)
	rep.set("serve.submit_ms_p50", p50("serve.submit"), "ms")
	rep.set("serve.submit_miss_ms_p50", p50("serve.submit_miss"), "ms")
	rep.set("serve.result_ms_p50", p50("serve.result"), "ms")
	rep.set("serve.stream_ms_p50", p50("serve.stream"), "ms")
	var streamed int64
	for _, s := range spans {
		if s.Name == "serve.stream" || s.Name == "serve.stream_empty" {
			streamed += int64(s.Bytes)
		}
	}
	rep.set("serve.stream_kb_per_op", float64(streamed)/1024/float64(len(opMs)), "KiB")
	for kind, h1 := range m1.EngineLatency {
		h0 := m0.EngineLatency[kind]
		if runs := h1.Count - h0.Count; runs > 0 {
			rep.set("serve.engine_ms."+kind, (h1.TotalMs-h0.TotalMs)/float64(runs), "ms")
		}
	}
	hits := float64(m1.DeckCache.Hits - m0.DeckCache.Hits)
	compiles := float64(m1.DeckCache.Compiles - m0.DeckCache.Compiles)
	rep.set("serve.cache_hit_frac", hits/(hits+compiles), "frac")
	checkouts := float64(m1.Solver.Checkouts - m0.Solver.Checkouts)
	rep.set("serve.solver_warm_frac", float64(m1.Solver.Warm-m0.Solver.Warm)/checkouts, "frac")
	rep.set("serve.masters_prewarmed", float64(m1.Solver.PreWarmed-m0.Solver.PreWarmed)/n, "1/op")
	rep.set("serve.retries", float64(m1.Admission.Retries-m0.Admission.Retries), "count")
	rep.set("serve.store_errors", float64(m1.StoreErrors-m0.StoreErrors), "count")
	if m0.Store != nil && m1.Store != nil {
		rep.set("store.journal_kb_per_op", float64(m1.Store.JournalBytes-m0.Store.JournalBytes)/1024/n, "KiB")
		rep.set("store.spill_kb_per_op", float64(m1.Store.WaveSpillBytes-m0.Store.WaveSpillBytes)/1024/n, "KiB")
	}
	for _, l := range []string{"serve.submit", "serve.submit_miss", "serve.result", "serve.stream", "serve.stream_empty"} {
		if lt := layers[l]; lt != nil {
			rep.note("%-20s %5.1f%% of traced op time", l, 100*lt.total/layers["op"].total)
		}
	}
}

// daemon is one running nanosimd process.
type daemon struct {
	cmd     *exec.Cmd
	dir     string // its -data directory
	base    string // http://127.0.0.1:port
	exited  chan struct{}
	stderr  bytes.Buffer
	clients [threads]*client
}

// startDaemon starts nanosimd with a fresh data dir and returns once
// /readyz answers 200.
func startDaemon(cfg config) (*daemon, error) {
	var lastErr error
	// A port found free can be taken before nanosimd binds it; retry.
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(cfg)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartDaemon(cfg config) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		dir:    filepath.Join(cfg.work, "nanosimd-data"),
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		exited: make(chan struct{}),
	}
	if err := os.RemoveAll(d.dir); err != nil {
		return nil, err
	}
	d.cmd = exec.Command(filepath.Join(cfg.bin, "nanosimd"),
		"-addr", "127.0.0.1:"+strconv.Itoa(port), "-workers", strconv.Itoa(threads), "-data", d.dir)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState
		close(d.exited)
	}()
	for i := range d.clients {
		d.clients[i] = newClient(i, d.base)
	}
	probe := &http.Client{Timeout: time.Second}
	for limit := time.Now().Add(30 * time.Second); time.Now().Before(limit); {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("nanosimd exited before ready: %s", strings.TrimSpace(d.stderr.String()))
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, errors.New("nanosimd not ready within 30s")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains nanosimd with SIGTERM, waits for it to exit, and removes
// its data dir.
func (d *daemon) stop() error {
	for _, c := range d.clients {
		c.http.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	return os.RemoveAll(d.dir)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// metricsDoc is the part of GET /metrics the benchmark reads.
type metricsDoc struct {
	DeckCache struct {
		Compiles int64 `json:"compiles"`
		Hits     int64 `json:"hits"`
	} `json:"deck_cache"`
	Solver struct {
		Checkouts int64 `json:"checkouts"`
		Warm      int64 `json:"warm"`
		PreWarmed int64 `json:"pre_warmed"`
	} `json:"solver"`
	Jobs struct {
		Failed int64 `json:"failed"`
	} `json:"jobs"`
	Admission struct {
		Retries int64 `json:"retries"`
	} `json:"admission"`
	Store *struct {
		JournalBytes   int64 `json:"journal_bytes"`
		WaveSpillBytes int64 `json:"wave_spill_bytes"`
	} `json:"store"`
	StoreErrors   int64 `json:"store_errors"`
	EngineLatency map[string]struct {
		Count   int64   `json:"count"`
		TotalMs float64 `json:"total_ms"`
	} `json:"engine_latency_ms"`
}

func (d *daemon) metrics() (*metricsDoc, error) {
	body, status, err := d.clients[0].do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	var m metricsDoc
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &m, nil
}

// client is one closed-loop caller with its own connection.
type client struct {
	id        int
	base      string
	http      *http.Client
	lat       []float64 // per-op latency, ms
	plain     []float64 // latency of the ops run without spans, ms
	queueWait []float64 // queue wait of the traced ops, ms
	ops       tally
	miss      int               // new deck titles used so far
	results   map[string][]byte // each deck's last result document, by deck name
}

func newClient(id int, base string) *client {
	return &client{
		id:      id,
		base:    base,
		http:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		results: map[string][]byte{},
	}
}

// loop runs whole cycles of ops until the deadline has passed. With a
// recorder, every other cycle runs untraced, so the run also measures
// the untraced op latency beside the traced one.
func (c *client) loop(decks []serveDeck, cycle []serveOp, ref *refs, rec *recorder, end time.Time) {
	minOps := len(cycle)
	if rec != nil {
		minOps *= 2
	}
	for op := 0; op < minOps || op%len(cycle) != 0 || time.Now().Before(end); op++ {
		r := rec
		if (op/len(cycle))%2 == 1 {
			r = nil
		}
		o := cycle[op%len(cycle)]
		dk := decks[o.deck]
		src := dk.src
		if o.miss {
			c.miss++
			src = retitle(src, fmt.Sprintf("perfbench new deck %d-%d", c.id, c.miss))
		}
		t0 := time.Now()
		id, err := c.op(dk, src, !o.miss, ref, r, c.id<<32|op)
		d := ms(time.Since(t0))
		c.lat = append(c.lat, d)
		if r == nil {
			c.plain = append(c.plain, d)
		} else if err == nil {
			err = c.noteQueueWait(id)
		}
		c.ops.add(err)
	}
}

// noteQueueWait records how long a finished job waited in the queue,
// from its status document's submit and start stamps. It runs after
// the op's spans close, so it adds no time to them.
func (c *client) noteQueueWait(id string) error {
	body, status, err := c.do("GET", "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	var info struct {
		Submitted time.Time `json:"submitted"`
		Started   time.Time `json:"started"`
	}
	if err := json.Unmarshal(body, &info); status != http.StatusOK || err != nil {
		return fmt.Errorf("job %s status %d: %v", id, status, err)
	}
	c.queueWait = append(c.queueWait, ms(info.Started.Sub(info.Submitted)))
	return nil
}

// submitInfo is the part of the submit response the benchmark checks.
type submitInfo struct {
	ID       string `json:"id"`
	Analysis string `json:"analysis"`
	CacheHit bool   `json:"cache_hit"`
}

// op submits one fresh job, waits for its result and reads its stream
// to the end, checking each answer: the status codes, the resolved
// kind, whether the deck cache hit, and the result and stream bytes
// against the deck's first run. rec, when set, records the spans.
func (c *client) op(dk serveDeck, src string, wantHit bool, ref *refs, rec *recorder, opID int) (id string, err error) {
	root := -1
	if rec != nil {
		root = rec.begin("op", opID, -1)
		defer rec.end(root)
	}
	body, err := json.Marshal(map[string]any{"deck": src, "analysis": dk.kind, "fresh": true})
	if err != nil {
		return "", err
	}
	submit := "serve.submit"
	if !wantHit {
		submit = "serve.submit_miss"
	}
	resp, status, err := c.traced(rec, submit, opID, root, "POST", "/v1/jobs", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("%s: submit status %d: %s", dk.name, status, resp)
	}
	var info submitInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		return "", fmt.Errorf("%s: submit response: %w", dk.name, err)
	}
	if info.Analysis != dk.kind || info.CacheHit != wantHit {
		return "", fmt.Errorf("%s: submitted as %s with cache_hit=%v, want %s with cache_hit=%v",
			dk.name, info.Analysis, info.CacheHit, dk.kind, wantHit)
	}

	resp, status, err = c.traced(rec, "serve.result", opID, root, "GET", "/v1/jobs/"+info.ID+"/result", nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("%s: result status %d: %s", dk.name, status, resp)
	}
	canon, err := canonicalResult(dk.kind, resp)
	if err != nil {
		return "", fmt.Errorf("%s: %w", dk.name, err)
	}
	if err := ref.match(dk.name+" result", canon); err != nil {
		return "", err
	}
	c.results[dk.name] = resp

	// A step sweep has only a scalar result; its stream is empty.
	stream, wantStatus := "serve.stream", http.StatusOK
	if dk.kind == "step" {
		stream, wantStatus = "serve.stream_empty", http.StatusNoContent
	}
	resp, status, err = c.traced(rec, stream, opID, root, "GET", "/v1/jobs/"+info.ID+"/stream", nil)
	if err != nil {
		return "", err
	}
	if status != wantStatus {
		return "", fmt.Errorf("%s: stream status %d, want %d", dk.name, status, wantStatus)
	}
	return info.ID, ref.match(dk.name+" stream", resp)
}

// traced does one request, as a span with the bytes read when rec is
// set.
func (c *client) traced(rec *recorder, name string, opID, parent int, method, path string, body []byte) ([]byte, int, error) {
	if rec == nil {
		return c.do(method, path, body)
	}
	id := rec.begin(name, opID, parent)
	resp, status, err := c.do(method, path, body)
	rec.endBytes(id, len(resp))
	return resp, status, err
}

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return b, resp.StatusCode, nil
}

// canonicalResult re-encodes a result document with sorted keys,
// dropping the mc solver-reuse counters, which depend on whether the
// job found warm solver state and not on the answer.
func canonicalResult(kind string, body []byte) ([]byte, error) {
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("result does not decode: %w", err)
	}
	if doc["kind"] != kind {
		return nil, fmt.Errorf("result kind %v, want %s", doc["kind"], kind)
	}
	if mc, ok := doc["mc"].(map[string]any); ok {
		delete(mc, "numeric_refactors")
		delete(mc, "full_factorizations")
	}
	return json.Marshal(doc)
}

// sameAsLibrary runs a transient deck in-process through netparse and
// nanosim.Transient, with the options nanosimd uses, and checks it ends
// on exactly the final values of the service's result document.
func sameAsLibrary(dk serveDeck, result []byte) error {
	var doc struct {
		Tran struct {
			Final map[string]float64 `json:"final"`
		} `json:"tran"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		return fmt.Errorf("%s: %w", dk.name, err)
	}
	served := doc.Tran.Final
	if len(served) == 0 {
		return fmt.Errorf("%s: the service returned no final values", dk.name)
	}
	deck, err := netparse.Parse(dk.src)
	if err != nil {
		return err
	}
	opt, err := cliTranOptions(deck)
	if err != nil {
		return err
	}
	opt.Workers = 1 // the service default; results do not depend on it
	res, err := nanosim.Transient(deck.Circuit, opt)
	if err != nil {
		return err
	}
	for name, v := range served {
		s := res.Waves.Get(name)
		if s == nil {
			return fmt.Errorf("%s: %s not recorded in-process", dk.name, name)
		}
		if s.Final() != v {
			return fmt.Errorf("%s: %s ends at %v in-process, %v from the service", dk.name, name, s.Final(), v)
		}
	}
	return nil
}

// procCPU is a process's user+sys CPU time, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the line, in clock ticks.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ut+st) * tick, nil
}

// procPeakRSS is a process's resident-set high-water mark in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
