package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// threads is the fixed worker, thread and client-connection count of
// every workload. It is a constant, not read from the host, so two
// hosts run the same work; it equals the CPU count of the machine the
// workloads were sized on.
const threads = 2

// config is one benchmark run, as given on the command line.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	bin     string // directory holding the nanosim and nanosimd binaries
	work    string // working directory for decks, data dirs and span dumps
}

// workload is one seeded, closed-loop input set. run measures it
// untraced (end-to-end metrics) or traced (per-layer metrics).
type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{name: "subckt-pipeline", run: runPipeline},
	{name: "mc-yield", run: runYield},
	{name: "serve-mixed", run: runServe},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run measured: the checked op counts, the
// metrics, and free-form lines printed above the result.
type report struct {
	ops     tally
	metrics map[string]metric
	notes   []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: subckt-pipeline, mc-yield or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	bin := flag.String("bin", "", "directory holding the built nanosim and nanosimd binaries")
	work := flag.String("work", "", "working directory for generated inputs, data dirs and span dumps")
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work}
	if err := run(*name, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, cfg config, stdout io.Writer) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", name)
	case cfg.seconds <= 0:
		return errors.New("-seconds must be positive")
	case cfg.bin == "" || cfg.work == "":
		return errors.New("-bin and -work are required")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	steal0, total0 := hostCPU()
	rep, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if steal1, total1 := hostCPU(); total1 > total0 {
		rep.note("host steal %.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := rep.metrics[m.name]; !ok {
			// A layer the workload bypasses did no work.
			if !cfg.trace {
				return fmt.Errorf("%s: end-to-end metric %s not measured", name, m.name)
			}
			rep.set(m.name, 0, m.unit)
		}
	}
	out := bufio.NewWriter(stdout)
	fmt.Fprintf(out, "# %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "# host: %s\n", hostLine())
	for _, n := range rep.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	if rep.ops.first != nil {
		fmt.Fprintf(out, "# first failed op: %v\n", rep.ops.first)
	}
	fmt.Fprintf(out, "# %-36s %14.6g %s\n", "fail_frac", rep.ops.failFrac(), "frac")
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	metrics := map[string]metric{}
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(out, "# %-36s %14.6g %s\n", n, m.Value, m.Unit)
		if listed(want, n) {
			metrics[n] = m
		}
	}
	line, err := json.Marshal(result{
		Correct:   rep.ops.attempted > 0 && rep.ops.failed == 0,
		Attempted: rep.ops.attempted,
		Failed:    rep.ops.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return out.Flush()
}

// hostLine records what the numbers were measured on.
func hostLine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q threads=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, threads)
}

// hostCPU reads the host's steal and total CPU ticks from /proc/stat;
// the steal share over a run says how much a noisy neighbour slowed
// it. Zeros when unavailable.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// deadline is the end of a timed phase that starts now.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeInput stores a generated input under the work directory.
func writeInput(cfg config, name, src string) (string, error) {
	path := filepath.Join(cfg.work, name)
	return path, os.WriteFile(path, []byte(src), 0o644)
}
