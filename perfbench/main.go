// Command perfbench is the lease service's benchmark. It drives the
// serving stack through the public leasing facade on one named
// workload, measures what a tenant of the service sees (decision
// latency, acknowledgement latency, throughput, set-up time, CPU and
// memory), checks every tenant's output against a single-threaded
// Replay, and prints the metrics by name and unit. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run alternates plain and traced rounds and reports the per-layer
// metrics computed from the traced rounds' spans. README.md in this
// directory says why each workload exists and which layer metric
// should move which end-to-end metric on which workload.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload durable-replicated --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	commit   string
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run, in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics from plain rounds; 1: per-layer metrics from traced rounds")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench", "directory for WAL directories and span dumps")
	fs.StringVar(&cfg.commit, "commit", "", "commit being measured (default: the build's vcs.revision)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := findWorkload(cfg.workload)
	switch {
	case wl == nil:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (choose from %s)\n", cfg.workload, workloadNames())
		return 2
	case cfg.seconds <= 0 || math.IsInf(cfg.seconds, 0) || math.IsNaN(cfg.seconds):
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0")
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.commit == "" {
		cfg.commit = buildRevision()
	}
	printStamp(stdout, &cfg, wl)
	rep, err := measure(&cfg, wl, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range rep.checkErrs {
		fmt.Fprintln(stderr, "perfbench:", e)
	}
	res := rep.result(&cfg)
	printMetrics(stdout, rep.all, cfg.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildRevision is the commit the binary was built from, when the build
// recorded one.
func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printStamp records what ran where: the hardware and toolchain, the
// commit, and the workload's settings.
func printStamp(w io.Writer, cfg *config, wl *workload) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", wl.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# host num_cpu=%d gomaxprocs=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)
	rate := "closed-loop"
	if wl.offeredEPS > 0 {
		rate = fmt.Sprintf("%g events/s", wl.offeredEPS)
	}
	fmt.Fprintf(w, "# load tenants=%d stream_len=%d chunk=%d senders=%d offered_rate=%s domains=%v\n",
		wl.tenants, wl.events, wl.chunk, senders(), rate, wl.kinds)
}

// senders is the number of load-generating goroutines (and client
// connections per host): one per CPU, at most two, so the load keeps
// its shape on larger machines.
func senders() int { return max(1, min(runtime.NumCPU(), 2)) }

// report is a finished run: its rounds, the metrics they give, and the
// correctness failures found.
type report struct {
	rounds    []*round
	all       map[string]float64
	checkErrs []error
}

// measure runs rounds of wl until the measured windows add up to
// cfg.seconds (with a minimum count of plain and, when tracing, traced
// rounds), then computes the metrics.
func measure(cfg *config, wl *workload, progress io.Writer) (*report, error) {
	start := time.Now()
	wallCap := time.Duration(min(max(3*cfg.seconds, cfg.seconds+20), 150) * float64(time.Second))
	rep := &report{}
	refCache := map[int][]reference{}
	var measured time.Duration
	var plain, traced int
	var lastTrace []span
	for i := 0; ; i++ {
		tracedRound := cfg.trace && i%2 == 1
		rd, err := wl.round(&env{cfg: cfg, wl: wl, index: i, traced: tracedRound, refCache: refCache})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rep.rounds = append(rep.rounds, rd)
		rep.checkErrs = append(rep.checkErrs, rd.checkErrs...)
		measured += time.Duration(rd.windowNs)
		if tracedRound {
			traced++
			lastTrace, rd.spans = rd.spans, nil
		} else {
			plain++
		}
		fmt.Fprintf(progress, "# round %d traced=%t events=%d window_s=%.4f setup_s=%.4f build_s=%.4f\n",
			i, tracedRound, rd.events, float64(rd.windowNs)/1e9, float64(rd.setupNs)/1e9, float64(rd.buildNs)/1e9)
		if len(rd.checkErrs) > 0 {
			break
		}
		enough := plain >= 3 && (!cfg.trace || traced >= 2)
		if (enough && measured.Seconds() >= cfg.seconds) || (plain >= 1 && time.Since(start) > wallCap) {
			break
		}
	}
	if cfg.trace && lastTrace != nil {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.tsv", wl.name, cfg.seed))
		if err := writeSpans(path, lastTrace); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(progress, "# spans of the last traced round: %s (%d spans)\n", path, len(lastTrace))
	}
	rep.all = computeMetrics(rep.rounds, wl.offeredEPS > 0)
	return rep, nil
}

// result renders the JSON line: the end-to-end metrics declared in
// BENCHMARK.json, or with tracing the per-layer ones.
func (r *report) result(cfg *config) result {
	res := result{Correct: len(r.checkErrs) == 0, Metrics: map[string]metricValue{}}
	for _, rd := range r.rounds {
		res.Attempted += rd.attempted
		res.Failed += rd.failed
	}
	res.Correct = res.Correct && res.Failed == 0
	defs := gatedMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: finite(r.all[d.name]), Unit: d.unit}
	}
	return res
}

// finite maps the +Inf a failed operation puts above every percentile
// to the largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// printMetrics prints every end-to-end metric and, for a traced run,
// every per-layer metric, one per line, by name and unit.
func printMetrics(w io.Writer, all map[string]float64, traced bool) {
	defs := endToEndMetrics
	if traced {
		defs = append(slices.Clone(defs), layerMetrics...)
	}
	printed := map[string]bool{}
	for _, d := range defs {
		if !printed[d.name] {
			printed[d.name] = true
			fmt.Fprintf(w, "%-36s %.6g %s\n", d.name, all[d.name], d.unit)
		}
	}
}
