package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of BENCHMARK.json these tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricNames checks every metric name's syntax and that the JSON
// line carries exactly the metrics BENCHMARK.json declares, each with
// its declared unit, for both trace modes and every workload.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{gatedMetrics, layerMetrics} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, nameRE)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	bf := readBenchmarkFile(t)
	for _, wl := range bf.Workloads {
		if findWorkload(wl.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	rep := &report{all: map[string]float64{}, rounds: []*round{{attempted: 1}}}
	for _, tc := range []struct {
		trace    bool
		declared []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		res := rep.result(&config{trace: tc.trace})
		if len(res.Metrics) != len(tc.declared) {
			t.Errorf("trace=%t: emits %d metrics, BENCHMARK.json declares %d", tc.trace, len(res.Metrics), len(tc.declared))
		}
		for _, d := range tc.declared {
			got, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("trace=%t: %q declared but not emitted", tc.trace, d.Name)
				continue
			}
			if got.Unit != d.Unit {
				t.Errorf("trace=%t: %q emitted in %q, declared in %q", tc.trace, d.Name, got.Unit, d.Unit)
			}
		}
	}
}

// TestSelfTime checks the self-time arithmetic on a hand-built span
// tree: overlapping children are subtracted once, and the parts of
// children outside their parent are not subtracted at all.
func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Name: "server.submit", Start: 100, End: 200}
	children := []span{
		{ID: 2, Parent: 1, Name: "wal.append", Start: 110, End: 140},
		{ID: 3, Parent: 1, Name: "wal.append", Start: 130, End: 150}, // overlaps 2 by 10
		{ID: 4, Parent: 1, Name: "wal.append", Start: 150, End: 160}, // touches 3
		{ID: 5, Parent: 1, Name: "wal.append", Start: 190, End: 230}, // runs past the parent
		{ID: 6, Parent: 1, Name: "wal.append", Start: 60, End: 90},   // wholly before it
	}
	// Covered: [110,160) and [190,200) = 60 of the parent's 100.
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime with no children = %d, want 100", got)
	}

	// An Observe span parented to the submit runs on a shard goroutine
	// beside it; the submit never waits for it, so it must not reduce
	// the submit's self time.
	observe := span{Parent: 1, Name: "parking.observe", Start: 100, End: 200}
	r := &round{}
	spanLayers(r, append([]span{parent, observe}, children...))
	if got := r.sums["server.submit.self_ns"]; got != 40 {
		t.Fatalf("server.submit.self_ns = %v, want 40", got)
	}
	if got := r.sums["wal.append.calls"]; got != 5 {
		t.Fatalf("wal.append.calls = %v, want 5", got)
	}
	if got := r.sums["parking.observe.busy_ns"]; got != 100 {
		t.Fatalf("parking.observe.busy_ns = %v, want 100", got)
	}
}

// TestSmoke runs every workload at reduced size, plain and traced, and
// requires its correctness checks to pass and each workload's traced
// breakdown to show the layers it exists for.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, base := range workloads {
		t.Run(base.name, func(t *testing.T) {
			wl := *base
			wl.tenants, wl.events = 6, 64
			if wl.offeredEPS > 0 {
				wl.offeredEPS = 20000
			}
			cfg := &config{workload: wl.name, seed: 7, seconds: 0.01, trace: true, workdir: t.TempDir()}
			rep, err := measure(cfg, &wl, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			res := rep.result(cfg)
			if !res.Correct || res.Failed != 0 || len(rep.checkErrs) != 0 {
				t.Fatalf("checks failed: %d of %d operations, %v", res.Failed, res.Attempted, rep.checkErrs)
			}
			m := rep.all
			if m["throughput_eps"] <= 0 || m["decide_p50_us"] <= 0 || m["setup_s"] <= 0 {
				t.Fatalf("end-to-end metrics missing: %v", m)
			}
			switch wl.name {
			case "algo-mixed":
				for _, k := range []string{"wal.append.calls", "cluster.ship.requests", "server.submit.calls"} {
					if m[k] != 0 {
						t.Errorf("%s = %v in process, want 0", k, m[k])
					}
				}
				if m["facility.observe.calls"] != float64(wl.events) {
					t.Errorf("facility.observe.calls = %v, want %d per round", m["facility.observe.calls"], wl.events)
				}
			case "ingest-binary":
				if m["server.submit.calls"] == 0 || m["wire.submit.bytes_per_event"] == 0 || m["wal.append.calls"] != 0 {
					t.Errorf("ingest layers: server.submit.calls=%v wire.submit.bytes_per_event=%v wal.append.calls=%v",
						m["server.submit.calls"], m["wire.submit.bytes_per_event"], m["wal.append.calls"])
				}
			case "durable-replicated":
				for _, k := range []string{"wal.append.calls", "cluster.ship.requests", "server.replicate.calls", "recover_s", "wal.recover.busy_s"} {
					if m[k] <= 0 {
						t.Errorf("%s = %v, want > 0", k, m[k])
					}
				}
			}
		})
	}
}

// TestOpenLoopNoCoordinatedOmission drives a handler that stalls once
// and checks that the requests scheduled during the stall are charged
// for it: their latency, taken from their due time, grows with how long
// they waited behind it, although the server answers them at once.
func TestOpenLoopNoCoordinatedOmission(t *testing.T) {
	const (
		interval = 2 * time.Millisecond
		stall    = 60 * time.Millisecond
		stallAt  = 5
		n        = 30
	)
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	clk := newClock()
	dues := make([]int64, n)
	for i := range dues {
		dues[i] = clk.now() + int64(5*time.Millisecond) + int64(i)*int64(interval)
	}
	out := openLoop(clk, [][]int64{dues}, func(_, _ int) error {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})[0]
	lat := func(i int) time.Duration { return time.Duration(out[i].end - out[i].due) }
	for i, o := range out {
		if o.err != nil {
			t.Fatalf("op %d: %v", i, o.err)
		}
	}
	if lat(stallAt) < stall {
		t.Fatalf("stalled op latency %v, want >= %v", lat(stallAt), stall)
	}
	// The op due one interval after the stalled one waited for it
	// almost the whole stall; the next ones slightly less each.
	for i := stallAt + 1; i < stallAt+6; i++ {
		if want := stall - time.Duration(i-stallAt)*interval - interval; lat(i) < want {
			t.Errorf("op %d latency %v, want >= %v (it waited behind the stall)", i, lat(i), want)
		}
		if lat(i) > lat(i-1) {
			t.Errorf("op %d latency %v exceeds op %d's %v; the backlog should drain", i, lat(i), i-1, lat(i-1))
		}
		if late := time.Duration(out[i].start - out[i].due); late <= 0 {
			t.Errorf("op %d started %v after its due time, want late", i, late)
		}
	}
}
