package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"leasing"
	"leasing/internal/sim"
	"leasing/internal/wire"
)

// workload is one set of inputs and the stack it drives.
type workload struct {
	name       string
	tenants    int      // sessions per round
	events     int      // stream length of every tenant
	kinds      []string // domains the tenants cycle through
	chunk      int      // events per submit
	offeredEPS float64  // open-loop rate in events/s; 0 for a closed loop
	round      func(*env) (*round, error)
}

// workloads are the benchmark's workloads; README.md gives the reason
// for each. Streams are fixed-length so that a round's work depends only
// on the tenant count: per-decision cost grows with stream length.
var workloads = []*workload{
	{
		// The leasers' Observe does nearly all the work: in process, no
		// HTTP and no WAL, every domain, short streams. Each tenant has
		// one 4-event submit in flight (decidedLoop). With 32-event
		// chunks one facility chunk (about 100 ms) held its shard, and
		// the median decision latency swung between 3 and 11 ms across
		// identical rounds.
		name: "algo-mixed", tenants: 18, events: 256, kinds: domains, chunk: 4,
		round: algoRound,
	},
	{
		// Client, wire decode, server and engine enqueue do nearly all
		// the work: loopback HTTP with binary framing and the two
		// domains whose Observe takes 1-2 µs.
		name: "ingest-binary", tenants: 64, events: 1024,
		kinds: []string{wire.DomainParking, wire.DomainReusable}, chunk: 32,
		round: ingestRound,
	},
	{
		// WAL fsync, log shipping, JSON decode and read encoding do the
		// work: a replicated two-node fleet, paced open loop, with reads
		// beside the writes. The rate is a quarter of the fleet's
		// measured capacity (README.md says why).
		name: "durable-replicated", tenants: 24, events: 512,
		kinds: []string{wire.DomainParking, wire.DomainReusable}, chunk: 16,
		offeredEPS: 4000, round: durableRound,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// engineConfig is the engine every workload runs: cmd/leaseload's
// defaults, recording runs so the checks can compare them with Replay.
func engineConfig() leasing.EngineConfig {
	return leasing.EngineConfig{Shards: 8, QueueDepth: 256, BatchSize: 64, RecordRuns: true}
}

// env is one round's context.
type env struct {
	cfg      *config
	wl       *workload
	index    int
	traced   bool
	refs     []reference         // per tenant index
	refCache map[int][]reference // by input set, shared by a run's rounds

	clk        *clock
	tr         *tracer // nil in a plain round
	rd         *round
	setupStart time.Time
	heapBase   uint64
}

// inputSets is how many distinct tenant sets a run cycles through:
// enough that a run averages over several sets, few enough that the
// reference replays (as costly as a round on algo-mixed) are computed
// once per set.
const inputSets = 4

// begin starts a round: it synthesizes the round's tenants (the
// workload build, part of set-up), takes their reference outputs from
// the run's cache or computes them outside the set-up time, and starts
// the rest of the set-up clock. Round i draws its tenants from the seed
// and i mod inputSets, so one seed fixes every input.
func (e *env) begin() ([]*tenant, error) {
	e.rd = &round{traced: e.traced}
	e.clk = newClock()
	if e.traced {
		e.tr = newTracer(e.clk)
	}
	set := e.index % inputSets
	// Collect the previous round's garbage first, so that the build
	// does not pay for it at a time the collector picks.
	runtime.GC()
	t0 := time.Now()
	ts, err := synthesize(roundSeed(e.cfg.seed, set), e.wl.tenants, e.wl.events, e.wl.kinds)
	if err != nil {
		return nil, err
	}
	e.rd.buildNs = int64(time.Since(t0))
	if e.refs = e.refCache[set]; e.refs == nil {
		if e.refs, err = references(ts); err != nil {
			return nil, err
		}
		e.refCache[set] = e.refs
	}
	// Collect the build's and the replays' garbage, so the heap
	// figures of this round start from the same baseline in every
	// round: inputs and references built, nothing else of this round.
	runtime.GC()
	e.heapBase = heapInuse()
	e.setupStart = time.Now()
	return ts, nil
}

// roundSeed derives input set i's workload seed from the run's seed.
func roundSeed(seed int64, i int) int64 {
	return sim.TrialSeed(seed*7919, i)
}

// references replays every tenant single-threaded, spread over the
// senders' goroutines.
func references(ts []*tenant) ([]reference, error) {
	refs := make([]reference, len(ts))
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for w := 0; w < senders(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ts); i += senders() {
				if refs[i], errs[i] = replayReference(ts[i]); errs[i] != nil {
					errs[i] = fmt.Errorf("reference %s: %w", ts[i].name, errs[i])
				}
			}
		}()
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

// probes builds one probe per tenant and the by-name index the wrappers
// use.
func (e *env) probes(ts []*tenant) ([]*probe, map[string]*probe) {
	ps := make([]*probe, len(ts))
	byName := make(map[string]*probe, len(ts))
	for i, t := range ts {
		ps[i] = newProbe(t, e.clk, e.traced, e.wl.chunk)
		byName[t.name] = ps[i]
	}
	return ps, byName
}

// window is an open measured window.
type window struct {
	start int64
	cpu   time.Duration
	mem   memCounters
	smp   *sampler
}

// openWindow ends set-up and starts the measured window; extra, when
// non-nil, is sampled alongside the heap.
func (e *env) openWindow(extra func() float64) *window {
	e.rd.setupNs = e.rd.buildNs + int64(time.Since(e.setupStart))
	w := &window{cpu: cpuTime(), mem: readMem()}
	w.smp = startSampler(10*time.Millisecond, extra)
	w.start = e.clk.now()
	return w
}

// closeWindow ends the measured window (after the flush barrier) and
// records its length, CPU, allocation and heap figures. It returns the
// extra gauge's samples.
func (e *env) closeWindow(w *window, events int64) []float64 {
	e.rd.windowNs = e.clk.now() - w.start
	w.smp.finish()
	e.rd.cpuNs = int64(cpuTime() - w.cpu)
	e.rd.mem = readMem().sub(w.mem)
	e.rd.heapPeak = w.smp.heapPeak - min(e.heapBase, w.smp.heapPeak)
	e.rd.events = events
	return w.smp.extra
}

// check records the outcome of a round's correctness checks.
func (e *env) check(checked int, errs []error) {
	e.rd.attempted += int64(checked)
	e.rd.failed += int64(len(errs))
	e.rd.checkErrs = append(e.rd.checkErrs, errs...)
}

// finish computes the round's latencies and, when traced, its layers.
func (e *env) finish(probes []*probe) *round {
	latencies(e.rd, probes)
	if e.traced {
		traceRound(e.rd, probes, e.tr.snapshot())
	}
	return e.rd
}

// totalEvents is the number of events across the tenants.
func totalEvents(ts []*tenant) int64 {
	var n int64
	for _, t := range ts {
		n += int64(len(t.events))
	}
	return n
}

// algoRound runs algo-mixed: an in-process engine, no HTTP, no WAL, a
// closed loop of SubmitBatch calls.
func algoRound(e *env) (*round, error) {
	ts, err := e.begin()
	if err != nil {
		return nil, err
	}
	eng := leasing.NewEngine(engineConfig())
	defer eng.Close()
	probes, _ := e.probes(ts)
	for _, p := range probes {
		l, err := p.t.fresh()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.t.name, err)
		}
		if err := eng.Open(p.t.name, &timedLeaser{Leaser: l, p: p}); err != nil {
			return nil, fmt.Errorf("open %s: %w", p.t.name, err)
		}
		e.rd.attempted++
	}

	w := e.openWindow(nil)
	err = decidedLoop(senders(), probes, e.wl.chunk, e.clk, e.tr, func(p *probe, c *call) error {
		if e.tr == nil {
			return eng.SubmitBatch(p.t.name, p.t.events[c.lo:c.hi])
		}
		p.inflight.Store(c.span)
		s := span{ID: c.span, Req: c.req, Name: "engine.submit", Tenant: p.t.name, Start: e.clk.now()}
		err := eng.SubmitBatch(p.t.name, p.t.events[c.lo:c.hi])
		s.End = e.clk.now()
		e.tr.add(s)
		return err
	})
	if err == nil {
		err = eng.Flush()
	}
	e.closeWindow(w, totalEvents(ts))
	if err != nil {
		return nil, err
	}

	reads, errs := checkEngine(eng, probes, e.refs)
	e.rd.reads = reads
	e.rd.attempted += int64(len(reads))
	e.check(len(probes), errs)
	e.engineLayers(eng)
	return e.finish(probes), nil
}
