// Command leaseload is the load generator for the multi-tenant lease
// serving stack: it synthesizes mixed-domain tenant traffic (parking
// days, deadlines, set-cover elements, facility batches, Steiner
// connects — one domain per tenant, streams drawn from
// internal/workload), pumps it through the engine from concurrent
// producers, and reports sustained throughput plus submit-latency
// percentiles. By default it drives the in-process engine; with -remote
// it drives the HTTP lease service instead — against a running
// cmd/leased daemon (-addr), or against an in-process loopback daemon
// it starts itself (no -addr) — measuring end-to-end HTTP submit
// latency. In remote mode -binary switches submits and results to the
// compact application/x-lease-binary framing the daemon negotiates per
// request (JSON stays the default), and -cpuprofile writes a pprof CPU
// profile of the whole run for before/after comparisons between the
// two encodings. With -verify every tenant's output is additionally checked
// byte-identical against a single-threaded Replay (in remote mode the
// daemon must run with -record). Like leasebench, -json emits a
// machine-readable report (committed snapshots are named BENCH_*.json;
// see the README's trajectory convention).
//
// Every mode is one runner over one of three targets — the in-process
// engine (optionally WAL-backed), a single daemon through the client,
// or a cluster through the ring-routing cluster client. Each tenant's
// leaser is built from its wire spec (wire.OpenRequest.Build) whatever
// the target, the same loop opens, submits and flushes, and one
// verifier checks run, cost, snapshot and close against Replay.
//
// Two durability modes exercise the write-ahead log end to end. With
// -durable-bench the in-process workload runs twice through a
// WAL-backed engine — fsync off, then fsync on — and the combined
// report (committed as BENCH_PR5.json) quantifies the durability
// throughput trade-off. With -crash the tool runs the full
// kill-and-recover drill against a real daemon: it spawns the -leased
// binary with a WAL data dir, SIGKILLs it once half the load is
// acknowledged, restarts it, resumes every tenant after the daemon's
// recovered processed-event count, and verifies every tenant's result
// byte-identical to a single-threaded Replay of its full logged
// history. With -crash -cluster the drill goes multi-node: -nodes
// peered daemons share a placement ring and ship WAL records to each
// tenant's replica, the busiest node is SIGKILLed mid-load, its tenants
// fail over to their replicas (MarkDown + Activate on the cluster
// client), ingestion resumes from each new owner's processed count, and
// every tenant must still verify byte-identical to Replay. With
// -cluster-bench the tool instead measures how throughput scales with
// cluster size: the same workload through in-process replicated fleets
// of 1, 2 and 4 nodes, reported with per-fleet speedup and scaling
// efficiency (the BENCH_PR8.json format).
//
// The synthesized traffic is shaped by pluggable arrival processes
// (-arrival constant|diurnal|bursty; internal/workload) and optionally
// by Zipf-skewed per-tenant volumes (-zipf-sizes), all deterministic in
// -seed. With -ramp the tool runs the SLA-driven stepped harness
// instead of one fixed load: tenant concurrency grows by -step-tenants
// per step (fresh engine each step, -step-duration submission deadline)
// until the submit-latency SLA (-sla-p99 milliseconds at
// -sla-percentile) breaks, and the report's ramp section records the
// whole trajectory plus the maximum sustainable throughput under SLA
// (the BENCH_PR6.json format). With -gate the run is compared against a
// committed BENCH_*.json snapshot of the same mode and fails on
// regression beyond -gate-tolerance — the CI perf gate.
//
// Usage:
//
//	leaseload -tenants 64 -events 256 -shards 8 -batch 64 -queue 256 -producers 4
//	leaseload -verify                        # parity-check tenants vs Replay
//	leaseload -remote [-addr http://host:8080] [-verify]
//	leaseload -remote -binary [-cpuprofile cpu.out]  # binary wire framing
//	leaseload -durable-bench [-out BENCH_PR5.json]   # fsync on/off WAL throughput
//	leaseload -crash -leased /path/to/leased [-data-dir DIR]
//	leaseload -crash -cluster -leased /path/to/leased [-nodes 3]
//	leaseload -cluster-bench [-out BENCH_PR8.json]   # 1/2/4-node scaling
//	leaseload -ramp -sla-p99 5 [-step-tenants 8] [-step-duration 2s]
//	leaseload -arrival diurnal -zipf-sizes 1.2   # shaped, skewed traffic
//	leaseload -ramp -json -gate BENCH_PR6.json [-gate-tolerance 0.15]
//	leaseload -json [-out BENCH_PR3.json]    # machine-readable report
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leasing"
	"leasing/internal/benchgate"
	"leasing/internal/sim"
	"leasing/internal/stats"
	"leasing/internal/wire"
	"leasing/internal/workload"
)

// latReservoirCap bounds the submit-latency sample: produce records
// every call into a fixed-size reservoir (Vitter's algorithm R), so
// memory stays flat however long a run or ramp step submits.
const latReservoirCap = 4096

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "leaseload:", err)
		os.Exit(1)
	}
}

// tenant is one synthetic session: a name, its fixed event stream in
// in-process and wire form, and the wire spec that opens it. The spec is
// the tenant's only leaser constructor: every target opens the session
// from it, and -verify replays a leaser spec.Build() makes.
type tenant struct {
	name   string
	domain string
	events []leasing.Event
	wevs   []leasing.RemoteEvent
	spec   leasing.RemoteOpenRequest
}

type latencyStats struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// jsonReport is the machine-readable format, the leaseload counterpart
// of leasebench's report: configuration, throughput, latency, and the
// engine's own per-shard counters. Mode records the driven boundary:
// "engine" for in-process runs, "remote" for HTTP runs (where the
// latency percentiles include the network round trip and any
// backpressure retries).
type jsonReport struct {
	Tool            string                `json:"tool"`
	Mode            string                `json:"mode"`
	GoVersion       string                `json:"go_version"`
	Seed            int64                 `json:"seed"`
	Tenants         int                   `json:"tenants"`
	Domains         map[string]int        `json:"domains"`
	TotalEvents     int64                 `json:"total_events"`
	Shards          int                   `json:"shards"`
	Batch           int                   `json:"batch"`
	Queue           int                   `json:"queue"`
	Producers       int                   `json:"producers"`
	Chunk           int                   `json:"chunk"`
	Encoding        string                `json:"encoding,omitempty"`
	ElapsedMS       float64               `json:"elapsed_ms"`
	EventsPerSec    float64               `json:"events_per_sec"`
	SubmitLatencyUS latencyStats          `json:"submit_latency_us"`
	Engine          leasing.EngineMetrics `json:"engine"`
	Verified        *bool                 `json:"verified,omitempty"`
	Ramp            *rampReport           `json:"ramp,omitempty"`
}

// rampReport is the -ramp section of the report: the SLA, the step
// schedule, every executed step, and the knee — the largest tenant
// count (and its throughput) that still met the SLA. In ramp mode the
// report's top-level events_per_sec and submit_latency_us mirror the
// last sustainable step, so the BENCH trajectory and the perf gate read
// ramp snapshots like any other.
type rampReport struct {
	SLAPercentile           float64    `json:"sla_percentile"`
	SLALatencyMS            float64    `json:"sla_latency_ms"`
	StepTenants             int        `json:"step_tenants"`
	StepDurationMS          float64    `json:"step_duration_ms"`
	Arrival                 string     `json:"arrival"`
	Steps                   []rampStep `json:"steps"`
	MaxTenantsUnderSLA      int        `json:"max_tenants_under_sla"`
	MaxEventsPerSecUnderSLA float64    `json:"max_events_per_sec_under_sla"`
}

// rampStep is one rung of the ramp: a fresh engine serving the first
// Tenants tenants. Completed reports whether the whole step load was
// submitted before the step deadline; a cut-off step is never
// sustainable, whatever its latency sample says.
type rampStep struct {
	Tenants         int          `json:"tenants"`
	SubmittedEvents int64        `json:"submitted_events"`
	Completed       bool         `json:"completed"`
	ElapsedMS       float64      `json:"elapsed_ms"`
	EventsPerSec    float64      `json:"events_per_sec"`
	SubmitLatencyUS latencyStats `json:"submit_latency_us"`
	LatencyAtSLAUS  float64      `json:"latency_at_sla_percentile_us"`
	SLAMet          bool         `json:"sla_met"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("leaseload", flag.ContinueOnError)
	var (
		tenants   = fs.Int("tenants", 64, "number of concurrent tenant sessions (domains cycle per tenant)")
		events    = fs.Int("events", 256, "target events per tenant (streams are stochastic, so counts vary around this)")
		shards    = fs.Int("shards", 8, "engine shards")
		batch     = fs.Int("batch", 64, "engine batch size (events drained per shard wake)")
		queue     = fs.Int("queue", 256, "engine per-shard queue depth (backpressure)")
		producers = fs.Int("producers", 4, "concurrent producer goroutines (tenants are partitioned across them)")
		chunk     = fs.Int("chunk", 32, "events per SubmitBatch call (per HTTP submit in -remote mode)")
		seed      = fs.Int64("seed", 2015, "base random seed for workload synthesis")
		verify    = fs.Bool("verify", false, "after the run, check every tenant byte-identical to a single-threaded Replay")
		remote    = fs.Bool("remote", false, "drive the HTTP lease service instead of the in-process engine")
		binaryEnc = fs.Bool("binary", false, "with -remote: submit events and read results over the binary wire framing (application/x-lease-binary) instead of JSON")
		addr      = fs.String("addr", "", "with -remote: base URL of a running leased daemon (empty starts an in-process loopback daemon)")
		crash     = fs.Bool("crash", false, "kill-and-recover drill: spawn a durable leased daemon (-leased), SIGKILL it mid-load, restart, resume from the recovered counts and verify every tenant against Replay")
		leasedBin = fs.String("leased", "", "with -crash: path to a built leased binary")
		dataDir   = fs.String("data-dir", "", "with -crash: WAL directory for the spawned daemon (default: a fresh temp dir, removed afterwards)")
		clusterFl = fs.Bool("cluster", false, "with -crash: multi-node drill — spawn -nodes peered daemons, SIGKILL the busiest mid-load, fail its tenants over to their replicas and verify every tenant against Replay")
		nodesFl   = fs.Int("nodes", 3, "with -crash -cluster: cluster size")
		clBench   = fs.Bool("cluster-bench", false, "scaling benchmark: run the workload through in-process replicated fleets of 1, 2 and 4 nodes and emit the combined JSON report (the BENCH_PR8.json format)")
		durable   = fs.Bool("durable-bench", false, "run the in-process workload twice through a WAL-backed engine (fsync off, then on) and emit the combined JSON report (the BENCH_PR5.json format)")
		jsonOut   = fs.Bool("json", false, "emit a machine-readable JSON report")
		outPath   = fs.String("out", "", "with -json: write the report to this file instead of stdout")
		arrival   = fs.String("arrival", "constant", "arrival process shaping every tenant's stream: constant, diurnal or bursty (deterministic in -seed)")
		domainsFl = fs.String("domains", "days,deadline,elements,facility,steiner", "comma-separated domain mix tenants cycle through (any subset; 'days' alone makes the cheapest per-event apply, so the run measures the ingestion path rather than the algorithms)")
		arrPeriod = fs.Int64("arrival-period", 64, "with -arrival diurnal: oscillation period in steps")
		zipfSizes = fs.Float64("zipf-sizes", 0, "skew per-tenant event volumes by a Zipf(s) rank-size law (0 = equal volumes); the total volume is preserved")
		ramp      = fs.Bool("ramp", false, "SLA-driven stepped harness: grow tenant concurrency by -step-tenants per step (up to -tenants) until the submit-latency SLA breaks; reports max sustainable throughput under SLA (in-process engine only)")
		slaP99    = fs.Float64("sla-p99", 5, "with -ramp: submit-latency SLA threshold in milliseconds, checked at -sla-percentile")
		slaPct    = fs.Float64("sla-percentile", 0.99, "with -ramp: latency percentile the SLA is checked at, in (0, 1]")
		stepTen   = fs.Int("step-tenants", 8, "with -ramp: tenants added per ramp step")
		stepDur   = fs.Duration("step-duration", 2*time.Second, "with -ramp: per-step submission deadline; a step cut off here is reported as unsustainable")
		gatePath  = fs.String("gate", "", "compare the run against this committed BENCH_*.json snapshot (same tool and mode) and fail on regression beyond -gate-tolerance")
		gateTol   = fs.Float64("gate-tolerance", 0.15, "with -gate: allowed fractional regression before the gate fails")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof format)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *tenants < 1 || *events < 1 || *producers < 1 || *chunk < 1 {
		return fmt.Errorf("-tenants, -events, -producers and -chunk must be >= 1")
	}
	// The engine would silently substitute defaults for these; reject
	// them instead so the report never misstates the measured config.
	if *shards < 1 || *batch < 1 || *queue < 1 {
		return fmt.Errorf("-shards, -batch and -queue must be >= 1")
	}
	if *addr != "" && !*remote {
		return fmt.Errorf("-addr requires -remote")
	}
	if *binaryEnc && !*remote {
		return fmt.Errorf("-binary requires -remote")
	}
	if *crash && *leasedBin == "" {
		return fmt.Errorf("-crash requires -leased (a built leased binary)")
	}
	if (*leasedBin != "" || *dataDir != "") && !*crash {
		return fmt.Errorf("-leased and -data-dir require -crash")
	}
	if *crash && (*remote || *durable) {
		return fmt.Errorf("-crash is its own mode; it cannot be combined with -remote or -durable-bench")
	}
	if *clusterFl && !*crash {
		return fmt.Errorf("-cluster requires -crash")
	}
	if *clusterFl && *nodesFl < 2 {
		return fmt.Errorf("-nodes must be >= 2 (a 1-node cluster has nothing to fail over to)")
	}
	if *clusterFl && *dataDir != "" {
		return fmt.Errorf("-data-dir cannot be combined with -cluster (each node gets its own temp dir)")
	}
	if !*clusterFl && explicit["nodes"] {
		return fmt.Errorf("-nodes requires -cluster")
	}
	if *clBench && (*remote || *crash || *durable || *ramp || *verify) {
		return fmt.Errorf("-cluster-bench is its own mode; it cannot be combined with -remote, -crash, -durable-bench, -ramp or -verify")
	}
	if *durable && *remote {
		return fmt.Errorf("-durable-bench drives the in-process engine; it cannot be combined with -remote")
	}
	if *ramp && (*remote || *crash || *durable) {
		return fmt.Errorf("-ramp drives the in-process engine; it cannot be combined with -remote, -crash or -durable-bench")
	}
	if *ramp && *verify {
		return fmt.Errorf("-ramp measures saturation (steps may be cut off mid-stream); it cannot be combined with -verify")
	}
	if !*ramp {
		for _, name := range []string{"sla-p99", "sla-percentile", "step-tenants", "step-duration"} {
			if explicit[name] {
				return fmt.Errorf("-%s requires -ramp", name)
			}
		}
	}
	if *slaP99 <= 0 || *slaPct <= 0 || *slaPct > 1 {
		return fmt.Errorf("-sla-p99 must be > 0 and -sla-percentile in (0, 1]")
	}
	if *stepTen < 1 || *stepDur <= 0 {
		return fmt.Errorf("-step-tenants must be >= 1 and -step-duration > 0")
	}
	if *zipfSizes < 0 {
		return fmt.Errorf("-zipf-sizes must be >= 0")
	}
	if *gatePath == "" && explicit["gate-tolerance"] {
		return fmt.Errorf("-gate-tolerance requires -gate")
	}
	// Probe the arrival process once so a bad -arrival fails before any
	// work; tenants each get their own instance (the processes are
	// stateful) built from the same name.
	if _, err := workload.NewArrival(*arrival, 0.5, *arrPeriod); err != nil {
		return err
	}
	kinds, kerr := domainKinds(*domainsFl)
	if kerr != nil {
		return kerr
	}
	if *addr != "" {
		// An external daemon's engine configuration is set by the
		// daemon; local values would misstate the measured setup.
		for _, name := range []string{"shards", "batch", "queue"} {
			if explicit[name] {
				return fmt.Errorf("-%s is set by the daemon; it cannot be combined with -addr", name)
			}
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	cfg := leasing.PowerLeaseConfig(3, 4, 0.55)
	sizes := make([]int, *tenants)
	for i := range sizes {
		sizes[i] = *events
	}
	if *zipfSizes > 0 {
		var err error
		if sizes, err = workload.ZipfSizes(*tenants, *zipfSizes, *tenants**events); err != nil {
			return err
		}
	}
	ts := make([]*tenant, *tenants)
	domains := map[string]int{}
	var total int64
	for i := range ts {
		t, err := buildTenant(i, kinds[i%len(kinds)], cfg, sim.TrialSeed(*seed, i), sizes[i], *arrival, *arrPeriod)
		if err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
		ts[i] = t
		domains[t.domain]++
		total += int64(len(t.events))
	}

	report := jsonReport{
		Tool:        "leaseload",
		Mode:        "engine",
		GoVersion:   runtime.Version(),
		Seed:        *seed,
		Tenants:     *tenants,
		Domains:     domains,
		TotalEvents: total,
		Shards:      *shards,
		Batch:       *batch,
		Queue:       *queue,
		Producers:   *producers,
		Chunk:       *chunk,
	}
	c := config{
		shards: *shards, batch: *batch, queue: *queue,
		producers: *producers, chunk: *chunk, seed: *seed, verify: *verify,
	}

	if *durable || *clBench {
		// The durable and scaling benchmarks are series of runs with a
		// combined, always-JSON report (BENCH_PR5.json, BENCH_PR8.json).
		var combined any
		var err error
		if *durable {
			combined, err = runDurableBench(report, ts, c)
		} else {
			combined, err = runClusterBench(report, ts, c, []int{1, 2, 4})
		}
		if err != nil {
			return err
		}
		if err := writeJSON(combined, *outPath, w); err != nil {
			return err
		}
		return gateCheck(combined, *gatePath, *gateTol, w)
	}

	var err error
	switch {
	case *ramp:
		report.Mode = "ramp"
		err = runRamp(&report, ts, c, rampParams{
			stepTenants: *stepTen, stepDur: *stepDur,
			slaPct: *slaPct, slaMS: *slaP99, arrival: *arrival,
		})
	case *crash && *clusterFl:
		report.Mode = "crash-cluster"
		err = runDrill(&report, ts, c, *leasedBin, "", *nodesFl)
	case *crash:
		report.Mode = "crash"
		err = runDrill(&report, ts, c, *leasedBin, *dataDir, 1)
	case *remote:
		report.Mode = "remote"
		err = runRemote(&report, ts, c, *addr, *binaryEnc)
	default:
		err = runEngine(&report, ts, c, nil)
	}
	if err != nil {
		return err
	}

	if *jsonOut {
		if err := writeJSON(report, *outPath, w); err != nil {
			return err
		}
	} else {
		printText(w, report)
	}
	return gateCheck(report, *gatePath, *gateTol, w)
}

// gateCheck runs the perf-regression gate when -gate is set: the just-
// measured report is compared against the committed snapshot and the
// run fails on regression beyond the tolerance.
func gateCheck(report any, gatePath string, tolerance float64, w io.Writer) error {
	if gatePath == "" {
		return nil
	}
	measured, ref, err := benchgate.GateReport(report, gatePath, tolerance)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gate:    ok, %s %.1f vs %s %.1f (tolerance %.0f%%)\n",
		measured.Name, measured.Value, gatePath, ref.Value, 100*tolerance)
	return nil
}

// config is the engine and producer shape every mode shares.
type config struct {
	shards, batch, queue, producers, chunk int
	seed                                   int64
	verify                                 bool
}

// engine configures every engine the tool runs in process; runs are
// recorded only when they will be verified.
func (c config) engine() leasing.EngineConfig {
	return leasing.EngineConfig{
		Shards:     c.shards,
		QueueDepth: c.queue,
		BatchSize:  c.batch,
		RecordRuns: c.verify,
	}
}

// target is the serving boundary a run drives: the in-process engine,
// or the lease service behind the single-node or the cluster client.
// Reads come back in stream form, so one verifier checks every target.
type target interface {
	open(t *tenant) error
	// submit sends t.events[lo:hi] and reports how many were accepted.
	submit(t *tenant, lo, hi int) (int, error)
	// flush is a read barrier over every node serving ts.
	flush(ts []*tenant) error
	result(name string) (*leasing.StreamRun, error)
	cost(name string) (leasing.CostBreakdown, error)
	snapshot(name string) (leasing.Solution, error)
	// close seals the session and reports how many events it processed.
	close(name string) (int64, error)
}

// engineTarget is the in-process engine.
type engineTarget struct{ eng *leasing.Engine }

// open passes the wire spec along, so a durable engine's write-ahead
// log can rebuild the session; an engine without a WAL ignores it.
func (e engineTarget) open(t *tenant) error {
	lsr, err := t.spec.Build()
	if err != nil {
		return err
	}
	spec, err := leasing.WireOpenSpec(t.spec)
	if err != nil {
		return err
	}
	return e.eng.OpenSpec(t.name, lsr, spec)
}

func (e engineTarget) submit(t *tenant, lo, hi int) (int, error) {
	if err := e.eng.SubmitBatch(t.name, t.events[lo:hi]); err != nil {
		return 0, err
	}
	return hi - lo, nil
}

func (e engineTarget) flush([]*tenant) error { return e.eng.Flush() }

func (e engineTarget) result(name string) (*leasing.StreamRun, error) { return e.eng.Result(name) }

func (e engineTarget) cost(name string) (leasing.CostBreakdown, error) { return e.eng.Cost(name) }

func (e engineTarget) snapshot(name string) (leasing.Solution, error) { return e.eng.Snapshot(name) }

func (e engineTarget) close(name string) (int64, error) {
	if err := e.eng.CloseTenant(name); err != nil {
		return 0, err
	}
	return e.eng.Events(name)
}

// service is what the single-node client and the cluster client share.
type service interface {
	Open(context.Context, string, leasing.RemoteOpenRequest) error
	Submit(context.Context, string, []leasing.RemoteEvent) (int, error)
	SubmitResume(ctx context.Context, tenant string, evs []leasing.RemoteEvent, from int) (int, error)
	Owner(tenant string) string
	Flush(context.Context, string) error
	Processed(context.Context, string) (int64, error)
	Result(context.Context, string) (*wire.Run, error)
	Cost(context.Context, string) (wire.CostBreakdown, error)
	Snapshot(context.Context, string) (wire.Solution, error)
	Close(context.Context, string) (wire.CloseResponse, error)
}

// node is one daemon as a service: it owns every tenant, and resuming
// is a plain submit of the rest of the stream.
type node struct{ *leasing.RemoteClient }

func (node) Owner(string) string { return "" }

func (n node) SubmitResume(ctx context.Context, tenant string, evs []leasing.RemoteEvent, from int) (int, error) {
	return n.Submit(ctx, tenant, evs[from:])
}

// remoteTarget is a lease service over HTTP.
type remoteTarget struct{ svc service }

func (r remoteTarget) open(t *tenant) error {
	return r.svc.Open(context.Background(), t.name, t.spec)
}

func (r remoteTarget) submit(t *tenant, lo, hi int) (int, error) {
	return r.svc.Submit(context.Background(), t.name, t.wevs[lo:hi])
}

// flush flushes one tenant per owning node: a daemon's flush is a
// barrier over its whole engine.
func (r remoteTarget) flush(ts []*tenant) error {
	flushed := map[string]bool{}
	for _, t := range ts {
		if owner := r.svc.Owner(t.name); !flushed[owner] {
			flushed[owner] = true
			if err := r.svc.Flush(context.Background(), t.name); err != nil {
				return fmt.Errorf("flush %s: %w", t.name, err)
			}
		}
	}
	return nil
}

func (r remoteTarget) result(name string) (*leasing.StreamRun, error) {
	run, err := r.svc.Result(context.Background(), name)
	if err != nil {
		return nil, err
	}
	return run.Stream(), nil
}

// cost also checks the wire form's total, which the stream form
// derives from its parts.
func (r remoteTarget) cost(name string) (leasing.CostBreakdown, error) {
	c, err := r.svc.Cost(context.Background(), name)
	if err == nil && c.Total != c.Stream().Total() {
		err = fmt.Errorf("remote cost total %v != lease + service %v", c.Total, c.Stream().Total())
	}
	return c.Stream(), err
}

func (r remoteTarget) snapshot(name string) (leasing.Solution, error) {
	s, err := r.svc.Snapshot(context.Background(), name)
	return s.Stream(), err
}

func (r remoteTarget) close(name string) (int64, error) {
	c, err := r.svc.Close(context.Background(), name)
	return c.Events, err
}

// openAll opens every tenant on tg.
func openAll(tg target, ts []*tenant) error {
	for _, t := range ts {
		if err := tg.open(t); err != nil {
			return fmt.Errorf("open %s: %w", t.name, err)
		}
	}
	return nil
}

// pass is one measured pass of a workload through a target.
type pass struct {
	submitted int64
	elapsed   time.Duration
	latency   *stats.Reservoir
}

func (p pass) elapsedMS() float64 { return float64(p.elapsed.Microseconds()) / 1000 }

func (p pass) eventsPerSec() float64 { return float64(p.submitted) / p.elapsed.Seconds() }

// drive is the measuring loop: open every tenant on tg, submit their
// streams from concurrent producers, and flush. Elapsed spans
// submission AND the flush barrier, so events still queued when the
// producers finish are not counted as done — the semantics every
// committed BENCH_PR*.json was measured with. A positive budget is a
// submission deadline, counted from the first submit: producers stop
// once it passes (how a ramp step is cut off).
func drive(tg target, ts []*tenant, c config, budget time.Duration) (pass, error) {
	if err := openAll(tg, ts); err != nil {
		return pass{}, err
	}
	var stop func() bool
	if budget > 0 {
		deadline := time.Now().Add(budget)
		stop = func() bool { return !time.Now().Before(deadline) }
	}
	res := stats.NewReservoir(latReservoirCap, c.seed)
	submitted, start, err := produce(ts, c.producers, tg.submit, c.chunk, res, nil, stop)
	if err != nil {
		return pass{}, err
	}
	if err := tg.flush(ts); err != nil {
		return pass{}, err
	}
	return pass{submitted: submitted, elapsed: time.Since(start), latency: res}, nil
}

// measure runs the workload once through tg and fills the report:
// throughput, submit latency, the engine counters metrics reads and,
// under -verify, every tenant's parity with Replay.
func measure(report *jsonReport, tg target, ts []*tenant, c config, metrics func() (leasing.EngineMetrics, error)) error {
	p, err := drive(tg, ts, c, 0)
	if err != nil {
		return err
	}
	report.ElapsedMS = p.elapsedMS()
	report.EventsPerSec = p.eventsPerSec()
	report.SubmitLatencyUS = summarize(p.latency)
	if report.Engine, err = metrics(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if c.verify && !verifyAll(report, tg, ts) {
		return fmt.Errorf("%s output diverged from Replay", report.Mode)
	}
	return nil
}

// runEngine drives the in-process engine, the original leaseload mode.
// A non-nil wlog makes the engine durable: every submit is write-ahead
// logged before it is enqueued.
func runEngine(report *jsonReport, ts []*tenant, c config, wlog *leasing.DurableLog) error {
	cfg := c.engine()
	if wlog != nil {
		// Assigned only when non-nil: a typed nil pointer in the WAL
		// interface field would read as a configured WAL.
		cfg.WAL = wlog
	}
	eng := leasing.NewEngine(cfg)
	defer eng.Close()
	return measure(report, engineTarget{eng}, ts, c, func() (leasing.EngineMetrics, error) {
		return eng.Metrics(), nil
	})
}

// runRemote drives the HTTP lease service: against a running daemon at
// addr, or against an in-process loopback daemon started here (the
// zero-setup path, also how the committed BENCH_PR4.json is produced).
func runRemote(report *jsonReport, ts []*tenant, c config, addr string, binary bool) error {
	ctx := context.Background()
	base := addr
	if addr == "" {
		eng := leasing.NewEngine(c.engine())
		srv := &http.Server{Handler: leasing.Serve(eng, leasing.LeaseServerConfig{})}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			eng.Close()
			return err
		}
		go srv.Serve(ln)
		defer func() {
			srv.Close()
			eng.Close()
		}()
		base = "http://" + ln.Addr().String()
	}
	report.Encoding = "json"
	if binary {
		report.Encoding = "binary"
	}
	cli := leasing.Dial(base, leasing.RemoteClientOptions{Chunk: c.chunk, Binary: binary})
	if err := cli.Health(ctx); err != nil {
		return fmt.Errorf("health check %s: %w", base, err)
	}
	err := measure(report, remoteTarget{node{cli}}, ts, c, func() (leasing.EngineMetrics, error) {
		m, err := cli.Metrics(ctx)
		return m.Engine(), err
	})
	if err == nil && addr != "" {
		// The daemon owns its engine configuration: report the shard
		// count it actually runs (visible in its metrics) and zero the
		// knobs the load generator cannot observe.
		report.Shards = len(report.Engine.Shards)
		report.Batch, report.Queue = 0, 0
	}
	return err
}

// durableReport is the combined fsync-on/off report -durable-bench
// emits (committed as BENCH_PR5.json): the same workload run twice
// through a WAL-backed engine, differing only in whether every
// acknowledged append is fsynced.
type durableReport struct {
	Tool        string     `json:"tool"`
	Mode        string     `json:"mode"`
	GoVersion   string     `json:"go_version"`
	Seed        int64      `json:"seed"`
	Tenants     int        `json:"tenants"`
	TotalEvents int64      `json:"total_events"`
	FsyncOff    jsonReport `json:"fsync_off"`
	FsyncOn     jsonReport `json:"fsync_on"`
}

// runDurableBench measures the WAL's cost at the engine boundary: the
// standard in-process workload through a durable engine, once without
// fsync (appends hit the file, group commit idle) and once with it
// (every acknowledgement is disk-durable). Each run gets a fresh
// temporary data dir.
func runDurableBench(base jsonReport, ts []*tenant, c config) (durableReport, error) {
	combined := durableReport{
		Tool: "leaseload", Mode: "durable-bench",
		GoVersion: base.GoVersion, Seed: base.Seed,
		Tenants: base.Tenants, TotalEvents: base.TotalEvents,
	}
	runOnce := func(rep *jsonReport, fsync bool) error {
		dir, err := os.MkdirTemp("", "leaseload-wal-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		wlog, err := leasing.OpenDurableLog(dir, leasing.DurableLogOptions{Fsync: fsync})
		if err != nil {
			return err
		}
		defer wlog.Close()
		return runEngine(rep, ts, c, wlog)
	}
	for _, fsync := range []bool{false, true} {
		rep := base
		if fsync {
			rep.Mode = "durable-fsync-on"
		} else {
			rep.Mode = "durable-fsync-off"
		}
		if err := runOnce(&rep, fsync); err != nil {
			return combined, err
		}
		if fsync {
			combined.FsyncOn = rep
		} else {
			combined.FsyncOff = rep
		}
	}
	return combined, nil
}

type rampParams struct {
	stepTenants   int
	stepDur       time.Duration
	slaPct, slaMS float64
	arrival       string
}

// runRamp is the SLA-driven stepped harness: each step serves the first
// n tenants from a fresh engine (so steps are independent measurements,
// not survivors of earlier saturation), n growing by stepTenants until
// either the SLA breaks or the -tenants ceiling holds it. A step meets
// the SLA when its whole load was submitted before the step deadline
// AND the configured latency percentile stays under the threshold. The
// knee — the last step that met the SLA — is the report's headline:
// max sustainable throughput under SLA.
func runRamp(report *jsonReport, ts []*tenant, c config, p rampParams) error {
	slaUS := p.slaMS * 1000
	r := &rampReport{
		SLAPercentile:  p.slaPct,
		SLALatencyMS:   p.slaMS,
		StepTenants:    p.stepTenants,
		StepDurationMS: float64(p.stepDur.Milliseconds()),
		Arrival:        p.arrival,
	}
	report.Ramp = r
	var totalSubmitted int64
	var totalElapsedMS float64
	for n := min(p.stepTenants, len(ts)); ; n += p.stepTenants {
		n = min(n, len(ts))
		step, m, err := runRampStep(ts[:n], c, p, slaUS)
		if err != nil {
			return err
		}
		r.Steps = append(r.Steps, step)
		totalSubmitted += step.SubmittedEvents
		totalElapsedMS += step.ElapsedMS
		report.Engine = m
		if step.SLAMet {
			r.MaxTenantsUnderSLA = step.Tenants
			r.MaxEventsPerSecUnderSLA = step.EventsPerSec
			report.SubmitLatencyUS = step.SubmitLatencyUS
		}
		if !step.SLAMet || n == len(ts) {
			break
		}
	}
	// In ramp mode the top-level totals describe the whole ramp, and the
	// headline throughput is the knee's — what the perf gate compares.
	report.TotalEvents = totalSubmitted
	report.ElapsedMS = totalElapsedMS
	report.EventsPerSec = r.MaxEventsPerSecUnderSLA
	return nil
}

// runRampStep measures one rung: the step's tenants through a fresh
// engine until done or deadline, with the latency reservoir sampled at
// the SLA percentile.
func runRampStep(ts []*tenant, c config, p rampParams, slaUS float64) (rampStep, leasing.EngineMetrics, error) {
	eng := leasing.NewEngine(c.engine())
	defer eng.Close()
	run, err := drive(engineTarget{eng}, ts, c, p.stepDur)
	if err != nil {
		return rampStep{}, leasing.EngineMetrics{}, err
	}
	var total int64
	for _, t := range ts {
		total += int64(len(t.events))
	}
	lat := run.latency.Quantiles(p.slaPct)[0]
	completed := run.submitted == total
	step := rampStep{
		Tenants:         len(ts),
		SubmittedEvents: run.submitted,
		Completed:       completed,
		ElapsedMS:       run.elapsedMS(),
		EventsPerSec:    run.eventsPerSec(),
		SubmitLatencyUS: summarize(run.latency),
		LatencyAtSLAUS:  lat,
		SLAMet:          completed && lat <= slaUS,
	}
	return step, eng.Metrics(), nil
}

// daemon is one spawned leased process of a kill drill.
type daemon struct {
	url  string
	args []string
	cli  *leasing.RemoteClient
	cmd  *exec.Cmd // nil while not running
}

// startDaemons launches every daemon that is not running and waits
// until each answers its liveness probe.
func startDaemons(bin string, ds []*daemon) error {
	for _, d := range ds {
		if d.cmd != nil {
			continue
		}
		cmd := exec.Command(bin, d.args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start %s as %s: %w", bin, d.url, err)
		}
		d.cmd = cmd
	}
	for _, d := range ds {
		if err := waitHealthy(d.cli, 15*time.Second); err != nil {
			return fmt.Errorf("node %s: %w", d.url, err)
		}
	}
	return nil
}

// runDrill is the kill-and-recover drill against n real leased daemons:
// one, or a cluster of n peered nodes that share a placement ring and
// ship every WAL record to the tenant's replica. Each daemon records
// runs and fsyncs its log. Phase one pumps load from concurrent
// producers and SIGKILLs the victim — the only daemon, or the node
// owning the most tenants — once half the events are acknowledged.
// Recovery brings the victim's tenants back: the single daemon restarts
// on the same data dir; a cluster drops the victim from its ring and has
// the survivors adopt exactly its sessions (MarkDown + Activate). Every
// tenant then resumes after the processed count its owner reports — the
// authoritative point, since a log can hold acknowledged events whose
// responses died with the process, and a victim can die before shipping
// what it acknowledged — and must verify byte-identical to a
// single-threaded Replay of its full history. The live daemons are
// finally drained with SIGTERM and must exit cleanly.
func runDrill(report *jsonReport, ts []*tenant, c config, bin, dataDir string, n int) error {
	ctx := context.Background()
	ds := make([]*daemon, n)
	urls := make([]string, n)
	for i := range ds {
		dir := dataDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "leaseload-crash-*"); err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		port, err := freePort()
		if err != nil {
			return err
		}
		hostport := fmt.Sprintf("127.0.0.1:%d", port)
		urls[i] = "http://" + hostport
		ds[i] = &daemon{
			url: urls[i],
			args: []string{
				"-addr", hostport, "-record", "-data-dir", dir, "-fsync",
				"-shards", strconv.Itoa(c.shards),
				"-queue", strconv.Itoa(c.queue),
				"-batch", strconv.Itoa(c.batch),
			},
			cli: leasing.Dial(urls[i], leasing.RemoteClientOptions{Chunk: c.chunk}),
		}
	}
	cluster := n > 1
	if cluster {
		for _, d := range ds {
			d.args = append(d.args, "-peers", strings.Join(urls, ","), "-self", d.url)
		}
	}
	defer func() {
		for _, d := range ds {
			if d.cmd != nil {
				d.cmd.Process.Kill()
				d.cmd.Wait()
			}
		}
	}()
	if err := startDaemons(bin, ds); err != nil {
		return err
	}

	victim := ds[0]
	var svc service = node{victim.cli}
	// A lone daemon recovers by restarting on the same data dir.
	revive := func() error { return startDaemons(bin, ds) }
	if cluster {
		cl, err := leasing.DialCluster(urls, leasing.RemoteClientOptions{Chunk: c.chunk})
		if err != nil {
			return err
		}
		svc = cl
		// The victim is the node owning the most tenants, so the
		// failover moves a meaningful share of the fleet.
		owned := map[string]int{}
		for _, t := range ts {
			owned[cl.Owner(t.name)]++
		}
		for _, d := range ds {
			if owned[d.url] > owned[victim.url] {
				victim = d
			}
		}
		doomed := owned[victim.url]
		if doomed == 0 {
			return fmt.Errorf("no tenant placed on the victim; widen the tenant set")
		}
		// Failover: drop the victim from the live ring — its tenants
		// now route to their replicas — and have the survivors adopt
		// exactly the sessions the victim owned.
		revive = func() error {
			if err := cl.MarkDown(victim.url); err != nil {
				return err
			}
			activated, err := cl.Activate(ctx)
			if err != nil {
				return fmt.Errorf("activate failover: %w", err)
			}
			if activated != doomed {
				return fmt.Errorf("activated %d sessions, want the victim's %d", activated, doomed)
			}
			return nil
		}
	}
	tg := remoteTarget{svc}
	if err := openAll(tg, ts); err != nil {
		return err
	}
	if cluster {
		// Let the shippers deliver the open records before any node can
		// die: a tenant whose open never reached its replica would have
		// nothing to fail over to. Event records lost the same way are
		// fine — the resume loop re-sends them.
		time.Sleep(250 * time.Millisecond)
	}

	start := time.Now()
	latency, err := killUnderLoad(tg, ts, c, victim, max(report.TotalEvents/2, 1))
	if err != nil {
		return err
	}
	if err := revive(); err != nil {
		return err
	}
	if err := tg.flush(ts); err != nil {
		return err
	}
	for _, t := range ts {
		n, err := svc.Processed(ctx, t.name)
		if err != nil {
			return fmt.Errorf("recovered count of %s: %w", t.name, err)
		}
		if n > int64(len(t.wevs)) {
			return fmt.Errorf("%s: recovered %d events, only %d were ever submitted", t.name, n, len(t.wevs))
		}
		if _, err := svc.SubmitResume(ctx, t.name, t.wevs, int(n)); err != nil {
			return fmt.Errorf("resume %s after %d: %w", t.name, n, err)
		}
	}
	if err := tg.flush(ts); err != nil {
		return err
	}
	for _, t := range ts {
		n, err := svc.Processed(ctx, t.name)
		if err != nil {
			return err
		}
		if n != int64(len(t.wevs)) {
			return fmt.Errorf("%s: processed %d after resume, want %d", t.name, n, len(t.wevs))
		}
	}
	elapsed := time.Since(start)
	report.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	report.EventsPerSec = float64(report.TotalEvents) / elapsed.Seconds()
	report.SubmitLatencyUS = summarize(latency)
	if !cluster {
		// The restarted daemon holds the whole recovered history; a
		// cluster's survivors each hold only part of it, so the cluster
		// drill reports no engine counters.
		if m, err := victim.cli.Metrics(ctx); err == nil {
			report.Engine = m.Engine()
		}
	}
	ok := verifyAll(report, tg, ts)

	for _, d := range ds {
		if d.cmd != nil {
			if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				return err
			}
		}
	}
	for _, d := range ds {
		if d.cmd != nil {
			err := d.cmd.Wait()
			d.cmd = nil
			if err != nil {
				return fmt.Errorf("node %s did not drain cleanly: %w", d.url, err)
			}
		}
	}
	if !ok {
		return fmt.Errorf("kill-and-recover parity failed: a recovered tenant diverged from Replay of its full history")
	}
	return nil
}

// killUnderLoad is a drill's phase one: it pumps every tenant's stream
// at tg from concurrent producers and SIGKILLs the victim once killAt
// events are acknowledged (or when the producers finish first). Submit
// errors once the kill is underway are the point of the drill; anything
// earlier is a real failure. It returns the latencies of the submits
// that succeeded.
func killUnderLoad(tg target, ts []*tenant, c config, victim *daemon, killAt int64) (*stats.Reservoir, error) {
	var accepted atomic.Int64
	var dying atomic.Bool
	doneProducing := make(chan struct{})
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if accepted.Load() < killAt {
					continue
				}
			case <-doneProducing:
			}
			dying.Store(true)
			victim.cmd.Process.Kill()
			return
		}
	}()
	res := stats.NewReservoir(latReservoirCap, c.seed)
	_, _, err := produce(ts, c.producers, func(t *tenant, lo, hi int) (int, error) {
		n, err := tg.submit(t, lo, hi)
		accepted.Add(int64(n))
		return n, err
	}, c.chunk, res, func(error) bool { return dying.Load() }, nil)
	close(doneProducing)
	<-killed
	victim.cmd.Wait() // reap; a kill-induced exit error is expected
	victim.cmd = nil
	if err != nil {
		return nil, fmt.Errorf("pre-kill failure: %w", err)
	}
	return res, nil
}

// waitHealthy polls the daemon's liveness probe until it answers.
func waitHealthy(cli *leasing.RemoteClient, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := cli.Health(context.Background()); err == nil {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy within %v", timeout)
}

// freePort reserves-and-releases an ephemeral port for the spawned
// daemon. The race between release and reuse is acceptable for a drill.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// produce partitions tenants across producer goroutines; each producer
// round-robins its tenants in chunks so shard queues see interleaved
// multi-tenant traffic, and records the latency of every submit call
// (which includes any backpressure stall or retry) into res — a
// fixed-size reservoir, so the sample's memory is bounded no matter how
// long the run submits. It returns how many events were submitted and
// the submission start time so callers can measure elapsed across their
// flush barrier, plus the first submit error (a failed producer stops,
// but the run is then reported as failed rather than as a silently
// partial success). A non-nil tolerate classifies submit errors: a
// tolerated error stops the producer without failing the run — how the
// crash drill absorbs the daemon dying under it. A non-nil stop is
// polled between submits; once it reports true producers wind down
// cleanly — how a ramp step enforces its deadline.
func produce(ts []*tenant, producers int, submit func(t *tenant, lo, hi int) (int, error), chunk int, res *stats.Reservoir, tolerate func(error) bool, stop func() bool) (int64, time.Time, error) {
	errs := make([]error, producers)
	var submitted atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var mine []*tenant
			for i := p; i < len(ts); i += producers {
				mine = append(mine, ts[i])
			}
			offset := make([]int, len(mine))
			for live := len(mine); live > 0; {
				live = 0
				for i, t := range mine {
					if stop != nil && stop() {
						return
					}
					lo := offset[i]
					if lo >= len(t.events) {
						continue
					}
					hi := min(lo+chunk, len(t.events))
					t0 := time.Now()
					if _, err := submit(t, lo, hi); err != nil {
						if tolerate == nil || !tolerate(err) {
							errs[p] = fmt.Errorf("producer %d: %s events [%d:%d): %w", p, t.name, lo, hi, err)
						}
						return
					}
					res.Add(float64(time.Since(t0).Nanoseconds()) / 1e3)
					submitted.Add(int64(hi - lo))
					offset[i] = hi
					if hi < len(t.events) {
						live++
					}
				}
			}
		}(p)
	}
	wg.Wait()
	return submitted.Load(), start, errors.Join(errs...)
}

func summarize(res *stats.Reservoir) latencyStats {
	qs := res.Quantiles(0.50, 0.90, 0.99)
	return latencyStats{P50: qs[0], P90: qs[1], P99: qs[2], Max: res.Max()}
}

// domainOrder is the full domain cycle, in the order tenants have
// always been assigned to it; -domains picks a subset.
var domainOrder = []string{"days", "deadline", "elements", "facility", "steiner", "reusable"}

// domainKinds parses the -domains list into buildTenant kind indexes.
func domainKinds(list string) ([]int, error) {
	var kinds []int
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		k := slices.Index(domainOrder, name)
		if k < 0 {
			return nil, fmt.Errorf("-domains: unknown domain %q (choose from %s)", name, strings.Join(domainOrder, ", "))
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("-domains must name at least one domain")
	}
	return kinds, nil
}

// buildTenant synthesizes one tenant's event stream and wire spec; the
// domain is domainOrder[kind]. All randomness flows from tseed, so a
// tenant is reproducible independent of the others. The arrival process
// named by arrivalName gates which steps carry demand; each tenant gets
// its own instance (the processes are stateful), with mean rate 0.5 so
// every process lands near the same event volume. "constant" consumes
// the rng exactly like the original Bernoulli(0.5) streams, so default
// traffic is unchanged across committed seeds and BENCH snapshots.
func buildTenant(i, kind int, cfg *leasing.LeaseConfig, tseed int64, events int, arrivalName string, period int64) (*tenant, error) {
	rng := rand.New(rand.NewSource(tseed))
	horizon := int64(2 * events)
	arr, err := workload.NewArrival(arrivalName, 0.5, period)
	if err != nil {
		return nil, err
	}
	t := &tenant{
		name:   fmt.Sprintf("t%04d-%s", i, domainOrder[kind]),
		domain: domainOrder[kind],
		spec:   leasing.RemoteOpenRequest{Types: leasing.WireLeaseTypes(cfg)},
	}
	switch kind {
	case 0:
		t.events = leasing.DayEvents(workload.ArrivalDays(rng, horizon, arr))
		t.spec.Domain = wire.DomainParking

	case 1:
		t.events = leasing.WindowEvents(workload.DeadlineArrivals(rng, horizon, arr, 12))
		t.spec.Domain = wire.DomainDeadline

	case 2:
		const n, m, delta = 32, 20, 3
		zipf, err := workload.NewZipf(rng, n, 1.5)
		if err != nil {
			return nil, err
		}
		arrivals := workload.ElementArrivals(rng, horizon, arr,
			zipf.Draw, func() int { return 1 + rng.Intn(2) })
		fam, err := leasing.RandomSetFamily(rng, n, m, delta)
		if err != nil {
			return nil, err
		}
		costs := leasing.RandomSetCosts(rng, m, cfg, 0.5)
		sets := make([][]int, fam.M())
		for s := range sets {
			sets[s] = fam.Set(s)
		}
		warr := make([]wire.ElementArrival, len(arrivals))
		for j, a := range arrivals {
			warr[j] = wire.ElementArrival{T: a.T, Elem: a.Elem, P: a.P}
		}
		t.events = leasing.ElementEvents(arrivals)
		t.spec.Domain, t.spec.Seed = wire.DomainSetCover, tseed+1
		t.spec.SetCover = &wire.SetCoverSpec{
			Elements: n, Sets: sets, Costs: costs, Arrivals: warr,
		}

	case 3:
		// Client batches clustered around a handful of sites; one Batch
		// event per step (empty steps included, as in stream.Batches).
		const sitesN = 6
		sites := make([]leasing.Point, sitesN)
		for s := range sites {
			sites[s] = leasing.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		facCosts := make([][]float64, sitesN)
		for s := range facCosts {
			row := make([]float64, cfg.K())
			f := 1 + rng.Float64()*0.5
			for k := range row {
				row[k] = cfg.Cost(k) * f
			}
			facCosts[s] = row
		}
		// Steps are halved so a facility tenant lands near the same event
		// count as the others while still exercising multi-client steps.
		// The constant process keeps the original per-step client draw
		// byte-for-byte (committed BENCH traffic); other processes gate
		// which steps receive clients, like every other domain.
		batches := make([][]leasing.Point, events/2+1)
		for step := range batches {
			c := rng.Intn(3)
			if arrivalName != "constant" {
				c = 0
				if arr.Step(rng, int64(step)) {
					c = 1 + rng.Intn(2)
				}
			}
			for ; c > 0; c-- {
				s := sites[rng.Intn(sitesN)]
				batches[step] = append(batches[step], leasing.Point{
					X: s.X + rng.Float64()*4, Y: s.Y + rng.Float64()*4})
			}
		}
		t.events = leasing.BatchEvents(batches)
		t.spec.Domain = wire.DomainFacility
		t.spec.Facility = &wire.FacilitySpec{
			Sites:   wirePoints(sites),
			Costs:   facCosts,
			Batches: wireBatches(batches),
		}

	case 4:
		const terminals = 16
		g, err := leasing.RandomConnectedGraph(rng, terminals, 3*terminals, 1, 10)
		if err != nil {
			return nil, err
		}
		connects, err := workload.ConnectArrivals(rng, horizon, arr, terminals)
		if err != nil {
			return nil, err
		}
		reqs := make([]leasing.SteinerRequest, len(connects))
		wreqs := make([]wire.ConnectRequest, len(connects))
		for j, c := range connects {
			reqs[j] = leasing.SteinerRequest{Time: c.T, S: c.S, T: c.U}
			wreqs[j] = wire.ConnectRequest{T: c.T, S: c.S, U: c.U}
		}
		edges := make([]wire.Edge, g.M())
		for j, e := range g.Edges() {
			edges[j] = wire.Edge{U: e.U, V: e.V, W: e.Weight}
		}
		t.events = leasing.ConnectEvents(reqs)
		t.spec.Domain = wire.DomainSteiner
		t.spec.Steiner = &wire.SteinerSpec{
			Vertices: terminals, Edges: edges, Requests: wreqs,
		}

	case 5:
		// Reusable-resource pool: demand steps gated by the arrival
		// process, usage durations uniform in [1, 8], capacity sized so
		// both grants and whole-pool-busy rejections occur.
		const capacity = 4
		days := workload.ArrivalDays(rng, horizon, arr)
		reqs := make([]leasing.ReusableRequest, len(days))
		for j, d := range days {
			reqs[j] = leasing.ReusableRequest{T: d, Dur: 1 + int64(rng.Intn(8))}
		}
		t.events = leasing.UseEvents(reqs)
		t.spec.Domain = wire.DomainReusable
		t.spec.Reusable = &wire.ReusableSpec{Capacity: capacity}
	}
	if t.wevs, err = leasing.WireEvents(t.events); err != nil {
		return nil, err
	}
	return t, nil
}

func wirePoints(ps []leasing.Point) []wire.Point {
	out := make([]wire.Point, len(ps))
	for i, p := range ps {
		out[i] = wire.Point{X: p.X, Y: p.Y}
	}
	return out
}

func wireBatches(batches [][]leasing.Point) [][]wire.Point {
	out := make([][]wire.Point, len(batches))
	for t, b := range batches {
		if b != nil {
			out[t] = wirePoints(b)
		}
	}
	return out
}

// verifyTenant holds a target to the determinism anchor: the tenant's
// recorded run, cached cost and snapshot must equal a single-threaded
// Replay of a leaser built from its own wire spec, and closing the
// session must report every event of its stream.
func verifyTenant(tg target, t *tenant) error {
	got, err := tg.result(t.name)
	if err != nil {
		return err
	}
	ref, err := t.spec.Build()
	if err != nil {
		return err
	}
	want, err := leasing.Replay(ref, t.events)
	if err != nil {
		return err
	}
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		return fmt.Errorf("recorded run differs from Replay")
	}
	cost, err := tg.cost(t.name)
	if err != nil {
		return err
	}
	if cost != want.Final {
		return fmt.Errorf("cost %+v != replay final %+v", cost, want.Final)
	}
	sol, err := tg.snapshot(t.name)
	if err != nil {
		return err
	}
	if fmt.Sprintf("%#v", sol) != fmt.Sprintf("%#v", ref.Snapshot()) {
		return fmt.Errorf("snapshot differs from replay snapshot")
	}
	events, err := tg.close(t.name)
	if err != nil {
		return err
	}
	if events != int64(len(t.events)) {
		return fmt.Errorf("close reports %d events, submitted %d", events, len(t.events))
	}
	return nil
}

// verifyAll verifies every tenant, logging each divergence, and records
// the verdict in the report.
func verifyAll(report *jsonReport, tg target, ts []*tenant) bool {
	ok := true
	for _, t := range ts {
		if err := verifyTenant(tg, t); err != nil {
			ok = false
			fmt.Fprintf(os.Stderr, "leaseload: verify %s: %v\n", t.name, err)
		}
	}
	report.Verified = &ok
	return ok
}

func writeJSON(report any, outPath string, w io.Writer) error {
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if outPath != "" {
		fmt.Printf("leaseload: wrote %s\n", outPath)
	}
	return nil
}

func printText(w io.Writer, r jsonReport) {
	if r.Encoding != "" {
		fmt.Fprintf(w, "mode:    %s (%s encoding)\n", r.Mode, r.Encoding)
	} else {
		fmt.Fprintf(w, "mode:    %s\n", r.Mode)
	}
	fmt.Fprintf(w, "tenants: %d (", r.Tenants)
	first := true
	for _, d := range domainOrder {
		if n, ok := r.Domains[d]; ok {
			if !first {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s %d", d, n)
			first = false
		}
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "engine:  shards=%d batch=%d queue=%d producers=%d chunk=%d\n",
		r.Shards, r.Batch, r.Queue, r.Producers, r.Chunk)
	fmt.Fprintf(w, "events:  %d in %.1fms  (%.0f events/s)\n",
		r.TotalEvents, r.ElapsedMS, r.EventsPerSec)
	fmt.Fprintf(w, "submit latency µs: p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
		r.SubmitLatencyUS.P50, r.SubmitLatencyUS.P90, r.SubmitLatencyUS.P99, r.SubmitLatencyUS.Max)
	if len(r.Engine.Shards) > 0 { // the cluster drill reads no engine counters
		fmt.Fprintf(w, "shards:  %d batches (%.1f events/batch avg), dropped %d, total cost %.2f\n",
			r.Engine.Batches, float64(r.Engine.Events)/float64(max(r.Engine.Batches, 1)), r.Engine.Dropped, r.Engine.Cost)
	}
	if r.Verified != nil {
		fmt.Fprintf(w, "verified: every tenant byte-identical to single-threaded Replay: %v\n", *r.Verified)
	}
	if rp := r.Ramp; rp != nil {
		fmt.Fprintf(w, "ramp:    SLA p%g <= %.1fms, +%d tenants per step, %.0fms step deadline, %s arrivals\n",
			100*rp.SLAPercentile, rp.SLALatencyMS, rp.StepTenants, rp.StepDurationMS, rp.Arrival)
		for _, s := range rp.Steps {
			verdict := "SLA met"
			if !s.SLAMet {
				verdict = "SLA broken"
				if !s.Completed {
					verdict = "SLA broken (cut off at deadline)"
				}
			}
			fmt.Fprintf(w, "  %4d tenants: %8.0f events/s  p%g=%.0fµs  %s\n",
				s.Tenants, s.EventsPerSec, 100*rp.SLAPercentile, s.LatencyAtSLAUS, verdict)
		}
		if rp.MaxTenantsUnderSLA > 0 {
			fmt.Fprintf(w, "max sustainable under SLA: %d tenants at %.0f events/s\n",
				rp.MaxTenantsUnderSLA, rp.MaxEventsPerSecUnderSLA)
		} else {
			fmt.Fprintln(w, "max sustainable under SLA: none — the first step already broke the SLA")
		}
	}
}
