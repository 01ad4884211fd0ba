package main

import (
	"math"
	"runtime"
	"slices"
	"strings"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a tenant of the service sees, taken from the
// plain rounds only. Those in gatedMetrics are the end-to-end metrics
// of BENCHMARK.json: they apply to every workload, are never zero on a
// healthy run, and repeat within their bound. The others are printed
// with them and carried among the per-layer metrics: error_rate is zero
// on a healthy run (the JSON line's attempted and failed counts carry
// it), recover_s applies to the durable workload only, and the p99
// latencies did not repeat within a tenth across runs (README.md).
var endToEndMetrics = []metricDef{
	{"throughput_eps", "events/s"},
	{"setup_s", "s"},
	{"ack_p50_us", "us"},
	{"ack_p99_us", "us"},
	{"decide_p50_us", "us"},
	{"decide_p99_us", "us"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"recover_s", "s"},
	{"cpu_us_per_event", "us/event"},
	{"heap_peak_mb", "MB"},
	{"error_rate", "fraction"},
}

var gatedMetrics = pick(endToEndMetrics,
	"throughput_eps", "setup_s", "decide_p50_us", "cpu_us_per_event", "heap_peak_mb")

// layerMetrics are the per-layer metrics of a traced run. Counts and
// busy times are means per traced round; every round has the same
// shape (tenants, stream length), so they compare across runs and
// commits.
var layerMetrics = append(func() []metricDef {
	out := []metricDef{{"workload.build_s", "s"}}
	for _, d := range domains {
		out = append(out,
			metricDef{d + ".observe.calls", "count"},
			metricDef{d + ".observe.busy_s", "s"},
			metricDef{d + ".observe.p50_us", "us"},
			metricDef{d + ".observe.p99_us", "us"},
			metricDef{d + ".observe.share", "fraction"},
			metricDef{d + ".snapshot.busy_s", "s"},
		)
	}
	return append(out,
		metricDef{"engine.queue_wait.p50_us", "us"},
		metricDef{"engine.queue_wait.p99_us", "us"},
		metricDef{"engine.queue_wait_s", "s"},
		metricDef{"engine.events_per_batch", "events"},
		metricDef{"engine.dropped", "count"},
		metricDef{"engine.backpressure_s", "s"},
		metricDef{"server.submit.calls", "count"},
		metricDef{"server.submit.busy_s", "s"},
		metricDef{"server.submit.p50_us", "us"},
		metricDef{"server.submit.self_s", "s"},
		metricDef{"server.read.busy_s", "s"},
		metricDef{"server.read.p50_us", "us"},
		metricDef{"server.open.busy_s", "s"},
		metricDef{"server.replicate.calls", "count"},
		metricDef{"server.replicate.busy_s", "s"},
		metricDef{"client.submit.busy_s", "s"},
		metricDef{"client.submit.self_s", "s"},
		metricDef{"client.roundtrip.self_s", "s"},
		metricDef{"client.http_429", "count"},
		metricDef{"client.retry_frac", "fraction"},
		metricDef{"wire.submit.bytes_per_event", "B/event"},
		metricDef{"wire.read.bytes_per_call", "B/call"},
		metricDef{"wal.append.calls", "count"},
		metricDef{"wal.append.busy_s", "s"},
		metricDef{"wal.append.p50_us", "us"},
		metricDef{"wal.append.p99_us", "us"},
		metricDef{"wal.syncs_per_append", "fraction"},
		metricDef{"wal.bytes_per_event", "B/event"},
		metricDef{"wal.recover.busy_s", "s"},
		metricDef{"cluster.ship.requests", "count"},
		metricDef{"cluster.ship.busy_s", "s"},
		metricDef{"cluster.ship.records_per_request", "records"},
		metricDef{"cluster.ship.dropped", "count"},
		metricDef{"cluster.ship.failed_peers", "count"},
		metricDef{"cluster.lag.p50_records", "records"},
		metricDef{"cluster.lag.max_records", "records"},
		metricDef{"runtime.alloc_b_per_event", "B/event"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_s", "s"},
		metricDef{"loadgen.late_p99_us", "us"},
		metricDef{"tracing.overhead_frac", "fraction"},
	)
}(), ungated()...)

// ungated are the end-to-end metrics not in gatedMetrics.
func ungated() []metricDef {
	var out []metricDef
	for _, d := range endToEndMetrics {
		if !slices.Contains(gatedMetrics, d) {
			out = append(out, d)
		}
	}
	return out
}

func pick(defs []metricDef, names ...string) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if slices.Contains(names, d.name) {
			out = append(out, d)
		}
	}
	return out
}

// round is one measured pass over a workload's inputs: set-up, the
// measured window from the first submit to the flush barrier, and the
// checks after it.
type round struct {
	traced            bool
	setupNs, buildNs  int64
	windowNs          int64
	events            int64
	cpuNs             int64
	heapPeak          uint64
	mem               memCounters
	ack, decide       []float64 // µs; a failed operation is +Inf
	reads, late       []float64 // µs
	recoverNs         int64
	attempted, failed int64
	checkErrs         []error

	// Traced rounds only.
	spans   []span
	sums    map[string]float64   // additive layer quantities
	samples map[string][]float64 // layer latency and gauge samples
}

func (r *round) add(key string, v float64) {
	if r.sums == nil {
		r.sums = map[string]float64{}
	}
	r.sums[key] += v
}

func (r *round) sample(key string, v ...float64) {
	if r.samples == nil {
		r.samples = map[string][]float64{}
	}
	r.samples[key] = append(r.samples[key], v...)
}

// computeMetrics reduces a run's rounds to its metrics: end-to-end ones
// from the plain rounds, per-layer ones from the traced rounds. An
// open-loop workload's throughput is its offered rate, so its tracing
// overhead is taken from CPU per event instead.
func computeMetrics(rounds []*round, openLoop bool) map[string]float64 {
	m := map[string]float64{}
	var plain, traced []*round
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	var attempted, failed int64
	var builds []float64
	for _, r := range rounds {
		attempted += r.attempted
		failed += r.failed
		builds = append(builds, float64(r.buildNs)/1e9)
	}
	m["error_rate"] = float64(failed) / float64(max(attempted, 1))
	m["workload.build_s"] = median(builds)

	var setup, heap, recov, ack, decide, reads []float64
	var windowNs, cpuNs, events int64
	for _, r := range plain {
		windowNs += r.windowNs
		cpuNs += r.cpuNs
		events += r.events
		setup = append(setup, float64(r.setupNs)/1e9)
		heap = append(heap, float64(r.heapPeak)/1e6)
		if r.recoverNs > 0 {
			recov = append(recov, float64(r.recoverNs)/1e9)
		}
		ack = append(ack, r.ack...)
		decide = append(decide, r.decide...)
		reads = append(reads, r.reads...)
	}
	// Throughput and CPU pool every plain round: a ratio of sums has
	// half the run-to-run spread of a median of per-round ratios.
	m["throughput_eps"] = float64(events) / max(float64(windowNs)/1e9, 1e-9)
	m["setup_s"] = median(setup)
	m["heap_peak_mb"] = median(heap)
	m["recover_s"] = median(recov)
	m["ack_p50_us"], m["ack_p99_us"] = percentile(ack, 0.5), percentile(ack, 0.99)
	m["decide_p50_us"], m["decide_p99_us"] = percentile(decide, 0.5), percentile(decide, 0.99)
	m["read_p50_us"], m["read_p99_us"] = percentile(reads, 0.5), percentile(reads, 0.99)
	m["cpu_us_per_event"] = float64(cpuNs) / 1e3 / float64(max(events, 1))

	if len(traced) == 0 {
		return m
	}
	sums := map[string]float64{}
	samples := map[string][]float64{}
	var tWindowNs, tCPUNs, tEvents int64
	for _, r := range traced {
		for k, v := range r.sums {
			sums[k] += v
		}
		for k, v := range r.samples {
			samples[k] = append(samples[k], v...)
		}
		tWindowNs += r.windowNs
		tCPUNs += r.cpuNs
		tEvents += r.events
	}
	n := float64(len(traced))
	perRound := func(k string) float64 { return sums[k] / n }
	seconds := func(k string) float64 { return sums[k] / 1e9 / n }
	ratio := func(a, b string) float64 {
		if sums[b] == 0 {
			return 0
		}
		return sums[a] / sums[b]
	}
	p := func(k string, q float64) float64 { return percentile(samples[k], q) }
	for _, d := range domains {
		o := d + ".observe"
		m[o+".calls"] = perRound(o + ".calls")
		m[o+".busy_s"] = seconds(o + ".busy_ns")
		m[o+".p50_us"], m[o+".p99_us"] = p(o+".us", 0.5), p(o+".us", 0.99)
		m[o+".share"] = ratio(o+".busy_ns", "capacity_ns")
		m[d+".snapshot.busy_s"] = seconds(d + ".snapshot.busy_ns")
	}
	m["engine.queue_wait.p50_us"], m["engine.queue_wait.p99_us"] = p("engine.queue_wait.us", 0.5), p("engine.queue_wait.us", 0.99)
	m["engine.queue_wait_s"] = seconds("engine.queue_wait_ns")
	m["engine.events_per_batch"] = ratio("engine.events", "engine.batches")
	m["engine.dropped"] = perRound("engine.dropped")
	m["engine.backpressure_s"] = seconds("engine.submit.self_ns")
	m["server.submit.calls"] = perRound("server.submit.calls")
	m["server.submit.busy_s"] = seconds("server.submit.busy_ns")
	m["server.submit.p50_us"] = p("server.submit.us", 0.5)
	m["server.submit.self_s"] = seconds("server.submit.self_ns")
	m["server.read.busy_s"] = (sums["server.cost.busy_ns"] + sums["server.snapshot.busy_ns"]) / 1e9 / n
	m["server.read.p50_us"] = percentile(append(slices.Clone(samples["server.cost.us"]), samples["server.snapshot.us"]...), 0.5)
	m["server.open.busy_s"] = seconds("server.open.busy_ns")
	m["server.replicate.calls"] = perRound("server.replicate.calls")
	m["server.replicate.busy_s"] = seconds("server.replicate.busy_ns")
	m["client.submit.busy_s"] = seconds("client.submit.busy_ns")
	m["client.submit.self_s"] = seconds("client.submit.self_ns")
	m["client.roundtrip.self_s"] = seconds("client.roundtrip.self_ns")
	m["client.http_429"] = perRound("client.http_429")
	m["client.retry_frac"] = ratio("client.http_429", "client.submit_trips")
	m["wire.submit.bytes_per_event"] = ratio("wire.submit.bytes", "events")
	m["wire.read.bytes_per_call"] = ratio("wire.read.bytes", "wire.read.calls")
	m["wal.append.calls"] = perRound("wal.append.calls")
	m["wal.append.busy_s"] = seconds("wal.append.busy_ns")
	m["wal.append.p50_us"], m["wal.append.p99_us"] = p("wal.append.us", 0.5), p("wal.append.us", 0.99)
	m["wal.syncs_per_append"] = ratio("wal.syncs", "wal.appends")
	m["wal.bytes_per_event"] = ratio("wal.bytes", "events")
	m["wal.recover.busy_s"] = seconds("wal.recover.busy_ns")
	m["cluster.ship.requests"] = perRound("cluster.ship.calls")
	m["cluster.ship.busy_s"] = seconds("cluster.ship.busy_ns")
	m["cluster.ship.records_per_request"] = ratio("cluster.ship.records", "cluster.ship.batches")
	m["cluster.ship.dropped"] = perRound("cluster.ship.dropped")
	m["cluster.ship.failed_peers"] = perRound("cluster.ship.failed_peers")
	m["cluster.lag.p50_records"] = p("cluster.lag.records", 0.5)
	m["cluster.lag.max_records"] = p("cluster.lag.records", 1)
	m["runtime.alloc_b_per_event"] = ratio("runtime.alloc_bytes", "events")
	m["runtime.gc_cycles"] = perRound("runtime.gc_cycles")
	m["runtime.gc_pause_s"] = seconds("runtime.gc_pause_ns")
	m["loadgen.late_p99_us"] = p("loadgen.late.us", 0.99)
	switch {
	case openLoop && m["cpu_us_per_event"] > 0 && tEvents > 0:
		m["tracing.overhead_frac"] = float64(tCPUNs)/1e3/float64(tEvents)/m["cpu_us_per_event"] - 1
	case !openLoop && m["throughput_eps"] > 0 && tWindowNs > 0:
		m["tracing.overhead_frac"] = 1 - float64(tEvents)/(float64(tWindowNs)/1e9)/m["throughput_eps"]
	}
	return m
}

// spanLayers accumulates a traced round's spans into its layer sums:
// calls, busy time and latency samples per span name, and the self time
// of the submit and round-trip spans, less their synchronous callees
// (wal.append, client.roundtrip, server.<endpoint>). An Observe span
// keeps its link to the submit that acknowledged its event, but it runs
// on a shard goroutine beside or after that submit, which never waits
// for it, so it is not taken off the submit's self time.
func spanLayers(r *round, spans []span) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 && !strings.HasSuffix(s.Name, ".observe") {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		r.add(s.Name+".calls", 1)
		r.add(s.Name+".busy_ns", float64(s.dur()))
		r.sample(s.Name+".us", micros(s.dur()))
		switch {
		case s.Name == "engine.submit" || s.Name == "server.submit" || s.Name == "client.submit",
			s.Name == "client.roundtrip" && s.Parent != 0: // a submit's, not a check read's
			r.add(s.Name+".self_ns", float64(selfTime(s, children[s.ID])))
		}
	}
}

// ackSpans maps each request id to the span that acknowledged it: the
// in-process engine.submit, or the last server.submit carrying it.
func ackSpans(spans []span) map[int64]span {
	out := map[int64]span{}
	for _, s := range spans {
		if s.Name != "engine.submit" && s.Name != "server.submit" {
			continue
		}
		if prev, ok := out[s.Req]; !ok || s.End > prev.End {
			out[s.Req] = s
		}
	}
	return out
}

// traceRound finishes a traced round's layer accounting from its probes
// and spans: Observe spans per domain, each event's queue wait (the
// start of its Observe minus the acknowledgement of the submit that
// carried it), and every span's layer sums.
func traceRound(r *round, probes []*probe, spans []span) {
	acks := ackSpans(spans)
	obs := observeSpans(probes, acks)
	for _, p := range probes {
		r.add(p.t.domain+".snapshot.busy_ns", float64(p.snapNs))
		for _, c := range p.calls {
			ack, ok := acks[c.req]
			if !ok {
				continue
			}
			for i := c.lo; i < c.hi && i < p.n; i++ {
				w := max(p.obsStart[i]-ack.End, 0)
				r.add("engine.queue_wait_ns", float64(w))
				r.sample("engine.queue_wait.us", micros(w))
			}
		}
	}
	all := append(spans, obs...)
	spanLayers(r, all)
	r.spans = all
	r.add("capacity_ns", float64(r.windowNs)*float64(runtime.GOMAXPROCS(0)))
	r.add("events", float64(r.events))
	r.add("runtime.alloc_bytes", float64(r.mem.allocBytes))
	r.add("runtime.gc_cycles", float64(r.mem.gcCycles))
	r.add("runtime.gc_pause_ns", float64(r.mem.gcPauseNs))
	r.sample("loadgen.late.us", r.late...)
}

// latencies fills a round's acknowledgement and decision latencies from
// its probes: each call is timed from its due time to its
// acknowledgement, and each event from its call's due time to the
// return of its Observe. Failed calls and undecided events count as
// +Inf, above every percentile.
func latencies(r *round, probes []*probe) {
	inf := math.Inf(1)
	for _, p := range probes {
		for _, c := range p.calls {
			r.attempted++
			if c.failed {
				r.failed++
				r.ack = append(r.ack, inf)
			} else {
				r.ack = append(r.ack, micros(c.end-c.due))
			}
			for i := c.lo; i < c.hi; i++ {
				if i >= p.n || c.failed {
					r.decide = append(r.decide, inf)
					continue
				}
				r.decide = append(r.decide, micros(p.done[i]-c.due))
			}
		}
	}
}
