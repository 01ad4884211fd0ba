package leasing

// One benchmark per evaluation artifact of the thesis (experiments E1..E20,
// indexed in DESIGN.md). Each bench regenerates its experiment's table in
// quick mode and reports the headline measured quantity as a custom metric,
// so `go test -bench=. -benchmem` reproduces the whole evaluation and its
// costs in one run. The full-size tables are produced by cmd/leasebench,
// the full documents by cmd/leasereport.

import (
	"math/rand"
	"strconv"
	"testing"

	"leasing/internal/deadline"
	"leasing/internal/experiments"
	"leasing/internal/facility"
	"leasing/internal/graph"
	"leasing/internal/ilp"
	"leasing/internal/lease"
	"leasing/internal/lp"
	"leasing/internal/metric"
	"leasing/internal/parking"
	"leasing/internal/reusable"
	"leasing/internal/setcover"
	"leasing/internal/sim"
	"leasing/internal/steiner"
	"leasing/internal/stream"
	"leasing/internal/workload"
)

// benchExperiment runs one experiment per iteration and reports the mean of
// the named numeric column of the last row as "<metric>".
func benchExperiment(b *testing.B, id, column, metric string) {
	b.Helper()
	cfg := experiments.Config{Quick: true, Seed: 2015}
	var last float64
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		col := -1
		for ci, c := range tb.Columns {
			if c == column {
				col = ci
				break
			}
		}
		if col < 0 {
			b.Fatalf("experiment %s has no column %q (have %v)", id, column, tb.Columns)
		}
		v, err := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][col], 64)
		if err != nil {
			b.Fatalf("experiment %s column %q cell %q: %v", id, column, tb.Rows[len(tb.Rows)-1][col], err)
		}
		last = v
	}
	b.ReportMetric(last, metric)
}

// BenchmarkE1DeterministicParkingPermit regenerates Theorem 2.7's series:
// the deterministic ratio grows at most linearly in K.
func BenchmarkE1DeterministicParkingPermit(b *testing.B) {
	benchExperiment(b, "E1", "mean_ratio", "ratio@maxK")
}

// BenchmarkE2DeterministicLowerBound regenerates the Theorem 2.8 adversary:
// ratio >= K/3 on the hard configuration.
func BenchmarkE2DeterministicLowerBound(b *testing.B) {
	benchExperiment(b, "E2", "ratio", "ratio@maxK")
}

// BenchmarkE3RandomizedParkingPermit regenerates the O(log K) series of
// Meyerson's randomized algorithm.
func BenchmarkE3RandomizedParkingPermit(b *testing.B) {
	benchExperiment(b, "E3", "mean_ratio", "ratio@maxK")
}

// BenchmarkE4RandomizedLowerBound regenerates the Theorem 2.9 hard
// distribution.
func BenchmarkE4RandomizedLowerBound(b *testing.B) {
	benchExperiment(b, "E4", "rand_ratio", "ratio@maxK")
}

// BenchmarkE5IntervalModelTransform regenerates the Lemma 2.6 factor-4
// check.
func BenchmarkE5IntervalModelTransform(b *testing.B) {
	benchExperiment(b, "E5", "max_ratio", "max-ratio")
}

// BenchmarkE6SetMulticoverLeasing regenerates the Theorem 3.3 sweep.
func BenchmarkE6SetMulticoverLeasing(b *testing.B) {
	benchExperiment(b, "E6", "mean_ratio", "ratio@max")
}

// BenchmarkE7OnlineSetMulticover regenerates the Corollary 3.4 reduction.
func BenchmarkE7OnlineSetMulticover(b *testing.B) {
	benchExperiment(b, "E7", "mean_ratio", "ratio@maxN")
}

// BenchmarkE8SetCoverRepetitions regenerates the Corollary 3.5 variant.
func BenchmarkE8SetCoverRepetitions(b *testing.B) {
	benchExperiment(b, "E8", "mean_ratio", "ratio@maxN")
}

// BenchmarkE9FacilityLeasing regenerates the Theorem 4.5 arrival-pattern
// sweep.
func BenchmarkE9FacilityLeasing(b *testing.B) {
	benchExperiment(b, "E9", "mean_ratio", "ratio@lastPattern")
}

// BenchmarkE10OnlineLeasingDeadlines regenerates the Theorem 5.3 sweeps.
func BenchmarkE10OnlineLeasingDeadlines(b *testing.B) {
	benchExperiment(b, "E10", "mean_ratio", "ratio@maxD")
}

// BenchmarkE11TightExample regenerates the Proposition 5.4 instance.
func BenchmarkE11TightExample(b *testing.B) {
	benchExperiment(b, "E11", "ratio", "ratio@maxD")
}

// BenchmarkE12SCLD regenerates the Theorem 5.7 sweep.
func BenchmarkE12SCLD(b *testing.B) {
	benchExperiment(b, "E12", "mean_ratio", "ratio@maxD")
}

// BenchmarkE13TimeIndependence regenerates the Corollary 5.8 flatness
// check.
func BenchmarkE13TimeIndependence(b *testing.B) {
	benchExperiment(b, "E13", "mean_ratio", "ratio@maxHorizon")
}

// BenchmarkE14CloudSubcontractor regenerates the Section 1.3 narrative
// comparison.
func BenchmarkE14CloudSubcontractor(b *testing.B) {
	benchExperiment(b, "E14", "cost", "opt-cost")
}

// BenchmarkE15MISAblation regenerates the phase-2 ordering ablation.
func BenchmarkE15MISAblation(b *testing.B) {
	benchExperiment(b, "E15", "mean_cost", "cost@byIndex")
}

// BenchmarkE16RoundingAblation regenerates the rounding-draw ablation.
func BenchmarkE16RoundingAblation(b *testing.B) {
	benchExperiment(b, "E16", "mean_ratio", "ratio@maxDraws")
}

// BenchmarkDeterministicParkingPermitArrive micro-benchmarks the hot path
// of the Chapter 2 primal-dual algorithm (per-demand work is O(K)).
func BenchmarkDeterministicParkingPermitArrive(b *testing.B) {
	cfg := lease.PowerConfig(6, 4, 0.5)
	alg, err := parking.NewDeterministic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := alg.Arrive(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomizedParkingPermitArrive micro-benchmarks the randomized
// algorithm's per-demand work (fraction updates plus rounding).
func BenchmarkRandomizedParkingPermitArrive(b *testing.B) {
	cfg := lease.PowerConfig(6, 4, 0.5)
	alg, err := parking.NewRandomized(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := alg.Arrive(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineParkingDP micro-benchmarks the laminar DP optimum on a
// dense 4096-day instance.
func BenchmarkOfflineParkingDP(b *testing.B) {
	cfg := lease.PowerConfig(6, 4, 0.5)
	days := make([]int64, 4096)
	for i := range days {
		days[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := parking.Optimal(cfg, days); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17SteinerTreeLeasing regenerates the Steiner-tree-leasing
// extension sweep.
func BenchmarkE17SteinerTreeLeasing(b *testing.B) {
	benchExperiment(b, "E17", "mean_ratio", "ratio@max")
}

// BenchmarkE18CoverReductions regenerates the vertex/edge cover leasing
// reductions.
func BenchmarkE18CoverReductions(b *testing.B) {
	benchExperiment(b, "E18", "mean_ratio", "ratio@last")
}

// BenchmarkE19CapacitatedFacility regenerates the price-of-capacity sweep.
func BenchmarkE19CapacitatedFacility(b *testing.B) {
	benchExperiment(b, "E19", "greedy_rate_ratio", "ratio@maxCap")
}

// BenchmarkE20StochasticDemand regenerates the prior-aware-vs-worst-case
// study.
func BenchmarkE20StochasticDemand(b *testing.B) {
	benchExperiment(b, "E20", "pred_ratio", "ratio@last")
}

// BenchmarkE21ReusablePool regenerates the reusable-resource pool sweep
// (online allocator vs the offline per-unit oracle).
func BenchmarkE21ReusablePool(b *testing.B) {
	benchExperiment(b, "E21", "mean_ratio", "ratio@last")
}

// BenchmarkE22ReusablePredictions regenerates the learning-augmented
// consistency/robustness study for the reusable pool.
func BenchmarkE22ReusablePredictions(b *testing.B) {
	benchExperiment(b, "E22", "pred_ratio", "ratio@last")
}

// BenchmarkSetCoverLeaserArrive micro-benchmarks one demand of the
// Chapter 3 randomized algorithm (fraction updates + rounding) on a
// 32-element, delta=3 instance.
func BenchmarkSetCoverLeaserArrive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := lease.PowerConfig(3, 4, 0.5)
	inst, err := setcover.RandomInstance(rng, cfg, 32, 32, 3, 1<<30, 0, 1, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := setcover.NewOnline(inst, rng, setcover.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := alg.Arrive(int64(i), i%32, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacilityLeaserStep micro-benchmarks one time step of the
// Chapter 4 two-phase primal-dual with a 2-client batch over 5 sites. It
// runs with ResetEachRound and the same fixed 2-client batch every step,
// so the bidding history stays a few rounds' clients long: it never
// exercises the growing-history cost of the default options, which
// BenchmarkObserve/facility measures.
func BenchmarkFacilityLeaserStep(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cfg := lease.PowerConfig(2, 4, 0.5)
	inst, err := facility.RandomInstance(rng, cfg, facility.GenParams{
		Sites: 5, Steps: 1, Pattern: workload.PatternConstant,
		Base: 2, MaxPerStep: 2, WorldSize: 40, CostSpread: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	alg, err := facility.NewOnline(inst, facility.Options{ResetEachRound: true})
	if err != nil {
		b.Fatal(err)
	}
	batch := []metric.Point{{X: 1, Y: 2}, {X: 30, Y: 20}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := alg.Step(int64(i), batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeadlineLeaserArrive micro-benchmarks one OLD client with a
// moderate window.
func BenchmarkDeadlineLeaserArrive(b *testing.B) {
	cfg := lease.PowerConfig(3, 4, 0.5)
	alg, err := deadline.NewOnline(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := alg.Arrive(int64(2*i), 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteinerServe micro-benchmarks one routing+leasing request on a
// 24-node network.
func BenchmarkSteinerServe(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.RandomConnected(rng, 24, 48, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := lease.PowerConfig(3, 4, 0.5)
	inst, err := steiner.NewInstance(g, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := steiner.NewOnline(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := steiner.Request{Time: int64(i), S: i % 24, T: (i*7 + 5) % 24}
		if req.S == req.T {
			req.T = (req.T + 1) % 24
		}
		if err := alg.Serve(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexSolve micro-benchmarks the LP substrate on a 40-variable
// covering relaxation.
func BenchmarkSimplexSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n = 40
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 1 + rng.Float64()*4
	}
	prob := lp.NewMinimize(costs)
	for r := 0; r < 25; r++ {
		row := map[int]float64{}
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				row[j] = 1
			}
		}
		row[rng.Intn(n)] = 1
		if err := prob.Add(row, lp.GE, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := prob.Solve()
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
	}
}

// BenchmarkBranchAndBound micro-benchmarks the exact solver on a
// 20-variable covering ILP.
func BenchmarkBranchAndBound(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 20
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 1 + rng.Float64()*4
	}
	rows := make([]map[int]float64, 14)
	for r := range rows {
		row := map[int]float64{}
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				row[j] = 1
			}
		}
		row[rng.Intn(n)] = 1
		rows[r] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob := ilp.NewBinaryMinimize(costs)
		for _, row := range rows {
			if err := prob.Add(row, lp.GE, 1); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := prob.Solve(ilp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRatiosWorkers measures the trial engine itself on a CPU-bound
// parking sweep, isolating the worker-pool speedup from any one
// experiment's instance generation.
func benchRatiosWorkers(b *testing.B, workers int) {
	lcfg := lease.PowerConfig(5, 4, 0.5)
	days := make([]int64, 1024)
	for i := range days {
		days[i] = int64(i * 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.RatiosWorkers(16, 2015, workers, func(rng *rand.Rand) (float64, float64, error) {
			alg, err := parking.NewDeterministic(lcfg)
			if err != nil {
				return 0, 0, err
			}
			online, err := parking.Run(alg, days)
			if err != nil {
				return 0, 0, err
			}
			opt, _, err := parking.Optimal(lcfg, days)
			if err != nil {
				return 0, 0, err
			}
			return online, opt, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRatiosSequential pins the single-worker baseline of the
// trial engine.
func BenchmarkSimRatiosSequential(b *testing.B) { benchRatiosWorkers(b, 1) }

// BenchmarkSimRatiosParallel runs the same sweep on the GOMAXPROCS pool;
// the summary is identical, only the wall clock changes.
func BenchmarkSimRatiosParallel(b *testing.B) { benchRatiosWorkers(b, 0) }

// observeEvents is the stream length of every BenchmarkObserve case.
const observeEvents = 256

// BenchmarkObserve measures each domain's stream.Leaser end to end the
// way the serving engine drives it: one fresh leaser per iteration, fed
// a seeded 256-event stream with default options, and a Snapshot after
// every 4 events (the engine publishes one per submitted batch). One op
// is the whole stream; ns/event divides by its length.
func BenchmarkObserve(b *testing.B) {
	for _, name := range []string{"parking", "parking-rand", "deadline", "setcover", "scld", "facility", "steiner", "reusable"} {
		b.Run(name, func(b *testing.B) {
			benchObserve(b, name, observeEvents)
		})
	}
}

// BenchmarkFacilityHistory measures how facility's per-event cost grows
// with its history: BenchmarkObserve/facility's stream and loop, with
// default options, at 256 and 1024 events. Without round resets phase 1
// re-runs over every client seen so far, so ns/event grows with N.
func BenchmarkFacilityHistory(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			benchObserve(b, "facility", n)
		})
	}
}

// benchObserve feeds one fresh leaser per iteration the domain's n-event
// stream, with a Snapshot after every 4 events, and reports ns/event.
func benchObserve(b *testing.B, domain string, n int) {
	events, fresh := observeStream(b, domain, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := fresh()
		for j, ev := range events {
			if _, err := l.Observe(ev); err != nil {
				b.Fatal(err)
			}
			if j%4 == 3 {
				l.Snapshot()
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// observeStream builds a domain's n-event benchmark stream (demand on
// about half the steps, as cmd/leaseload synthesizes it) and a factory
// of fresh leasers over it.
func observeStream(b *testing.B, domain string, n int) ([]stream.Event, func() stream.Leaser) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	cfg := lease.PowerConfig(3, 4, 0.55)
	horizon := int64(4*n + 64)
	arr, err := workload.NewArrival("constant", 0.5, 64)
	if err != nil {
		b.Fatal(err)
	}
	must := func(l stream.Leaser, err error) stream.Leaser {
		if err != nil {
			b.Fatal(err)
		}
		return l
	}
	var (
		events []stream.Event
		fresh  func() stream.Leaser
	)
	switch domain {
	case "parking", "parking-rand", "reusable":
		days := workload.ArrivalDays(rng, horizon, arr)[:n]
		switch domain {
		case "parking":
			events = stream.Days(days)
			fresh = func() stream.Leaser {
				alg, err := parking.NewDeterministic(cfg)
				return must(parking.NewLeaser(alg), err)
			}
		case "parking-rand":
			events = stream.Days(days)
			fresh = func() stream.Leaser {
				alg, err := parking.NewRandomized(cfg, rand.New(rand.NewSource(12)))
				return must(parking.NewLeaser(alg), err)
			}
		default:
			events = make([]stream.Event, len(days))
			for i, d := range days {
				events[i] = stream.Event{Time: d, Payload: stream.Use{Dur: 1 + int64(rng.Intn(8))}}
			}
			fresh = func() stream.Leaser {
				alg, err := reusable.NewOnline(cfg, 4, reusable.Options{})
				return must(reusable.NewLeaser(alg), err)
			}
		}
	case "deadline":
		events = stream.Windows(workload.DeadlineArrivals(rng, horizon, arr, 12)[:n])
		fresh = func() stream.Leaser {
			alg, err := deadline.NewOnline(cfg)
			return must(deadline.NewLeaser(alg), err)
		}
	case "setcover", "scld":
		const elems, sets, delta = 32, 20, 3
		fam, err := setcover.RandomFamily(rng, elems, sets, delta)
		if err != nil {
			b.Fatal(err)
		}
		costs := setcover.RandomCosts(rng, sets, cfg, 0.5)
		if domain == "setcover" {
			arrivals := workload.ElementArrivals(rng, horizon, arr,
				func() int { return rng.Intn(elems) }, func() int { return 1 + rng.Intn(2) })[:n]
			inst, err := setcover.NewInstance(fam, cfg, costs, arrivals, setcover.PerArrival)
			if err != nil {
				b.Fatal(err)
			}
			events = stream.Elements(arrivals)
			fresh = func() stream.Leaser {
				alg, err := setcover.NewOnline(inst, rand.New(rand.NewSource(12)), setcover.Options{})
				return must(setcover.NewLeaser(alg), err)
			}
			break
		}
		arrivals := make([]deadline.SCLDArrival, 0, n)
		for day := int64(0); len(arrivals) < n; day++ {
			if rng.Intn(2) == 0 {
				arrivals = append(arrivals, deadline.SCLDArrival{T: day, Elem: rng.Intn(elems), D: int64(rng.Intn(12))})
			}
		}
		inst, err := deadline.NewSCLDInstance(fam, cfg, costs, arrivals)
		if err != nil {
			b.Fatal(err)
		}
		events = deadline.SCLDEvents(arrivals)
		fresh = func() stream.Leaser {
			alg, err := deadline.NewSCLDOnline(inst, rand.New(rand.NewSource(12)))
			return must(deadline.NewSCLDStream(alg), err)
		}
	case "facility":
		// Zero to two clients per step near one of six sites.
		const sitesN = 6
		sites := metric.RandomPoints(rng, sitesN, 50)
		costs := make([][]float64, sitesN)
		for i := range costs {
			f := 1 + rng.Float64()*0.5
			costs[i] = make([]float64, cfg.K())
			for k := range costs[i] {
				costs[i][k] = cfg.Cost(k) * f
			}
		}
		batches := make([][]metric.Point, n)
		for t := range batches {
			for c := rng.Intn(3); c > 0; c-- {
				s := sites[rng.Intn(sitesN)]
				batches[t] = append(batches[t], metric.Point{X: s.X + rng.Float64()*4, Y: s.Y + rng.Float64()*4})
			}
		}
		inst, err := facility.NewInstance(cfg, sites, costs, batches)
		if err != nil {
			b.Fatal(err)
		}
		events = stream.Batches(batches)
		fresh = func() stream.Leaser {
			alg, err := facility.NewOnline(inst, facility.Options{})
			return must(facility.NewLeaser(alg), err)
		}
	case "steiner":
		const terminals = 16
		g, err := graph.RandomConnected(rng, terminals, 3*terminals, 1, 10)
		if err != nil {
			b.Fatal(err)
		}
		connects, err := workload.ConnectArrivals(rng, horizon, arr, terminals)
		if err != nil {
			b.Fatal(err)
		}
		reqs := make([]steiner.Request, n)
		for i, c := range connects[:n] {
			reqs[i] = steiner.Request{Time: c.T, S: c.S, T: c.U}
		}
		inst, err := steiner.NewInstance(g, cfg, reqs)
		if err != nil {
			b.Fatal(err)
		}
		events = steiner.Events(reqs)
		fresh = func() stream.Leaser {
			alg, err := steiner.NewOnline(inst)
			return must(steiner.NewLeaser(alg), err)
		}
	default:
		b.Fatalf("unknown domain %q", domain)
	}
	return events, fresh
}
