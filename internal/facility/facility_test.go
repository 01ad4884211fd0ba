package facility

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"leasing/internal/lease"
	"leasing/internal/metric"
	"leasing/internal/workload"
)

func facConfig() *lease.Config {
	return lease.MustConfig(
		lease.Type{Length: 1, Cost: 2},
		lease.Type{Length: 4, Cost: 5},
	)
}

func TestNewInstanceValidation(t *testing.T) {
	cfg := facConfig()
	sites := []metric.Point{{X: 0, Y: 0}}
	if _, err := NewInstance(lease.MustConfig(lease.Type{Length: 3, Cost: 1}), sites, [][]float64{{1}}, nil); err == nil {
		t.Error("non-interval config accepted")
	}
	if _, err := NewInstance(cfg, nil, nil, nil); err == nil {
		t.Error("no sites accepted")
	}
	if _, err := NewInstance(cfg, sites, [][]float64{{1, 2}, {3, 4}}, nil); err == nil {
		t.Error("cost row count mismatch accepted")
	}
	if _, err := NewInstance(cfg, sites, [][]float64{{1}}, nil); err == nil {
		t.Error("short cost row accepted")
	}
	if _, err := NewInstance(cfg, sites, [][]float64{{1, 0}}, nil); err == nil {
		t.Error("zero cost accepted")
	}
	if _, err := NewInstance(cfg, sites, [][]float64{{1, 2}}, nil); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestSingleClientSingleFacility(t *testing.T) {
	cfg := facConfig()
	inst, err := NewInstance(cfg,
		[]metric.Point{{X: 0, Y: 0}},
		[][]float64{{2, 5}},
		[][]metric.Point{{{X: 3, Y: 0}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	// The facility must open with the cheaper type (potential reaches
	// 3 + 2 = 5 for type 0 before 3 + 5 = 8 for type 1), and the client
	// connects at distance 3: total = 2 + 3 = 5.
	if math.Abs(alg.TotalCost()-5) > 1e-6 {
		t.Errorf("total = %v, want 5", alg.TotalCost())
	}
	leases, assigns := alg.Solution()
	cost, err := VerifySolution(inst, leases, assigns)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-alg.TotalCost()) > 1e-6 {
		t.Errorf("verified cost %v != reported %v", cost, alg.TotalCost())
	}
	if math.Abs(alg.DualTotal()-5) > 1e-6 {
		t.Errorf("dual = %v, want 5 (alpha-hat = 5)", alg.DualTotal())
	}
}

func TestColocatedClientsShareOneFacility(t *testing.T) {
	cfg := facConfig()
	pts := make([]metric.Point, 6)
	for i := range pts {
		pts[i] = metric.Point{X: 1, Y: 1}
	}
	inst, err := NewInstance(cfg,
		[]metric.Point{{X: 1, Y: 1}, {X: 50, Y: 50}},
		[][]float64{{2, 5}, {2, 5}},
		[][]metric.Point{pts},
	)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	// All clients sit on facility 0: open it once (cost 2), zero connection.
	if math.Abs(alg.TotalCost()-2) > 1e-6 {
		t.Errorf("total = %v, want 2", alg.TotalCost())
	}
	if alg.ConnectionCost() > 1e-9 {
		t.Errorf("connection cost = %v, want 0", alg.ConnectionCost())
	}
}

func TestLeaseReuseAcrossSteps(t *testing.T) {
	// A client at the same spot in 4 consecutive steps: with a length-4
	// lease costing 5 vs 4 daily leases costing 8, the algorithm should
	// not exceed the cost of the naive daily strategy, and the long-lease
	// OPT is 5.
	cfg := facConfig()
	batches := make([][]metric.Point, 4)
	for tstep := range batches {
		batches[tstep] = []metric.Point{{X: 0, Y: 0}}
	}
	inst, err := NewInstance(cfg, []metric.Point{{X: 0, Y: 0}}, [][]float64{{2, 5}}, batches)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	leases, assigns := alg.Solution()
	if _, err := VerifySolution(inst, leases, assigns); err != nil {
		t.Fatal(err)
	}
	opt, err := Optimal(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Exact || math.Abs(opt.Cost-5) > 1e-6 {
		t.Errorf("OPT = %+v, want exact 5 (one long lease)", opt)
	}
	if alg.TotalCost() < opt.Cost-1e-6 {
		t.Errorf("online %v below OPT %v", alg.TotalCost(), opt.Cost)
	}
}

func TestOnlineFeasibleAndBoundedOnRandomInstances(t *testing.T) {
	cfg := facConfig()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst, err := RandomInstance(rng, cfg, GenParams{
			Sites: 3, Steps: 6, Pattern: workload.PatternConstant,
			Base: 2, MaxPerStep: 2, WorldSize: 20, CostSpread: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewOnline(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		leases, assigns := alg.Solution()
		cost, err := VerifySolution(inst, leases, assigns)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(cost-alg.TotalCost()) > 1e-6 {
			t.Fatalf("seed %d: verified %v != reported %v", seed, cost, alg.TotalCost())
		}
		// Lemma 4.1: cost <= (3+K) * dual.
		bound := float64(3+cfg.K()) * alg.DualTotal()
		if alg.TotalCost() > bound+1e-6 {
			t.Errorf("seed %d: cost %v exceeds (3+K)*dual = %v", seed, alg.TotalCost(), bound)
		}
		opt, err := Optimal(inst, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !opt.Exact {
			t.Logf("seed %d: OPT not proven (bound %v)", seed, opt.Lower)
			continue
		}
		if alg.TotalCost() < opt.Cost-1e-6 {
			t.Errorf("seed %d: online %v below OPT %v", seed, alg.TotalCost(), opt.Cost)
		}
		// Theorem 4.5 with the Lemma 2.6 transfer: 4*(3+K)*H_lmax. Measured
		// runs should sit far below; assert the theorem bound holds.
		h := workload.HSeries(inst.BatchCounts())
		if h < 1 {
			h = 1
		}
		if ratio := alg.TotalCost() / opt.Cost; ratio > 4*float64(3+cfg.K())*h+1e-6 {
			t.Errorf("seed %d: ratio %v above theorem bound", seed, ratio)
		}
	}
}

func TestNaiveBaselines(t *testing.T) {
	cfg := facConfig()
	rng := rand.New(rand.NewSource(9))
	inst, err := RandomInstance(rng, cfg, GenParams{
		Sites: 3, Steps: 8, Pattern: workload.PatternConstant,
		Base: 2, MaxPerStep: 2, WorldSize: 30, CostSpread: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	daily, dl, da, err := RentDaily(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySolution(inst, dl, da); err != nil {
		t.Errorf("RentDaily infeasible: %v", err)
	}
	long, ll, la, err := BuyLongest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySolution(inst, ll, la); err != nil {
		t.Errorf("BuyLongest infeasible: %v", err)
	}
	if daily <= 0 || long <= 0 {
		t.Error("baseline costs must be positive")
	}
	opt, err := Optimal(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Exact {
		if daily < opt.Cost-1e-6 || long < opt.Cost-1e-6 {
			t.Errorf("baseline beat OPT: daily %v long %v opt %v", daily, long, opt.Cost)
		}
	}
}

func TestMISOrderAblationRuns(t *testing.T) {
	cfg := facConfig()
	rng := rand.New(rand.NewSource(4))
	inst, err := RandomInstance(rng, cfg, GenParams{
		Sites: 4, Steps: 5, Pattern: workload.PatternConstant,
		Base: 2, MaxPerStep: 3, WorldSize: 25, CostSpread: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []MISOrder{ByOpeningTime, ByIndex} {
		alg, err := NewOnline(inst, Options{MISOrder: order})
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Run(); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		leases, assigns := alg.Solution()
		if _, err := VerifySolution(inst, leases, assigns); err != nil {
			t.Errorf("order %d infeasible: %v", order, err)
		}
	}
	if _, err := NewOnline(inst, Options{MISOrder: MISOrder(42)}); err == nil {
		t.Error("unknown MIS order accepted")
	}
}

func TestResetEachRoundStaysFeasible(t *testing.T) {
	cfg := facConfig() // l_max = 4, so 12 steps span 3 rounds
	rng := rand.New(rand.NewSource(77))
	inst, err := RandomInstance(rng, cfg, GenParams{
		Sites: 3, Steps: 12, Pattern: workload.PatternConstant,
		Base: 2, MaxPerStep: 2, WorldSize: 25, CostSpread: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{ResetEachRound: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	leases, assigns := alg.Solution()
	if len(assigns) != inst.NumClients() {
		t.Fatalf("got %d assignments for %d clients (archives lost?)", len(assigns), inst.NumClients())
	}
	cost, err := VerifySolution(inst, leases, assigns)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-alg.TotalCost()) > 1e-6 {
		t.Errorf("verified %v != reported %v", cost, alg.TotalCost())
	}
	// Dual-fitting bound still holds per round.
	if alg.TotalCost() > float64(3+cfg.K())*alg.DualTotal()+1e-6 {
		t.Errorf("cost %v exceeds (3+K)*dual %v under round reset", alg.TotalCost(), float64(3+cfg.K())*alg.DualTotal())
	}
}

func TestStepOrderEnforced(t *testing.T) {
	cfg := facConfig()
	inst, _ := NewInstance(cfg, []metric.Point{{}}, [][]float64{{2, 5}}, nil)
	alg, err := NewOnline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Step(3, []metric.Point{{X: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := alg.Step(2, []metric.Point{{X: 1}}); err == nil {
		t.Error("step regression accepted")
	}
	if err := alg.Step(9, nil); err != nil {
		t.Errorf("empty batch errored: %v", err)
	}
}

func TestInstanceHelpers(t *testing.T) {
	cfg := facConfig()
	inst, _ := NewInstance(cfg, []metric.Point{{}}, [][]float64{{2, 5}},
		[][]metric.Point{{{X: 1}}, {}, {{X: 2}, {X: 3}}})
	if inst.NumClients() != 3 {
		t.Errorf("NumClients = %d, want 3", inst.NumClients())
	}
	if inst.Steps() != 3 {
		t.Errorf("Steps = %d, want 3", inst.Steps())
	}
	cl := inst.Clients()
	if len(cl) != 3 || cl[0].Arrived != 0 || cl[2].Arrived != 2 {
		t.Errorf("Clients() = %+v", cl)
	}
	bc := inst.BatchCounts()
	if len(bc) != 3 || bc[0] != 1 || bc[1] != 0 || bc[2] != 2 {
		t.Errorf("BatchCounts() = %v", bc)
	}
}

func TestVerifySolutionRejects(t *testing.T) {
	cfg := facConfig()
	inst, _ := NewInstance(cfg, []metric.Point{{}}, [][]float64{{2, 5}},
		[][]metric.Point{{{X: 1}}})
	// Wrong assignment count.
	if _, err := VerifySolution(inst, nil, nil); err == nil {
		t.Error("missing assignments accepted")
	}
	// Assignment without covering lease.
	if _, err := VerifySolution(inst, nil, []Assignment{{Facility: 0, K: 0}}); err == nil {
		t.Error("uncovered assignment accepted")
	}
	// Out-of-range lease.
	if _, err := VerifySolution(inst, []FacilityLease{{Facility: 7, K: 0, Start: 0}}, []Assignment{{Facility: 0, K: 0}}); err == nil {
		t.Error("bad lease accepted")
	}
	// Duplicate lease.
	dup := []FacilityLease{{Facility: 0, K: 0, Start: 0}, {Facility: 0, K: 0, Start: 0}}
	if _, err := VerifySolution(inst, dup, []Assignment{{Facility: 0, K: 0}}); err == nil {
		t.Error("duplicate lease accepted")
	}
	// Valid.
	ok := []FacilityLease{{Facility: 0, K: 0, Start: 0}}
	cost, err := VerifySolution(inst, ok, []Assignment{{Facility: 0, K: 0, Dist: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-3) > 1e-9 { // lease 2 + distance 1
		t.Errorf("cost = %v, want 3", cost)
	}
}

func TestMetricGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fs := metric.RandomPoints(rng, 5, 50)
	cs, err := metric.ClusteredPoints(rng, fs, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !metric.CheckQuadrilateral(fs, cs) {
		t.Error("Euclidean points violate quadrilateral inequality")
	}
	if _, err := metric.ClusteredPoints(rng, nil, 5, 1); err == nil {
		t.Error("no centers accepted")
	}
	g := metric.GridPoints(10, 2)
	if len(g) != 10 {
		t.Errorf("GridPoints(10) returned %d points", len(g))
	}
	if metric.Dist(metric.Point{X: 0, Y: 0}, metric.Point{X: 3, Y: 4}) != 5 {
		t.Error("Dist(3-4-5) != 5")
	}
}

// checkDistanceOrder asserts that every site's kept order is a
// permutation of the bidding clients, non-decreasing in distance, with
// rank as its inverse.
func checkDistanceOrder(t *testing.T, o *Online) {
	t.Helper()
	for i := range o.inst.Sites {
		order, rank := o.order[i], o.rank[i]
		if len(order) != len(o.clients) || len(rank) != len(o.clients) {
			t.Fatalf("site %d: order has %d clients, rank %d, want %d", i, len(order), len(rank), len(o.clients))
		}
		for p, j := range order {
			if rank[j] != int32(p) {
				t.Fatalf("site %d: rank[%d] = %d, want %d", i, j, rank[j], p)
			}
			if p > 0 && o.clients[order[p-1]].dists[i] > o.clients[j].dists[i] {
				t.Fatalf("site %d: order not sorted at position %d", i, p)
			}
		}
	}
}

func TestDistanceOrderUnderTies(t *testing.T) {
	cfg := facConfig()
	// Clients on the unit circle around site 0 and on a lattice between
	// sites 1 and 2 tie in distance; some clients coincide outright.
	sites := []metric.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}}
	rng := rand.New(rand.NewSource(5))
	ring := []metric.Point{{X: 1}, {Y: 1}, {X: -1}, {Y: -1}, {X: 4, Y: 2}, {X: 2, Y: 0}, {X: 2, Y: 2}}
	batches := make([][]metric.Point, 24)
	for step := range batches {
		for c := rng.Intn(4); c > 0; c-- {
			batches[step] = append(batches[step], ring[rng.Intn(len(ring))])
		}
	}
	inst, err := NewInstance(cfg, sites, [][]float64{{2, 5}, {3, 6}, {2.5, 5.5}}, batches)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step, b := range batches {
		if err := alg.Step(int64(step), b); err != nil {
			t.Fatal(err)
		}
		checkDistanceOrder(t, alg)
	}
	leases, assigns := alg.Solution()
	if _, err := VerifySolution(inst, leases, assigns); err != nil {
		t.Fatal(err)
	}
}

func TestResetEachRoundClearsDistanceOrder(t *testing.T) {
	cfg := facConfig() // l_max = 4
	sites := []metric.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	inst, err := NewInstance(cfg, sites, [][]float64{{2, 5}, {2, 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{ResetEachRound: true})
	if err != nil {
		t.Fatal(err)
	}
	two := []metric.Point{{X: 1, Y: 1}, {X: 9, Y: 1}}
	for step := int64(0); step < 4; step++ {
		if err := alg.Step(step, two); err != nil {
			t.Fatal(err)
		}
	}
	checkDistanceOrder(t, alg)
	if got := len(alg.order[0]); got != 8 {
		t.Fatalf("before the round boundary the order holds %d clients, want 8", got)
	}
	// Step 4 starts a round: history is dropped even on an empty step.
	if err := alg.Step(4, nil); err != nil {
		t.Fatal(err)
	}
	checkDistanceOrder(t, alg)
	if got := len(alg.order[0]); got != 0 {
		t.Fatalf("after the reset the order holds %d clients, want 0", got)
	}
	if err := alg.Step(5, two[:1]); err != nil {
		t.Fatal(err)
	}
	checkDistanceOrder(t, alg)
	if got := len(alg.order[1]); got != 1 {
		t.Fatalf("first step of the new round: order holds %d clients, want 1", got)
	}
	if _, assigns := alg.Solution(); len(assigns) != 9 {
		t.Fatalf("got %d assignments, want 9 (reset must keep earlier rounds' assignments)", len(assigns))
	}
}

// scratchTightTime is tightTime evaluated from scratch, as a reference:
// the bids summed over all clients in index order and the active clients
// walked in a freshly sorted distance order.
func scratchTightTime(o *Online, i, kk int, tau float64) float64 {
	return literalTightTime(o.inst.FacCosts[i][kk], o.clients, o.ps.alpha, o.ps.frozen, o.ps.k, i, kk, tau)
}

// literalTightTime is the from-scratch tight time of facility (i, kk)
// with cost c over clients whose potentials are alpha and frozen, laid
// out j*k+kk.
func literalTightTime(c float64, clients []clientState, alpha []float64, frozen []bool, k, i, kk int, tau float64) float64 {
	base := 0.0
	for j := range clients {
		if a, d := alpha[j*k+kk], clients[j].dists[i]; frozen[j*k+kk] && a > d {
			base += a - d
		}
	}
	if base >= c-eps {
		return tau
	}
	var active []float64
	for j := range clients {
		if !frozen[j*k+kk] {
			active = append(active, clients[j].dists[i])
		}
	}
	sort.Float64s(active)
	cnt, sumD, q := 0, 0.0, 0
	for q < len(active) && active[q] <= tau {
		cnt++
		sumD += active[q]
		q++
	}
	cur := tau
	for {
		if cnt > 0 {
			tstar := (c - base + sumD) / float64(cnt)
			limit := math.Inf(1)
			if q < len(active) {
				limit = active[q]
			}
			if tstar >= cur-eps && tstar <= limit+eps {
				return math.Max(tstar, cur)
			}
		}
		if q == len(active) {
			return math.Inf(1)
		}
		cur = active[q]
		cnt++
		sumD += active[q]
		q++
	}
}

// TestPhase1IncrementalState checks, after every step of random
// instances with many tied distances, that phase 1's incremental state
// matches a from-scratch evaluation bit for bit: each facility's cached
// bid sum, the skip-link walk, and every cached tight time that a query
// at the final tau would return.
func TestPhase1IncrementalState(t *testing.T) {
	cfg := lease.PowerConfig(3, 4, 0.55)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst, err := RandomInstance(rng, cfg, GenParams{
			Sites: 2 + rng.Intn(5), Steps: 64, Pattern: workload.PatternConstant,
			Base: 2, MaxPerStep: 3, WorldSize: 20, CostSpread: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range inst.Batches {
			for c := range b {
				if rng.Intn(2) == 0 { // snap to a grid: ties
					b[c] = metric.Point{X: math.Round(b[c].X), Y: math.Round(b[c].Y)}
				}
			}
		}
		alg, err := NewOnline(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for step, b := range inst.Batches {
			if err := alg.Step(int64(step), b); err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				continue
			}
			ps := &alg.ps
			// Every potential is frozen at the end of phase 1, the
			// last ones at the final tau.
			tau := 0.0
			for _, a := range ps.alpha {
				tau = math.Max(tau, a)
			}
			for i := range inst.Sites {
				for kk := 0; kk < cfg.K(); kk++ {
					ik := i*ps.k + kk
					want := 0.0
					for j := range alg.clients {
						if a, d := ps.alpha[j*ps.k+kk], alg.clients[j].dists[i]; ps.frozen[j*ps.k+kk] && a > d {
							want += a - d
						}
					}
					if got := alg.bidBase(i, kk); got != want {
						t.Fatalf("seed %d step %d (%d,%d): bid sum %v, from scratch %v", seed, step, i, kk, got, want)
					}
					if ps.isOpen[ik] {
						continue
					}
					want = scratchTightTime(alg, i, kk, tau)
					if got, _ := alg.walkTightTime(i, kk, tau); got != want {
						t.Fatalf("seed %d step %d (%d,%d): walk %v, from scratch %v", seed, step, i, kk, got, want)
					}
					if tc := ps.tight[ik]; tc.valid && tc.at > tau+eps && tc.at != want {
						t.Fatalf("seed %d step %d (%d,%d): cached tight time %v, from scratch %v", seed, step, i, kk, tc.at, want)
					}
				}
			}
		}
	}
}
