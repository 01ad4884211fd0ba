package facility

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"leasing/internal/core"
	"leasing/internal/lease"
	"leasing/internal/metric"
	"leasing/internal/workload"
)

// eventLoop is the Section 4.3 algorithm written literally, as a
// reference for Online: at every phase-1 event it asks every closed
// facility for its tight time from scratch (literalTightTime) and finds
// the next freeze trigger by scanning every client, and phase 2 checks
// conflicts over every client. It keeps no state across events beyond
// the potentials themselves.
type eventLoop struct {
	inst       *Instance
	store      *core.ItemStore
	misOrder   MISOrder
	resetRound bool
	k          int

	clients []clientState
	assigns []Assignment

	// One step's state, laid out as phaseState's.
	alpha, minOpen, openAt []float64
	frozen                 []bool
	isOpen, isTemp         []bool
}

func newEventLoop(inst *Instance, opts Options) (*eventLoop, error) {
	store, err := core.NewItemStore(inst.Cfg, inst.FacCosts)
	if err != nil {
		return nil, err
	}
	order := opts.MISOrder
	if order == 0 {
		order = ByOpeningTime
	}
	return &eventLoop{inst: inst, store: store, misOrder: order, resetRound: opts.ResetEachRound, k: inst.Cfg.K()}, nil
}

func (r *eventLoop) step(t int64, batch []metric.Point) error {
	if r.resetRound && t%r.inst.Cfg.LMax() == 0 {
		r.clients = r.clients[:0]
	}
	newStart := len(r.clients)
	for _, p := range batch {
		cs := clientState{alphaHat: math.Inf(1), assign: Assignment{Facility: -1}}
		for _, s := range r.inst.Sites {
			cs.dists = append(cs.dists, metric.Dist(s, p))
		}
		r.clients = append(r.clients, cs)
	}
	if len(batch) == 0 {
		return nil
	}
	if err := r.phase1(t); err != nil {
		return err
	}
	r.phase2(t, newStart)
	for j := newStart; j < len(r.clients); j++ {
		r.assigns = append(r.assigns, r.clients[j].assign)
	}
	return nil
}

// trigger is the potential value at which client j's next potential
// freezes, and whether it has an active potential.
func (r *eventLoop) trigger(j int) (float64, bool) {
	at, live := r.clients[j].alphaHat, false
	for kk := 0; kk < r.k; kk++ {
		if !r.frozen[j*r.k+kk] {
			at, live = math.Min(at, r.minOpen[j*r.k+kk]), true
		}
	}
	return at, live
}

func (r *eventLoop) phase1(t int64) error {
	n, m, k := len(r.clients), len(r.inst.Sites), r.k
	r.alpha, r.minOpen, r.frozen = make([]float64, n*k), make([]float64, n*k), make([]bool, n*k)
	r.isOpen, r.isTemp, r.openAt = make([]bool, m*k), make([]bool, m*k), make([]float64, m*k)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			r.isOpen[i*k+kk] = r.store.Has(core.ItemLease{Item: i, K: kk, Start: r.inst.Cfg.AlignedStart(kk, t)})
		}
	}
	for j, cs := range r.clients {
		for kk := 0; kk < k; kk++ {
			r.minOpen[j*k+kk] = math.Inf(1)
			for i, d := range cs.dists {
				if r.isOpen[i*k+kk] && d < r.minOpen[j*k+kk] {
					r.minOpen[j*k+kk] = d
				}
			}
		}
	}
	tight := func(i, kk int, tau float64) float64 {
		return literalTightTime(r.inst.FacCosts[i][kk], r.clients, r.alpha, r.frozen, k, i, kk, tau)
	}
	active := n * k
	tau := 0.0
	maxEvents := 4*(n*k+m*k) + 16
	for ev := 0; active > 0; ev++ {
		if ev > maxEvents {
			return errors.New("event budget exceeded")
		}
		next := math.Inf(1)
		for j := range r.clients {
			if at, live := r.trigger(j); live {
				next = math.Min(next, at)
			}
		}
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				if !r.isOpen[i*k+kk] {
					next = math.Min(next, tight(i, kk, tau))
				}
			}
		}
		if math.IsInf(next, 1) {
			return errors.New("stalled")
		}
		tau = math.Max(tau, next)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				ik := i*k + kk
				if r.isOpen[ik] || tight(i, kk, tau) > tau+eps {
					continue
				}
				r.isOpen[ik], r.isTemp[ik], r.openAt[ik] = true, true, tau
				for j, cs := range r.clients {
					r.minOpen[j*k+kk] = math.Min(r.minOpen[j*k+kk], cs.dists[i])
				}
			}
		}
		var touched []int
		for j := range r.clients {
			if at, live := r.trigger(j); live && at <= tau+eps {
				touched = append(touched, j)
			}
		}
		for _, j := range touched {
			active -= r.cascade(j, tau)
		}
	}
	return nil
}

// cascade is Online.cascade over the literal state.
func (r *eventLoop) cascade(j int, tau float64) int {
	cs := &r.clients[j]
	frozen := 0
	for changed := true; changed; {
		changed = false
		for kk := 0; kk < r.k; kk++ {
			jk := j*r.k + kk
			if r.frozen[jk] {
				continue
			}
			byFacility := r.minOpen[jk] <= tau+eps
			if !byFacility && cs.alphaHat > tau+eps {
				continue
			}
			r.frozen[jk], r.alpha[jk] = true, tau
			frozen++
			changed = true
			if byFacility && math.IsInf(cs.alphaHat, 1) {
				best, bestD := -1, math.Inf(1)
				for i, d := range cs.dists {
					if r.isOpen[i*r.k+kk] && d < bestD {
						best, bestD = i, d
					}
				}
				cs.alphaHat = tau
				cs.assign = Assignment{Facility: best, K: kk, Dist: bestD}
			}
		}
	}
	return frozen
}

func (r *eventLoop) phase2(t int64, newStart int) {
	m, k := len(r.inst.Sites), r.k
	conflict := func(kk, i1, i2 int) bool {
		for j, cs := range r.clients {
			if a := r.alpha[j*k+kk]; a > cs.dists[i1]+eps && a > cs.dists[i2]+eps {
				return true
			}
		}
		return false
	}
	selected := make([]bool, m*k)
	for kk := 0; kk < k; kk++ {
		var temp []int
		for i := 0; i < m; i++ {
			switch {
			case r.isTemp[i*k+kk]:
				temp = append(temp, i)
			case r.isOpen[i*k+kk]:
				selected[i*k+kk] = true
			}
		}
		if r.misOrder == ByOpeningTime {
			sort.SliceStable(temp, func(a, b int) bool { return r.openAt[temp[a]*k+kk] < r.openAt[temp[b]*k+kk] })
		}
		for _, i := range temp {
			free := true
			for i2 := 0; i2 < m; i2++ {
				if i2 != i && selected[i2*k+kk] && conflict(kk, i, i2) {
					free = false
					break
				}
			}
			if free {
				selected[i*k+kk] = true
				if _, err := r.store.Buy(core.ItemLease{Item: i, K: kk, Start: r.inst.Cfg.AlignedStart(kk, t)}); err != nil {
					panic(err)
				}
			}
		}
	}
	for j := newStart; j < len(r.clients); j++ {
		cs := &r.clients[j]
		i, kk := cs.assign.Facility, cs.assign.K
		if i >= 0 && selected[i*k+kk] {
			continue
		}
		bestI, bestD := -1, math.Inf(1)
		for i2 := 0; i2 < m; i2++ {
			if i2 != i && selected[i2*k+kk] && conflict(kk, i, i2) && cs.dists[i2] < bestD {
				bestI, bestD = i2, cs.dists[i2]
			}
		}
		if bestI < 0 {
			for i2 := 0; i2 < m; i2++ {
				if selected[i2*k+kk] && cs.dists[i2] < bestD {
					bestI, bestD = i2, cs.dists[i2]
				}
			}
		}
		cs.assign = Assignment{Facility: bestI, K: kk, Dist: bestD}
	}
}

// matchEventLoop runs Online and the literal event loop side by side
// over inst and fails on the first step after which they differ in any
// potential, opening time, temporary opening, cap, assignment or lease.
func matchEventLoop(tb testing.TB, inst *Instance, opts Options) {
	tb.Helper()
	o, err := NewOnline(inst, opts)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := newEventLoop(inst, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for step, b := range inst.Batches {
		errO, errR := o.Step(int64(step), b), r.step(int64(step), b)
		if (errO != nil) != (errR != nil) {
			tb.Fatalf("step %d: Online error %v, event loop error %v", step, errO, errR)
		}
		if errO != nil {
			return
		}
		if len(b) == 0 {
			continue
		}
		if err := diffEventLoop(o, r); err != nil {
			tb.Fatalf("step %d (%+v): %v", step, opts, err)
		}
	}
}

func diffEventLoop(o *Online, r *eventLoop) error {
	ps, k := &o.ps, r.k
	if len(o.clients) != len(r.clients) {
		return fmt.Errorf("%d bidding clients, event loop %d", len(o.clients), len(r.clients))
	}
	for j := range r.clients {
		for kk := 0; kk < k; kk++ {
			if got, want := ps.alpha[j*k+kk], r.alpha[j*k+kk]; got != want || !ps.frozen[j*k+kk] {
				return fmt.Errorf("α[%d][%d] = %v (frozen %v), event loop %v", j, kk, got, ps.frozen[j*k+kk], want)
			}
		}
		if got, want := o.clients[j].alphaHat, r.clients[j].alphaHat; got != want {
			return fmt.Errorf("cap α̂[%d] = %v, event loop %v", j, got, want)
		}
	}
	for ik := range r.isTemp {
		if ps.isOpen[ik] != r.isOpen[ik] || ps.isTemp[ik] != r.isTemp[ik] || ps.openAt[ik] != r.openAt[ik] {
			return fmt.Errorf("facility (%d,%d): open %v temp %v at %v, event loop open %v temp %v at %v",
				ik/k, ik%k, ps.isOpen[ik], ps.isTemp[ik], ps.openAt[ik], r.isOpen[ik], r.isTemp[ik], r.openAt[ik])
		}
	}
	if len(o.assigns) != len(r.assigns) {
		return fmt.Errorf("%d assignments, event loop %d", len(o.assigns), len(r.assigns))
	}
	for j := range r.assigns {
		if o.assigns[j] != r.assigns[j] {
			return fmt.Errorf("assignment %d = %+v, event loop %+v", j, o.assigns[j], r.assigns[j])
		}
	}
	got, want := o.store.Leases(), r.store.Leases()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("leases %v, event loop %v", got, want)
	}
	return nil
}

// phase1Options are the option sets every equivalence check runs under.
var phase1Options = []Options{{}, {MISOrder: ByIndex}, {ResetEachRound: true}}

// TestPhase1MatchesEventLoop checks Online against the literal event
// loop after every step of random instances whose clients often tie in
// distance (grid-snapped) or coincide outright.
func TestPhase1MatchesEventLoop(t *testing.T) {
	cfg := lease.PowerConfig(3, 4, 0.55)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst, err := RandomInstance(rng, cfg, GenParams{
			Sites: 2 + rng.Intn(4), Steps: 40, Pattern: workload.PatternConstant,
			Base: 2, MaxPerStep: 3, WorldSize: 20, CostSpread: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var prev []metric.Point
		for _, b := range inst.Batches {
			for c := range b {
				switch rng.Intn(4) {
				case 0, 1: // snap to a grid: ties
					b[c] = metric.Point{X: math.Round(b[c].X), Y: math.Round(b[c].Y)}
				case 2: // coincide with an earlier client
					if len(prev) > 0 {
						b[c] = prev[rng.Intn(len(prev))]
					}
				}
				prev = append(prev, b[c])
			}
		}
		for _, opts := range phase1Options {
			matchEventLoop(t, inst, opts)
		}
	}
}

// FuzzPhase1 checks Online against the literal event loop on tiny
// instances decoded from the input: 2–4 sites and at most 12 steps of up
// to 3 clients, each point either on a half-unit grid or off it.
func FuzzPhase1(f *testing.F) {
	f.Add(uint8(0), []byte{0x12, 0x80, 0x34, 0x91, 0x56, 0x07, 2, 0x81, 0x81, 0x10, 0x95, 3, 0x81, 0x81, 0x82, 0x82, 0x01, 0x02})
	f.Add(uint8(5), []byte{0x80, 0x80, 0x90, 0x90, 0xa0, 0x80, 0x40, 0x40, 3, 0x84, 0x84, 0x84, 0x84, 0x8c, 0x8c, 1, 0x88, 0x88})
	f.Add(uint8(10), []byte{0x01, 0xff, 0x7f, 0x30, 0x30, 0x30, 0x30, 2, 0x22, 0x33, 0x44, 0x55, 0, 3, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	cfg := lease.PowerConfig(3, 4, 0.55)
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// A byte with its high bit set is a half-unit grid coordinate in
		// [0, 15.5]; any other is off the grid in [0, 15.5).
		coord := func() float64 {
			b := next()
			if b&0x80 != 0 {
				return float64(b&0x1f) / 2
			}
			return float64(b)*0.1217 + 0.0131
		}
		point := func() metric.Point { return metric.Point{X: coord(), Y: coord()} }
		m := 2 + int(shape)%3
		sites := make([]metric.Point, m)
		costs := make([][]float64, m)
		for i := range sites {
			sites[i] = point()
			f := 1 + float64(next())/256
			for kk := 0; kk < cfg.K(); kk++ {
				costs[i] = append(costs[i], cfg.Cost(kk)*f)
			}
		}
		var batches [][]metric.Point
		for len(data) > 0 && len(batches) < 12 {
			batch := []metric.Point{}
			for c := int(next()) % 4; c > 0; c-- {
				batch = append(batch, point())
			}
			batches = append(batches, batch)
		}
		inst, err := NewInstance(cfg, sites, costs, batches)
		if err != nil {
			t.Fatal(err)
		}
		matchEventLoop(t, inst, phase1Options[int(shape)/3%len(phase1Options)])
	})
}
