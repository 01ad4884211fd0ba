package setcover

import (
	"errors"
	"fmt"
	"math/rand"
)

// Options tunes the online algorithm.
type Options struct {
	// RoundingDraws overrides the number q of independent uniform draws
	// whose minimum forms each triple's rounding threshold µ. The default
	// (0) uses the paper's 2*ceil(log2(n+1)) for PerArrival scope and
	// 2*ceil(log2(δ·n+1)) for PerElement scope (Corollary 3.5). Used by the
	// rounding ablation experiment.
	RoundingDraws int
}

// Online is the randomized algorithm of Section 3.3 (Algorithms 3 and 4):
// each arrival of multiplicity p is served in p layers, and each layer is
// one Fractional.Cover over the element's candidates outside the sets
// already used for it.
type Online struct {
	inst *Instance
	frac Fractional
	// usedByElem tracks, per element, the sets counted for earlier arrivals
	// (PerElement scope only).
	usedByElem map[int]map[int]bool
	lastT      int64
	started    bool
}

// NewOnline builds the online algorithm for an instance. rng drives both
// threshold sampling and nothing else; runs are reproducible per seed.
func NewOnline(inst *Instance, rng *rand.Rand, opts Options) (*Online, error) {
	if !inst.Cfg.IsIntervalModel() {
		return nil, errors.New("setcover: configuration is not in the interval model")
	}
	if rng == nil {
		return nil, errors.New("setcover: nil rng")
	}
	draws := opts.RoundingDraws
	if draws <= 0 {
		base := inst.Fam.N() + 1
		if inst.Scope == PerElement {
			base = inst.Fam.Delta()*inst.Fam.N() + 1
		}
		draws = ThresholdDraws(base)
	}
	return &Online{
		inst:       inst,
		frac:       NewFractional(inst.Costs, rng, draws),
		usedByElem: make(map[int]map[int]bool),
	}, nil
}

// Arrive processes the demand (element e, multiplicity p) at time t,
// leasing sets until p distinct sets containing e are leased over t. It
// checks the whole demand first: a rejected arrival buys nothing and
// leaves the time floor where it was.
func (o *Online) Arrive(t int64, e int, p int) error {
	if o.started && t < o.lastT {
		return fmt.Errorf("setcover: arrival at %d precedes %d", t, o.lastT)
	}
	if e < 0 || e >= o.inst.Fam.N() {
		return fmt.Errorf("setcover: element %d outside universe", e)
	}
	if p < 1 {
		return fmt.Errorf("setcover: multiplicity %d < 1", p)
	}
	// Each layer excludes the sets of the layers before it (and, per
	// element, of earlier arrivals), so the last layer finds a candidate
	// exactly when p sets remain.
	if left := len(o.inst.Fam.Containing(e)) - len(o.usedByElem[e]); p > left {
		return fmt.Errorf("setcover: element %d demands %d sets at %d but only %d are left (infeasible demand)", e, p, t, left)
	}
	o.started, o.lastT = true, t

	// In PerElement scope the exclusion list is the element's own record,
	// so the sets used here stay excluded for its later arrivals.
	exclude := map[int]bool{}
	if o.inst.Scope == PerElement {
		if o.usedByElem[e] == nil {
			o.usedByElem[e] = make(map[int]bool)
		}
		exclude = o.usedByElem[e]
	}
	for layer := 0; layer < p; layer++ {
		// Algorithm 3 (i-Cover): lease a candidate outside the exclusion
		// list and count its set for this layer.
		exclude[o.frac.Cover(o.inst.Candidates(e, t, exclude)).Set] = true
	}
	return nil
}

// Run feeds the whole instance stream through the algorithm.
func (o *Online) Run() error {
	for _, a := range o.inst.Arrivals {
		if err := o.Arrive(a.T, a.Elem, a.P); err != nil {
			return err
		}
	}
	return nil
}

// TotalCost returns the integral solution cost so far.
func (o *Online) TotalCost() float64 { return o.frac.TotalCost() }

// FractionalCost returns the accumulated fractional cost (the quantity
// Lemma 3.1 bounds by O(log(δK)) * OPT).
func (o *Online) FractionalCost() float64 { return o.frac.FractionalCost() }

// Fallbacks returns how often the buy-cheapest fallback fired.
func (o *Online) Fallbacks() int { return o.frac.Fallbacks() }

// Bought returns the leased triples in canonical (set, type, start)
// order, so snapshots built from it are identical across runs.
func (o *Online) Bought() []SetLease { return o.frac.Bought() }

// BoughtSince returns the triples leased after the first n, in purchase
// order, for the streaming adapter's O(new) decision diff.
func (o *Online) BoughtSince(n int) []SetLease { return o.frac.BoughtSince(n) }

// VerifyFeasible replays the instance stream against the final solution and
// checks every arrival is covered by the required number of distinct sets.
// In PerArrival scope distinctness is local to each arrival; in PerElement
// scope (repetitions) the units of all arrivals of an element must be
// matched to pairwise-distinct sets, which is verified with bipartite
// matching per element. It is the package's feasibility oracle, shared by
// tests and the experiment harness.
func VerifyFeasible(inst *Instance, bought []SetLease) error {
	owned := make(map[SetLease]struct{}, len(bought))
	for _, sl := range bought {
		owned[sl] = struct{}{}
	}
	coveredBy := func(e int, t int64) []int {
		var sets []int
		for _, s := range inst.Fam.Containing(e) {
			for k := 0; k < inst.Cfg.K(); k++ {
				sl := SetLease{Set: s, K: k, Start: inst.Cfg.AlignedStart(k, t)}
				if _, ok := owned[sl]; ok {
					sets = append(sets, s)
					break
				}
			}
		}
		return sets
	}

	if inst.Scope == PerArrival {
		for i, a := range inst.Arrivals {
			if got := len(coveredBy(a.Elem, a.T)); got < a.P {
				return fmt.Errorf("setcover: arrival %d (elem %d, t %d) covered by %d sets, need %d", i, a.Elem, a.T, got, a.P)
			}
		}
		return nil
	}

	// PerElement: per element, match demand units (arrival copies) to
	// distinct sets via augmenting paths.
	byElem := map[int][]int{} // element -> arrival indices
	for i, a := range inst.Arrivals {
		byElem[a.Elem] = append(byElem[a.Elem], i)
	}
	for e, idxs := range byElem {
		var units [][]int // candidate set list per demand unit
		for _, i := range idxs {
			a := inst.Arrivals[i]
			sets := coveredBy(e, a.T)
			for u := 0; u < a.P; u++ {
				units = append(units, sets)
			}
		}
		if !matchable(units) {
			return fmt.Errorf("setcover: element %d: %d demand units cannot be matched to distinct leased sets", e, len(units))
		}
	}
	return nil
}

// matchable runs Kuhn's augmenting-path bipartite matching: every unit must
// be assigned a distinct set from its candidate list.
func matchable(units [][]int) bool {
	setOwner := map[int]int{} // set -> unit index
	var try func(u int, visited map[int]bool) bool
	try = func(u int, visited map[int]bool) bool {
		for _, s := range units[u] {
			if visited[s] {
				continue
			}
			visited[s] = true
			owner, taken := setOwner[s]
			if !taken || try(owner, visited) {
				setOwner[s] = u
				return true
			}
		}
		return false
	}
	for u := range units {
		if !try(u, map[int]bool{}) {
			return false
		}
	}
	return true
}
