package setcover

import (
	"math"
	"math/rand"

	"leasing/internal/stream"
)

// Fractional is the fractional cover of Section 3.3 with its randomized
// rounding (Algorithm 3, i-Cover, given its candidate list). Online runs
// it once per demand layer (Algorithm 4) and package deadline's
// SCLDOnline once per deadline demand (Algorithm 5). It keeps a monotone
// fraction and a lazily drawn rounding threshold per candidate triple,
// the leased triples, and the integral and fractional costs. Callers
// differ only in the candidate list they pass to Cover.
type Fractional struct {
	costs [][]float64
	rng   *rand.Rand
	draws int
	// index maps a triple to its slot in cells; slots holds the current
	// candidates' slots and is reused across calls.
	index     map[SetLease]int32
	cells     []cell
	slots     []int32
	bought    stream.Journal[SetLease]
	total     float64
	fracCost  float64
	fallbacks int
}

// cell is one triple's state. Its threshold mu is drawn on first use;
// a threshold can be exactly 0, so drawn records whether it was.
type cell struct {
	frac, mu float64
	drawn    bool
}

// NewFractional returns an empty cover over per-set, per-type costs.
// Each triple's threshold is the minimum of draws uniforms from rng.
func NewFractional(costs [][]float64, rng *rand.Rand, draws int) Fractional {
	return Fractional{costs: costs, rng: rng, draws: draws, index: make(map[SetLease]int32)}
}

// ThresholdDraws returns the paper's draw count 2⌈log2 base⌉, at least 1.
func ThresholdDraws(base int) int {
	return max(1, 2*int(math.Ceil(math.Log2(float64(base)))))
}

// Cover serves one demand whose non-empty candidate list is cands. It
// raises the candidates' fractions multiplicatively until they sum to at
// least one, leases every unleased candidate whose fraction clears its
// threshold (drawing thresholds in candidate order, for unleased
// candidates only), and, if no candidate is leased, leases the cheapest
// one. It returns the cheapest leased candidate, the first on ties.
func (f *Fractional) Cover(cands []SetLease) SetLease {
	if len(cands) == 0 {
		// The raise below would never reach mass one. Callers reject an
		// arrival that leaves some layer without candidates before it
		// buys anything.
		panic("setcover: Cover needs at least one candidate")
	}
	slots := f.slots[:0]
	sum := 0.0
	for _, c := range cands {
		i, ok := f.index[c]
		if !ok {
			i = int32(len(f.cells))
			f.index[c] = i
			f.cells = append(f.cells, cell{})
		}
		slots = append(slots, i)
		sum += f.cells[i].frac
	}
	f.slots = slots

	// Fractional phase: multiplicative increments until the candidate mass
	// reaches one.
	n := float64(len(cands))
	for sum < 1 {
		sum = 0
		for j, c := range cands {
			cost := f.costs[c.Set][c.K]
			cl := &f.cells[slots[j]]
			nf := cl.frac*(1+1/cost) + 1/(n*cost)
			f.fracCost += (nf - cl.frac) * cost
			cl.frac = nf
			sum += nf
		}
	}

	// Rounding phase: lease every candidate whose fraction clears its
	// threshold; remember the cheapest leased one (new or bought before).
	chosen, chosenCost := -1, math.Inf(1)
	for j, c := range cands {
		if !f.bought.Has(c) {
			cl := &f.cells[slots[j]]
			if !cl.drawn {
				cl.mu, cl.drawn = f.draw(), true
			}
			if !(cl.frac > cl.mu) {
				continue
			}
			f.buy(c)
		}
		if cost := f.costs[c.Set][c.K]; cost < chosenCost {
			chosen, chosenCost = j, cost
		}
	}
	if chosen >= 0 {
		return cands[chosen]
	}

	// Fallback: lease the cheapest candidate to guarantee feasibility. The
	// analysis shows this fires with probability at most 1/n^2.
	f.fallbacks++
	best := cands[0]
	bestCost := f.costs[best.Set][best.K]
	for _, c := range cands[1:] {
		if cost := f.costs[c.Set][c.K]; cost < bestCost {
			best, bestCost = c, cost
		}
	}
	f.buy(best)
	return best
}

// draw samples a rounding threshold: the minimum of draws uniforms.
func (f *Fractional) draw() float64 {
	mu := 1.0
	for i := 0; i < f.draws; i++ {
		if u := f.rng.Float64(); u < mu {
			mu = u
		}
	}
	return mu
}

func (f *Fractional) buy(sl SetLease) {
	if f.bought.Add(sl) {
		f.total += f.costs[sl.Set][sl.K]
	}
}

// TotalCost returns the integral solution cost so far.
func (f *Fractional) TotalCost() float64 { return f.total }

// FractionalCost returns the accumulated fractional cost (the quantity
// Lemma 3.1 and Lemma 5.5 bound).
func (f *Fractional) FractionalCost() float64 { return f.fracCost }

// Fallbacks returns how often the buy-cheapest fallback fired.
func (f *Fractional) Fallbacks() int { return f.fallbacks }

// Bought returns the leased triples in canonical (set, type, start)
// order, so snapshots built from it are identical across runs.
func (f *Fractional) Bought() []SetLease {
	out := append(make([]SetLease, 0, f.bought.Len()), f.bought.Since(0)...)
	SortSetLeases(out)
	return out
}

// BoughtSince returns the triples leased after the first n, in purchase
// order, for the streaming adapter's O(new) decision diff.
func (f *Fractional) BoughtSince(n int) []SetLease { return f.bought.Since(n) }
