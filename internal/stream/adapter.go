package stream

import (
	"errors"
	"fmt"
	"slices"
)

// ErrPayload is wrapped by the error a Leaser returns for an event whose
// payload type its domain does not take.
var ErrPayload = errors.New("unsupported payload")

// Domain is what one domain supplies to Adapt: its native step, where
// its purchases (and assignments, if it makes any) appear, and its cost.
// P is the payload type the domain takes; Day also takes a nil payload.
type Domain[P Payload] struct {
	// Name prefixes the domain's error messages.
	Name string
	// Step runs the native algorithm on one demand.
	Step func(t int64, p P) error
	// Bought appends the purchases made since its previous call, in any
	// order, to dst and returns it. Each purchase must appear once.
	Bought func(dst []ItemLease) []ItemLease
	// Assigned appends the assignments made since its previous call, in
	// arrival order, to dst and returns it. A domain that assigns
	// nothing leaves it nil, and its snapshots carry no assignment list.
	Assigned func(dst []Assignment) []Assignment
	// Cost returns the cumulative cost.
	Cost func() CostBreakdown
	// StepCost, when set, returns the cost of the step just taken as the
	// decision's cost. Without it the decision's cost is the change in
	// Cost().Total(), which can differ in the last bit from a step cost
	// the algorithm adds up itself: (total+c)-total is not always c.
	StepCost func() float64
}

// LeaseCost returns a Domain.Cost for a domain whose whole cost is
// leasing cost, reported by total.
func LeaseCost(total func() float64) func() CostBreakdown {
	return func() CostBreakdown { return CostBreakdown{Lease: total()} }
}

// Project returns a reader of the append-only log that since reads (see
// Cursor): each call appends the entries logged since the previous call,
// converted by f, to dst and returns it. It is the Domain.Bought or
// Domain.Assigned of a domain that journals its purchases or assignments.
func Project[T, U any](since func(n int) []T, f func(T) U) func(dst []U) []U {
	c := NewCursor(since)
	return func(dst []U) []U {
		news := c.Next()
		if len(news) == 0 {
			return dst
		}
		dst = slices.Grow(dst, len(news))
		for _, x := range news {
			dst = append(dst, f(x))
		}
		return dst
	}
}

// Adapt returns the Leaser of a domain. Its decisions carry the step's
// purchases in canonical order (nil when nothing was bought) and its
// assignments in arrival order. Snapshots keep a canonical lease list
// and merge the purchases made since the previous snapshot into it, so a
// snapshot costs O(L + p log p) for L leases of which p are new.
func Adapt[P Payload](d Domain[P]) Leaser { return &adapter[P]{dom: d} }

type adapter[P Payload] struct {
	dom  Domain[P]
	last float64 // Cost().Total() after the previous step, without StepCost
	// leases holds every purchase: leases[:sorted] in canonical order,
	// then the purchases made since the last snapshot.
	leases  []ItemLease
	sorted  int
	assigns []Assignment // every assignment, in arrival order
}

func (a *adapter[P]) Observe(ev Event) (Decision, error) {
	p, ok := ev.Payload.(P)
	if _, day := any(p).(Day); !ok && !(day && ev.Payload == nil) {
		return Decision{}, fmt.Errorf("%s: %w %T", a.dom.Name, ErrPayload, ev.Payload)
	}
	if err := a.dom.Step(ev.Time, p); err != nil {
		return Decision{}, err
	}
	var d Decision
	if a.dom.StepCost != nil {
		d.Cost = a.dom.StepCost()
	} else {
		total := a.dom.Cost().Total()
		d.Cost, a.last = total-a.last, total
	}
	d.Leases = a.dom.Bought(nil)
	SortItemLeases(d.Leases)
	a.leases = append(a.leases, d.Leases...)
	if a.dom.Assigned != nil {
		d.Assignments = a.dom.Assigned(nil)
		a.assigns = append(a.assigns, d.Assignments...)
	}
	return d, nil
}

func (a *adapter[P]) Cost() CostBreakdown { return a.dom.Cost() }

func (a *adapter[P]) Snapshot() Solution {
	sol := Solution{Leases: append(make([]ItemLease, 0, len(a.leases)), a.leases[:a.sorted]...)}
	if news := a.leases[a.sorted:]; len(news) > 0 {
		SortItemLeases(news)
		sol.Leases = MergeItemLeases(sol.Leases, news)
		copy(a.leases, sol.Leases)
		a.sorted = len(a.leases)
	}
	if a.dom.Assigned != nil {
		sol.Assignments = append(make([]Assignment, 0, len(a.assigns)), a.assigns...)
	}
	return sol
}
