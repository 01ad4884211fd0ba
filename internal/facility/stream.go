package facility

import (
	"fmt"

	"leasing/internal/core"
	"leasing/internal/stream"
)

// Leaser adapts the facility-leasing Online algorithm to the unified
// stream protocol. Items are site indices; each Batch payload is one
// Step, and new client connections surface as Decision assignments.
// Purchases and assignments are read off the algorithm's append-only
// logs, so a decision costs O(new).
type Leaser struct {
	alg      *Online
	bought   stream.Cursor[core.ItemLease]
	assigned stream.Cursor[Assignment]
	assigns  []stream.Assignment // every assignment so far, for snapshots
	lastCost float64
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps a facility-leasing algorithm as a stream.Leaser.
func NewLeaser(alg *Online) *Leaser {
	return &Leaser{
		alg:      alg,
		bought:   stream.NewCursor(alg.store.BoughtSince),
		assigned: stream.NewCursor(alg.AssignmentsSince),
	}
}

// Observe implements stream.Leaser. It accepts Batch payloads (an empty
// batch is a valid empty step).
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.Batch)
	if !ok {
		return stream.Decision{}, fmt.Errorf("facility: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Step(ev.Time, p.Clients); err != nil {
		return stream.Decision{}, err
	}
	d := stream.Decision{Cost: l.alg.TotalCost() - l.lastCost}
	l.lastCost = l.alg.TotalCost()
	if bought := l.bought.Next(); len(bought) > 0 {
		d.Leases = append([]core.ItemLease(nil), bought...)
		stream.SortItemLeases(d.Leases)
	}
	for _, a := range l.assigned.Next() {
		d.Assignments = append(d.Assignments, stream.Assignment{Item: a.Facility, K: a.K, Cost: a.Dist})
	}
	l.assigns = append(l.assigns, d.Assignments...)
	return d, nil
}

// Cost implements stream.Leaser, splitting leasing from connection cost.
func (l *Leaser) Cost() stream.CostBreakdown {
	return stream.CostBreakdown{Lease: l.alg.LeaseCost(), Service: l.alg.ConnectionCost()}
}

// Snapshot implements stream.Leaser.
func (l *Leaser) Snapshot() stream.Solution {
	return stream.Solution{
		Leases:      l.alg.store.Leases(),
		Assignments: append(make([]stream.Assignment, 0, len(l.assigns)), l.assigns...),
	}
}
