package setcover

import (
	"fmt"

	"leasing/internal/stream"
)

// Leaser adapts the set-multicover Online algorithm to the unified stream
// protocol. Items are set indices; every Element payload is delegated to
// the native Arrive and the purchases it made are read off the
// algorithm's journal into the decision.
type Leaser struct {
	alg      *Online
	bought   stream.Cursor[SetLease]
	leases   []stream.ItemLease // every purchase, in canonical order
	lastCost float64
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps a set-multicover algorithm as a stream.Leaser.
func NewLeaser(alg *Online) *Leaser {
	return &Leaser{alg: alg, bought: stream.NewCursor(alg.BoughtSince)}
}

// Observe implements stream.Leaser. It accepts Element payloads.
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.Element)
	if !ok {
		return stream.Decision{}, fmt.Errorf("setcover: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Arrive(ev.Time, p.Elem, p.P); err != nil {
		return stream.Decision{}, err
	}
	d := stream.Decision{Cost: l.alg.TotalCost() - l.lastCost}
	l.lastCost = l.alg.TotalCost()
	for _, sl := range l.bought.Next() {
		d.Leases = append(d.Leases, stream.ItemLease{Item: sl.Set, K: sl.K, Start: sl.Start})
	}
	stream.SortItemLeases(d.Leases)
	l.leases = stream.MergeItemLeases(l.leases, d.Leases)
	return d, nil
}

// Cost implements stream.Leaser.
func (l *Leaser) Cost() stream.CostBreakdown {
	return stream.CostBreakdown{Lease: l.alg.TotalCost()}
}

// Snapshot implements stream.Leaser.
func (l *Leaser) Snapshot() stream.Solution {
	return stream.Solution{Leases: append(make([]stream.ItemLease, 0, len(l.leases)), l.leases...)}
}
