package parking

import (
	"fmt"

	"leasing/internal/lease"
	"leasing/internal/stream"
)

// Leaser adapts any parking-permit Algorithm (deterministic, randomized or
// predictive) to the unified stream protocol. The single resource is item
// 0; the adapter delegates every demand to the native Arrive and reads
// the leases it bought off a purchase journal.
type Leaser struct {
	alg      Algorithm
	mirror   *stream.Journal[lease.Lease] // non-nil for algorithms without a journal
	bought   stream.Cursor[lease.Lease]
	lastCost float64
}

// purchaseJournal is what the built-in algorithms expose: their store's
// append-only purchase journal, so the adapter reads each new lease
// exactly once instead of rebuilding and sorting the full purchase set
// per buying demand (which made long streams quadratic). External
// Algorithm implementations without it are mirrored into a journal from
// Leases on every buying demand.
type purchaseJournal interface {
	BoughtSince(n int) []lease.Lease
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps a parking-permit algorithm as a stream.Leaser.
func NewLeaser(alg Algorithm) *Leaser {
	l := &Leaser{alg: alg}
	if j, ok := alg.(purchaseJournal); ok {
		l.bought = stream.NewCursor(j.BoughtSince)
	} else {
		l.mirror = &stream.Journal[lease.Lease]{}
		l.bought = stream.NewCursor(l.mirror.Since)
	}
	return l
}

// Observe implements stream.Leaser. It accepts Day payloads (or nil).
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	if _, ok := ev.Payload.(stream.Day); !ok && ev.Payload != nil {
		return stream.Decision{}, fmt.Errorf("parking: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Arrive(ev.Time); err != nil {
		return stream.Decision{}, err
	}
	d := stream.Decision{Cost: l.alg.TotalCost() - l.lastCost}
	// A demand that left the total bit-identical bought nothing, so
	// the mirror only needs a refresh when it moved.
	if l.mirror != nil && l.alg.TotalCost() != l.lastCost {
		for _, ls := range l.alg.Leases() {
			l.mirror.Add(ls)
		}
	}
	l.lastCost = l.alg.TotalCost()
	for _, ls := range l.bought.Next() {
		d.Leases = append(d.Leases, stream.ItemLease{Item: 0, K: ls.K, Start: ls.Start})
	}
	stream.SortItemLeases(d.Leases)
	return d, nil
}

// Cost implements stream.Leaser.
func (l *Leaser) Cost() stream.CostBreakdown {
	return stream.CostBreakdown{Lease: l.alg.TotalCost()}
}

// Snapshot implements stream.Leaser.
func (l *Leaser) Snapshot() stream.Solution {
	ls := l.alg.Leases()
	sol := stream.Solution{Leases: make([]stream.ItemLease, len(ls))}
	for i, x := range ls {
		sol.Leases[i] = stream.ItemLease{Item: 0, K: x.K, Start: x.Start}
	}
	stream.SortItemLeases(sol.Leases)
	return sol
}
