package deadline

import (
	"fmt"

	"leasing/internal/lease"
	"leasing/internal/setcover"
	"leasing/internal/stream"
)

// Leaser adapts the OLD primal-dual Online algorithm to the unified
// stream protocol. The single resource is item 0; each Window payload is
// one flexible client (t, d).
type Leaser struct {
	alg      *Online
	bought   stream.Cursor[lease.Lease]
	lastCost float64
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps an OLD algorithm as a stream.Leaser.
func NewLeaser(alg *Online) *Leaser {
	return &Leaser{alg: alg, bought: stream.NewCursor(alg.BoughtSince)}
}

// Observe implements stream.Leaser. It accepts Window payloads.
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.Window)
	if !ok {
		return stream.Decision{}, fmt.Errorf("deadline: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Arrive(ev.Time, p.D); err != nil {
		return stream.Decision{}, err
	}
	d := stream.Decision{Cost: l.alg.TotalCost() - l.lastCost}
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

// SCLDStream adapts the SCLD randomized algorithm to the unified stream
// protocol. Items are set indices; each ElementWindow payload is one
// deadline demand (element, window).
type SCLDStream struct {
	alg      *SCLDOnline
	bought   stream.Cursor[setcover.SetLease]
	leases   []stream.ItemLease // every purchase, in canonical order
	lastCost float64
}

var _ stream.Leaser = (*SCLDStream)(nil)

// NewSCLDStream wraps an SCLD algorithm as a stream.Leaser.
func NewSCLDStream(alg *SCLDOnline) *SCLDStream {
	return &SCLDStream{alg: alg, bought: stream.NewCursor(alg.BoughtSince)}
}

// Observe implements stream.Leaser. It accepts ElementWindow payloads.
func (l *SCLDStream) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.ElementWindow)
	if !ok {
		return stream.Decision{}, fmt.Errorf("deadline: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Arrive(ev.Time, p.Elem, p.D); err != nil {
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
func (l *SCLDStream) Cost() stream.CostBreakdown {
	return stream.CostBreakdown{Lease: l.alg.TotalCost()}
}

// Snapshot implements stream.Leaser.
func (l *SCLDStream) Snapshot() stream.Solution {
	return stream.Solution{Leases: append(make([]stream.ItemLease, 0, len(l.leases)), l.leases...)}
}

// SCLDEvents converts SCLD arrivals into ElementWindow events.
func SCLDEvents(arrivals []SCLDArrival) []stream.Event {
	out := make([]stream.Event, len(arrivals))
	for i, a := range arrivals {
		out[i] = stream.Event{Time: a.T, Payload: stream.ElementWindow{Elem: a.Elem, D: a.D}}
	}
	return out
}
