package parking

import (
	"leasing/internal/lease"
	"leasing/internal/stream"
)

// purchaseJournal is what the built-in algorithms expose: their store's
// append-only purchase journal, so the adapter reads each new lease
// exactly once instead of rebuilding and sorting the full purchase set
// per buying demand (which made long streams quadratic). External
// Algorithm implementations without it are mirrored into a journal from
// Leases on every buying demand.
type purchaseJournal interface {
	BoughtSince(n int) []lease.Lease
}

// NewLeaser wraps any parking-permit Algorithm (deterministic, randomized
// or predictive) as a stream.Leaser taking Day payloads (or nil). The
// single resource is item 0.
func NewLeaser(alg Algorithm) stream.Leaser {
	step := func(t int64, _ stream.Day) error { return alg.Arrive(t) }
	var since func(n int) []lease.Lease
	if j, ok := alg.(purchaseJournal); ok {
		since = j.BoughtSince
	} else {
		mirror := &stream.Journal[lease.Lease]{}
		since = mirror.Since
		last := 0.0
		step = func(t int64, _ stream.Day) error {
			if err := alg.Arrive(t); err != nil {
				return err
			}
			// A demand that left the total bit-identical bought nothing,
			// so the mirror only needs a refresh when it moved.
			if c := alg.TotalCost(); c != last {
				last = c
				for _, ls := range alg.Leases() {
					mirror.Add(ls)
				}
			}
			return nil
		}
	}
	return stream.Adapt(stream.Domain[stream.Day]{
		Name: "parking",
		Step: step,
		Bought: stream.Project(since, func(ls lease.Lease) stream.ItemLease {
			return stream.ItemLease{Item: 0, K: ls.K, Start: ls.Start}
		}),
		Cost: stream.LeaseCost(alg.TotalCost),
	})
}
