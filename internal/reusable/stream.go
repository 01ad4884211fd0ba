package reusable

import (
	"leasing/internal/lease"
	"leasing/internal/stream"
)

// NewLeaser wraps the allocator as a stream.Leaser taking Use payloads.
// Items are capacity units; every request produces exactly one
// assignment — (unit, lease type, 0) for a grant, (-1, -1, 0) for a
// rejection — so a Solution carries a positional verdict per request
// that Verify can replay against the instance.
func NewLeaser(alg *Online) stream.Leaser {
	var last struct { // the latest Grant's results
		unit, ktype int
		bought      []lease.Lease
		cost        float64
	}
	return stream.Adapt(stream.Domain[stream.Use]{
		Name: "reusable",
		Step: func(t int64, p stream.Use) (err error) {
			last.unit, last.ktype, last.bought, last.cost, err = alg.Grant(t, p.Dur)
			return err
		},
		Bought: func(dst []stream.ItemLease) []stream.ItemLease {
			for _, b := range last.bought {
				dst = append(dst, stream.ItemLease{Item: last.unit, K: b.K, Start: b.Start})
			}
			return dst
		},
		Assigned: func(dst []stream.Assignment) []stream.Assignment {
			return append(dst, stream.Assignment{Item: last.unit, K: last.ktype})
		},
		Cost:     stream.LeaseCost(alg.TotalCost),
		StepCost: func() float64 { return last.cost },
	})
}
