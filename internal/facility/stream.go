package facility

import (
	"leasing/internal/core"
	"leasing/internal/stream"
)

// NewLeaser wraps the facility-leasing algorithm as a stream.Leaser.
// Items are site indices; each Batch payload is one Step (an empty batch
// is a valid empty step), and new client connections surface as
// assignments. The cost splits leasing from connection cost.
func NewLeaser(alg *Online) stream.Leaser {
	return stream.Adapt(stream.Domain[stream.Batch]{
		Name:   "facility",
		Step:   func(t int64, p stream.Batch) error { return alg.Step(t, p.Clients) },
		Bought: stream.Project(alg.store.BoughtSince, func(l core.ItemLease) core.ItemLease { return l }),
		Assigned: stream.Project(alg.AssignmentsSince, func(a Assignment) stream.Assignment {
			return stream.Assignment{Item: a.Facility, K: a.K, Cost: a.Dist}
		}),
		Cost: func() stream.CostBreakdown {
			return stream.CostBreakdown{Lease: alg.LeaseCost(), Service: alg.ConnectionCost()}
		},
	})
}
