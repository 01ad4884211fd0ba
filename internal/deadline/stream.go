package deadline

import (
	"leasing/internal/lease"
	"leasing/internal/setcover"
	"leasing/internal/stream"
)

// NewLeaser wraps the OLD primal-dual algorithm as a stream.Leaser. The
// single resource is item 0; each Window payload is one flexible client
// (t, d).
func NewLeaser(alg *Online) stream.Leaser {
	return stream.Adapt(stream.Domain[stream.Window]{
		Name: "deadline",
		Step: func(t int64, p stream.Window) error { return alg.Arrive(t, p.D) },
		Bought: stream.Project(alg.BoughtSince, func(ls lease.Lease) stream.ItemLease {
			return stream.ItemLease{Item: 0, K: ls.K, Start: ls.Start}
		}),
		Cost: stream.LeaseCost(alg.TotalCost),
	})
}

// NewSCLDStream wraps the SCLD randomized algorithm as a stream.Leaser.
// Items are set indices; each ElementWindow payload is one deadline
// demand (element, window).
func NewSCLDStream(alg *SCLDOnline) stream.Leaser {
	return stream.Adapt(stream.Domain[stream.ElementWindow]{
		Name: "deadline",
		Step: func(t int64, p stream.ElementWindow) error { return alg.Arrive(t, p.Elem, p.D) },
		Bought: stream.Project(alg.BoughtSince, func(sl setcover.SetLease) stream.ItemLease {
			return stream.ItemLease{Item: sl.Set, K: sl.K, Start: sl.Start}
		}),
		Cost: stream.LeaseCost(alg.TotalCost),
	})
}

// SCLDEvents converts SCLD arrivals into ElementWindow events.
func SCLDEvents(arrivals []SCLDArrival) []stream.Event {
	out := make([]stream.Event, len(arrivals))
	for i, a := range arrivals {
		out[i] = stream.Event{Time: a.T, Payload: stream.ElementWindow{Elem: a.Elem, D: a.D}}
	}
	return out
}
