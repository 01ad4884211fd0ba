package setcover

import "leasing/internal/stream"

// NewLeaser wraps the set-multicover algorithm as a stream.Leaser. Items
// are set indices; each Element payload is one arrival.
func NewLeaser(alg *Online) stream.Leaser {
	return stream.Adapt(stream.Domain[stream.Element]{
		Name: "setcover",
		Step: func(t int64, p stream.Element) error { return alg.Arrive(t, p.Elem, p.P) },
		Bought: stream.Project(alg.BoughtSince, func(sl SetLease) stream.ItemLease {
			return stream.ItemLease{Item: sl.Set, K: sl.K, Start: sl.Start}
		}),
		Cost: stream.LeaseCost(alg.TotalCost),
	})
}
