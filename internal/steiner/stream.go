package steiner

import (
	"fmt"

	"leasing/internal/core"
	"leasing/internal/lease"
	"leasing/internal/stream"
)

// NewLeaser wraps the composed Steiner-tree-leasing algorithm as a
// stream.Leaser. Items are edge indices; each Connect payload is one
// communication request. Every edge's parking permit keeps its own
// purchase journal, read through one cursor per edge.
func NewLeaser(alg *Online) stream.Leaser {
	bought := make([]stream.Cursor[lease.Lease], len(alg.perEdge))
	for e, p := range alg.perEdge {
		bought[e] = stream.NewCursor(p.BoughtSince)
	}
	return stream.Adapt(stream.Domain[stream.Connect]{
		Name: "steiner",
		Step: func(t int64, p stream.Connect) error { return alg.Serve(Request{Time: t, S: p.S, T: p.T}) },
		// Only the permits the request fed can have bought.
		Bought: func(dst []core.ItemLease) []core.ItemLease {
			for _, e := range alg.fed {
				for _, ls := range bought[e].Next() {
					dst = append(dst, core.ItemLease{Item: e, K: ls.K, Start: ls.Start})
				}
			}
			return dst
		},
		Cost: stream.LeaseCost(alg.TotalCost),
	})
}

// Events converts requests into Connect events.
func Events(reqs []Request) []stream.Event {
	out := make([]stream.Event, len(reqs))
	for i, r := range reqs {
		out[i] = stream.Event{Time: r.Time, Payload: stream.Connect{S: r.S, T: r.T}}
	}
	return out
}

// VerifySolution checks a set of edge-lease triples serves every request
// of the instance: at each request's step, its terminals must be connected
// by edges holding an active lease. It is the snapshot-level feasibility
// oracle of the stream protocol (the Online type's VerifyFeasible checks
// the same property against its own internal state).
func VerifySolution(inst *Instance, leases []core.ItemLease) error {
	stores := make([]*lease.Store, inst.G.M())
	for e := range stores {
		stores[e] = lease.NewStore(inst.Cfg)
	}
	for _, il := range leases {
		if il.Item < 0 || il.Item >= inst.G.M() {
			return fmt.Errorf("steiner: lease %+v names edge outside [0,%d)", il, inst.G.M())
		}
		if il.K < 0 || il.K >= inst.Cfg.K() {
			return fmt.Errorf("steiner: lease %+v has type outside [0,%d)", il, inst.Cfg.K())
		}
		stores[il.Item].Buy(lease.Lease{K: il.K, Start: il.Start})
	}
	for i, r := range inst.Requests {
		p, err := inst.G.ShortestPath(r.S, r.T, func(e int) float64 {
			if stores[e].Covers(r.Time) {
				return 0
			}
			return 1
		})
		if err != nil || p.Cost != 0 {
			return fmt.Errorf("steiner: request %d (%d,%d) at %d not connected by leased edges", i, r.S, r.T, r.Time)
		}
	}
	return nil
}
