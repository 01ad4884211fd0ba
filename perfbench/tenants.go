package main

import (
	"fmt"
	"math/rand"

	"leasing"
	"leasing/internal/sim"
	"leasing/internal/wire"
	gen "leasing/internal/workload"
)

// domains are the six leasing domains the load generator synthesizes,
// named as the wire protocol names them; per-layer metrics use these
// names for the leasers' Observe time.
var domains = []string{
	wire.DomainParking, wire.DomainDeadline, wire.DomainSetCover,
	wire.DomainFacility, wire.DomainSteiner, wire.DomainReusable,
}

// tenant is one synthetic session: its event stream (in process and wire
// form), a factory for a fresh deterministic leaser, and the wire spec
// that opens the same session remotely. Both build the same algorithm.
type tenant struct {
	name   string
	domain string
	events []leasing.Event
	wevs   []leasing.RemoteEvent
	fresh  func() (leasing.Leaser, error)
	spec   leasing.RemoteOpenRequest
}

// reference is a tenant's expected output from a single-threaded
// Replay of its events: the run in the wire's exact binary encoding
// (bit-exact floats, nil distinct from empty) and the snapshot rendered
// with %#v, so comparisons are byte for byte.
type reference struct {
	run  []byte
	cost leasing.CostBreakdown
	snap string
}

// replayReference computes t's reference output.
func replayReference(t *tenant) (reference, error) {
	l, err := t.fresh()
	if err != nil {
		return reference{}, err
	}
	run, err := leasing.Replay(l, t.events)
	if err != nil {
		return reference{}, err
	}
	return reference{run: wire.AppendRunBinary(nil, run), cost: run.Final, snap: fmt.Sprintf("%#v", l.Snapshot())}, nil
}

// synthesize builds n tenants cycling through kinds, each stream exactly
// events long, deterministically from seed. Every tenant draws from its
// own seed, so a tenant does not depend on the others.
func synthesize(seed int64, n, events int, kinds []string) ([]*tenant, error) {
	cfg := leasing.PowerLeaseConfig(3, 4, 0.55)
	ts := make([]*tenant, n)
	for i := range ts {
		t, err := buildTenant(i, kinds[i%len(kinds)], cfg, sim.TrialSeed(seed, i), events)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		if len(t.events) != events {
			return nil, fmt.Errorf("tenant %s: %d events, want %d", t.name, len(t.events), events)
		}
		if t.wevs, err = leasing.WireEvents(t.events); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", t.name, err)
		}
		ts[i] = t
	}
	return ts, nil
}

// buildTenant synthesizes one tenant of the given domain with exactly
// n events. Demand arrives on roughly half the steps of a horizon long
// enough for n events; the raw arrivals are cut to the first n before
// any instance is built, so the stream length is fixed while the
// arrival pattern matches cmd/leaseload's.
func buildTenant(i int, domain string, cfg *leasing.LeaseConfig, tseed int64, n int) (*tenant, error) {
	rng := rand.New(rand.NewSource(tseed))
	horizon := int64(4*n + 64)
	arr, err := gen.NewArrival("constant", 0.5, 64)
	if err != nil {
		return nil, err
	}
	types := leasing.WireLeaseTypes(cfg)
	name := fmt.Sprintf("t%04d-%s", i, domain)
	switch domain {
	case wire.DomainParking:
		days := firstN(gen.ArrivalDays(rng, horizon, arr), n)
		return &tenant{
			name: name, domain: domain, events: leasing.DayEvents(days),
			fresh: func() (leasing.Leaser, error) {
				alg, err := leasing.NewDeterministicParkingPermit(cfg)
				if err != nil {
					return nil, err
				}
				return leasing.NewParkingStream(alg), nil
			},
			spec: leasing.RemoteOpenRequest{Domain: wire.DomainParking, Types: types},
		}, nil

	case wire.DomainDeadline:
		clients := firstN(gen.DeadlineArrivals(rng, horizon, arr, 12), n)
		return &tenant{
			name: name, domain: domain, events: leasing.WindowEvents(clients),
			fresh: func() (leasing.Leaser, error) { return leasing.NewDeadlineStream(cfg) },
			spec:  leasing.RemoteOpenRequest{Domain: wire.DomainDeadline, Types: types},
		}, nil

	case wire.DomainSetCover:
		const elems, sets, delta = 32, 20, 3
		zipf, err := gen.NewZipf(rng, elems, 1.5)
		if err != nil {
			return nil, err
		}
		arrivals := firstN(gen.ElementArrivals(rng, horizon, arr,
			zipf.Draw, func() int { return 1 + rng.Intn(2) }), n)
		fam, err := leasing.RandomSetFamily(rng, elems, sets, delta)
		if err != nil {
			return nil, err
		}
		costs := leasing.RandomSetCosts(rng, sets, cfg, 0.5)
		inst, err := leasing.NewSetCoverInstance(fam, cfg, costs, arrivals, leasing.PerArrival)
		if err != nil {
			return nil, err
		}
		members := make([][]int, fam.M())
		for s := range members {
			members[s] = fam.Set(s)
		}
		warr := make([]wire.ElementArrival, len(arrivals))
		for j, a := range arrivals {
			warr[j] = wire.ElementArrival{T: a.T, Elem: a.Elem, P: a.P}
		}
		return &tenant{
			name: name, domain: domain, events: leasing.ElementEvents(arrivals),
			fresh: func() (leasing.Leaser, error) {
				return leasing.NewSetCoverStream(inst, rand.New(rand.NewSource(tseed+1)))
			},
			spec: leasing.RemoteOpenRequest{
				Domain: wire.DomainSetCover, Types: types, Seed: tseed + 1,
				SetCover: &wire.SetCoverSpec{Elements: elems, Sets: members, Costs: costs, Arrivals: warr},
			},
		}, nil

	case wire.DomainFacility:
		// One batch event per step, each with zero to two clients near
		// one of a handful of sites.
		const sitesN = 6
		sites := make([]leasing.Point, sitesN)
		for s := range sites {
			sites[s] = leasing.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		facCosts := make([][]float64, sitesN)
		for s := range facCosts {
			row := make([]float64, cfg.K())
			f := 1 + rng.Float64()*0.5
			for k := range row {
				row[k] = cfg.Cost(k) * f
			}
			facCosts[s] = row
		}
		batches := make([][]leasing.Point, n)
		for t := range batches {
			for c := rng.Intn(3); c > 0; c-- {
				s := sites[rng.Intn(sitesN)]
				batches[t] = append(batches[t], leasing.Point{X: s.X + rng.Float64()*4, Y: s.Y + rng.Float64()*4})
			}
		}
		inst, err := leasing.NewFacilityInstance(cfg, sites, facCosts, batches)
		if err != nil {
			return nil, err
		}
		wb := make([][]wire.Point, len(batches))
		for t, b := range batches {
			if b != nil {
				wb[t] = wirePoints(b)
			}
		}
		return &tenant{
			name: name, domain: domain, events: leasing.BatchEvents(batches),
			fresh: func() (leasing.Leaser, error) { return leasing.NewFacilityStream(inst) },
			spec: leasing.RemoteOpenRequest{
				Domain: wire.DomainFacility, Types: types,
				Facility: &wire.FacilitySpec{Sites: wirePoints(sites), Costs: facCosts, Batches: wb},
			},
		}, nil

	case wire.DomainSteiner:
		const terminals = 16
		g, err := leasing.RandomConnectedGraph(rng, terminals, 3*terminals, 1, 10)
		if err != nil {
			return nil, err
		}
		connects, err := gen.ConnectArrivals(rng, horizon, arr, terminals)
		if err != nil {
			return nil, err
		}
		connects = firstN(connects, n)
		reqs := make([]leasing.SteinerRequest, len(connects))
		wreqs := make([]wire.ConnectRequest, len(connects))
		for j, c := range connects {
			reqs[j] = leasing.SteinerRequest{Time: c.T, S: c.S, T: c.U}
			wreqs[j] = wire.ConnectRequest{T: c.T, S: c.S, U: c.U}
		}
		inst, err := leasing.NewSteinerInstance(g, cfg, reqs)
		if err != nil {
			return nil, err
		}
		edges := make([]wire.Edge, g.M())
		for j, e := range g.Edges() {
			edges[j] = wire.Edge{U: e.U, V: e.V, W: e.Weight}
		}
		return &tenant{
			name: name, domain: domain, events: leasing.ConnectEvents(reqs),
			fresh: func() (leasing.Leaser, error) { return leasing.NewSteinerStream(inst) },
			spec: leasing.RemoteOpenRequest{
				Domain: wire.DomainSteiner, Types: types,
				Steiner: &wire.SteinerSpec{Vertices: terminals, Edges: edges, Requests: wreqs},
			},
		}, nil

	case wire.DomainReusable:
		// A pool of four units; usage durations uniform in [1, 8], so both
		// grants and whole-pool-busy rejections occur.
		const capacity = 4
		days := firstN(gen.ArrivalDays(rng, horizon, arr), n)
		reqs := make([]leasing.ReusableRequest, len(days))
		for j, d := range days {
			reqs[j] = leasing.ReusableRequest{T: d, Dur: 1 + int64(rng.Intn(8))}
		}
		inst, err := leasing.NewReusableInstance(cfg, capacity, reqs)
		if err != nil {
			return nil, err
		}
		return &tenant{
			name: name, domain: domain, events: leasing.UseEvents(reqs),
			fresh: func() (leasing.Leaser, error) { return leasing.NewReusableStream(inst) },
			spec: leasing.RemoteOpenRequest{
				Domain: wire.DomainReusable, Types: types,
				Reusable: &wire.ReusableSpec{Capacity: capacity},
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown domain %q", domain)
}

// firstN cuts xs to its first n elements.
func firstN[T any](xs []T, n int) []T {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

func wirePoints(ps []leasing.Point) []wire.Point {
	out := make([]wire.Point, len(ps))
	for i, p := range ps {
		out[i] = wire.Point{X: p.X, Y: p.Y}
	}
	return out
}
