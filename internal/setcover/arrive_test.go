package setcover_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"leasing/internal/deadline"
	"leasing/internal/lease"
	"leasing/internal/setcover"
	"leasing/internal/stream"
	"leasing/internal/workload"
)

// TestRejectedArrivalChangesNothing sends set cover and SCLD each kind of
// arrival they reject and checks that the rejection leaves the cost, the
// snapshot and the time floor as they were: afterwards the leaser is in
// the state of a twin that never saw the rejected events.
func TestRejectedArrivalChangesNothing(t *testing.T) {
	// Element 0 is in set 0 only, element 1 in both sets, element 2 in
	// none.
	fam, err := setcover.NewFamily(3, [][]int{{0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lease.PowerConfig(3, 4, 0.55)
	costs := [][]float64{{1, 2, 4}, {1, 2, 4}}
	coverLeaser := func(scope setcover.ExclusionScope) func() stream.Leaser {
		inst, err := setcover.NewInstance(fam, cfg, costs, nil, scope)
		if err != nil {
			t.Fatal(err)
		}
		return func() stream.Leaser {
			alg, err := setcover.NewOnline(inst, rand.New(rand.NewSource(1)), setcover.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return setcover.NewLeaser(alg)
		}
	}
	scldInst, err := deadline.NewSCLDInstance(fam, cfg, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	scld := func() stream.Leaser {
		alg, err := deadline.NewSCLDOnline(scldInst, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return deadline.NewSCLDStream(alg)
	}
	elem := func(t int64, e, p int) stream.Event {
		return stream.Event{Time: t, Payload: stream.Element{Elem: e, P: p}}
	}
	window := func(t int64, e int, d int64) stream.Event {
		return stream.Event{Time: t, Payload: stream.ElementWindow{Elem: e, D: d}}
	}
	cases := []struct {
		name   string
		fresh  func() stream.Leaser
		before []stream.Event
		bad    []stream.Event
		after  stream.Event
	}{
		// Layer 0 of {0, P:2} can buy before layer 1 finds set 0 excluded.
		{"per-arrival/first-event", coverLeaser(setcover.PerArrival), nil,
			[]stream.Event{elem(5, 0, 2)}, elem(4, 1, 1)},
		{"per-arrival", coverLeaser(setcover.PerArrival), []stream.Event{elem(3, 1, 2)},
			[]stream.Event{elem(5, 0, 2), elem(5, 1, 3), elem(5, 2, 1), elem(5, 3, 1), elem(5, -1, 1), elem(5, 1, 0), elem(2, 1, 1)},
			elem(4, 0, 1)},
		{"per-element", coverLeaser(setcover.PerElement), []stream.Event{elem(3, 1, 1)},
			[]stream.Event{elem(5, 1, 2), elem(5, 0, 2), elem(5, 2, 1), elem(5, 3, 1), elem(5, 1, 0), elem(2, 0, 1)},
			elem(4, 1, 1)},
		{"scld", scld, []stream.Event{window(3, 1, 2)},
			[]stream.Event{window(5, 2, 0), window(5, 3, 0), window(5, -1, 0), window(5, 0, -1), window(2, 0, 0)},
			window(4, 0, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, twin := tc.fresh(), tc.fresh()
			for _, ev := range tc.before {
				mustObserve(t, l, ev)
				mustObserve(t, twin, ev)
			}
			for _, ev := range tc.bad {
				want := state(l)
				if _, err := l.Observe(ev); err == nil {
					t.Fatalf("%+v accepted", ev)
				}
				if got := state(l); got != want {
					t.Fatalf("%+v rejected but changed the state:\n got %s\nwant %s", ev, got, want)
				}
			}
			mustObserve(t, l, tc.after)
			mustObserve(t, twin, tc.after)
			if got, want := state(l), state(twin); got != want {
				t.Fatalf("after the rejections:\n got %s\nwant %s", got, want)
			}
		})
	}
}

func mustObserve(t *testing.T, l stream.Leaser, ev stream.Event) {
	t.Helper()
	if _, err := l.Observe(ev); err != nil {
		t.Fatalf("%+v: %v", ev, err)
	}
}

// state renders a leaser's cost bits and snapshot.
func state(l stream.Leaser) string {
	return fmt.Sprintf("%x %#v", math.Float64bits(l.Cost().Total()), l.Snapshot())
}

// FuzzCoverArrive drives set cover and SCLD over a small random family
// (seeded by seed; some elements may be in no set) with the same fuzzed
// (time step, element, p or d) triples, valid or not. An arrival must be
// accepted exactly when the offline instance validator accepts it after
// the arrivals accepted before it (for SCLD, also when its element is in
// some set); every accepted prefix must verify as feasible, and every
// rejection must leave the cost and the snapshot as they were.
func FuzzCoverArrive(f *testing.F) {
	f.Add(int64(1), []byte{1, 1, 2, 0, 1, 3, 2, 0, 1, 0, 2, 2})
	f.Add(int64(2), []byte{3, 0, 3, 0, 0, 0, 1, 5, 1, 4, 2, 4, 1, 1, 7})
	f.Add(int64(7), []byte{2, 2, 1, 1, 1, 2, 2, 1, 1, 2, 1, 1, 0, 3, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(5), 1+rng.Intn(4)
		sets := make([][]int, m)
		for s := range sets {
			for e := 0; e < n; e++ {
				if rng.Intn(2) == 0 {
					sets[s] = append(sets[s], e)
				}
			}
			if len(sets[s]) == 0 {
				sets[s] = []int{rng.Intn(n)}
			}
		}
		fam, err := setcover.NewFamily(n, sets)
		if err != nil {
			t.Fatal(err)
		}
		cfg := lease.PowerConfig(1+rng.Intn(3), 2+rng.Int63n(3), 0.55)
		costs := setcover.RandomCosts(rng, m, cfg, 0.5)
		scope := setcover.PerArrival
		if seed%2 != 0 {
			scope = setcover.PerElement
		}
		scInst, err := setcover.NewInstance(fam, cfg, costs, nil, scope)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := setcover.NewOnline(scInst, rand.New(rand.NewSource(seed)), setcover.Options{})
		if err != nil {
			t.Fatal(err)
		}
		scldInst, err := deadline.NewSCLDInstance(fam, cfg, costs, nil)
		if err != nil {
			t.Fatal(err)
		}
		scld, err := deadline.NewSCLDOnline(scldInst, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		scLeaser, scldLeaser := setcover.NewLeaser(sc), deadline.NewSCLDStream(scld)

		var scAcc []workload.ElementArrival
		var scldAcc []deadline.SCLDArrival
		var now int64
		for i := 0; i+2 < len(ops) && i < 3*48; i += 3 {
			now += int64(ops[i]%5) - 1
			e := int(ops[i+1]%byte(n+2)) - 1
			x := int(ops[i+2]%6) - 1

			a := workload.ElementArrival{T: now, Elem: e, P: x}
			_, refErr := setcover.NewInstance(fam, cfg, costs, append(scAcc[:len(scAcc):len(scAcc)], a), scope)
			if checkArrive(t, "set cover", scLeaser, stream.Event{Time: now, Payload: stream.Element{Elem: e, P: x}}, refErr == nil) {
				scAcc = append(scAcc, a)
				inst, _ := setcover.NewInstance(fam, cfg, costs, scAcc, scope)
				if err := setcover.VerifyFeasible(inst, sc.Bought()); err != nil {
					t.Fatalf("set cover after %d arrivals: %v", len(scAcc), err)
				}
			}

			d := deadline.SCLDArrival{T: now, Elem: e, D: int64(x)}
			_, refErr = deadline.NewSCLDInstance(fam, cfg, costs, append(scldAcc[:len(scldAcc):len(scldAcc)], d))
			ok := refErr == nil && len(fam.Containing(e)) > 0
			if checkArrive(t, "SCLD", scldLeaser, stream.Event{Time: now, Payload: stream.ElementWindow{Elem: e, D: d.D}}, ok) {
				scldAcc = append(scldAcc, d)
				inst, _ := deadline.NewSCLDInstance(fam, cfg, costs, scldAcc)
				if err := deadline.VerifySCLDFeasible(inst, scld.Bought()); err != nil {
					t.Fatalf("SCLD after %d arrivals: %v", len(scldAcc), err)
				}
			}
		}
	})
}

// checkArrive observes ev, checks that it is accepted exactly when want
// says so and that a rejection changes nothing, and reports acceptance.
func checkArrive(t *testing.T, name string, l stream.Leaser, ev stream.Event, want bool) bool {
	t.Helper()
	before := state(l)
	_, err := l.Observe(ev)
	if (err == nil) != want {
		t.Fatalf("%s: %+v: error %v, want accepted=%v", name, ev, err, want)
	}
	if err != nil {
		if after := state(l); after != before {
			t.Fatalf("%s: %+v rejected (%v) but changed the state:\n got %s\nwant %s", name, ev, err, after, before)
		}
	}
	return err == nil
}
