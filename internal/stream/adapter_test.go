package stream

import (
	"errors"
	"reflect"
	"slices"
	"testing"
)

func TestAdaptPayloadCheck(t *testing.T) {
	day := Adapt(Domain[Day]{
		Name:   "days",
		Step:   func(int64, Day) error { return nil },
		Bought: func(dst []ItemLease) []ItemLease { return dst },
		Cost:   LeaseCost(func() float64 { return 0 }),
	})
	for _, p := range []Payload{Day{}, nil} {
		if _, err := day.Observe(Event{Payload: p}); err != nil {
			t.Errorf("payload %#v: %v", p, err)
		}
	}
	_, err := day.Observe(Event{Payload: Element{}})
	if !errors.Is(err, ErrPayload) || err.Error() != "days: unsupported payload stream.Element" {
		t.Errorf("element payload: %v", err)
	}

	elem := Adapt(Domain[Element]{Name: "elements"})
	_, err = elem.Observe(Event{})
	if !errors.Is(err, ErrPayload) || err.Error() != "elements: unsupported payload <nil>" {
		t.Errorf("nil payload: %v", err)
	}
}

// scriptedDomain buys, on the i-th event, the leases script[i] in the
// order given, logging them in a Journal, and assigns one client per
// event when assigns is set.
func scriptedDomain(script [][]ItemLease, assigns bool) Domain[Day] {
	var j Journal[ItemLease]
	var assigned Journal[Assignment]
	total, step := 0.0, 0
	d := Domain[Day]{
		Name: "scripted",
		Step: func(int64, Day) error {
			for _, l := range script[step] {
				j.Add(l)
				total += 1.5
			}
			assigned.Add(Assignment{Item: step})
			step++
			return nil
		},
		Bought: Project(j.Since, func(l ItemLease) ItemLease { return l }),
		Cost:   LeaseCost(func() float64 { return total }),
	}
	if assigns {
		d.Assigned = Project(assigned.Since, func(a Assignment) Assignment { return a })
	}
	return d
}

func TestAdaptDecisionsAndSnapshots(t *testing.T) {
	script := [][]ItemLease{
		{{Item: 2, K: 0, Start: 4}, {Item: 0, K: 1, Start: 0}},
		nil,
		{{Item: 1, K: 0, Start: 0}, {Item: 0, K: 0, Start: 9}, {Item: 2, K: 0, Start: 1}},
		{{Item: 0, K: 1, Start: 8}},
		nil,
	}
	for _, assigns := range []bool{false, true} {
		l := Adapt(scriptedDomain(script, assigns))
		var all []ItemLease
		for i, bought := range script {
			d, err := l.Observe(Event{Time: int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(bought)
			SortItemLeases(want)
			if !reflect.DeepEqual(d.Leases, want) {
				t.Errorf("event %d: leases %v, want %v", i, d.Leases, want)
			}
			if got := d.Cost; got != 1.5*float64(len(bought)) {
				t.Errorf("event %d: cost %v", i, got)
			}
			if wantA := []Assignment{{Item: i}}; assigns != reflect.DeepEqual(d.Assignments, wantA) {
				t.Errorf("event %d: assignments %v", i, d.Assignments)
			}
			all = append(all, bought...)
			if i%2 == 1 {
				continue // leave purchases pending across events
			}
			sol := l.Snapshot()
			wantAll := append([]ItemLease{}, all...)
			SortItemLeases(wantAll)
			if !reflect.DeepEqual(sol.Leases, wantAll) {
				t.Errorf("event %d: snapshot %v, want %v", i, sol.Leases, wantAll)
			}
			if got := len(sol.Assignments); assigns != (got == i+1) || !assigns && sol.Assignments != nil {
				t.Errorf("event %d: snapshot assignments %#v", i, sol.Assignments)
			}
			// A snapshot is the caller's: scribbling over it leaves later
			// snapshots alone.
			for k := range sol.Leases {
				sol.Leases[k] = ItemLease{Item: -1}
			}
			if slices.Contains(l.Snapshot().Leases, ItemLease{Item: -1}) {
				t.Errorf("event %d: snapshot aliases the adapter's list", i)
			}
		}
	}
}

// TestAdaptStepCost checks that a domain's own step cost, not the
// difference of totals, becomes the decision's cost.
func TestAdaptStepCost(t *testing.T) {
	const c = 0.1
	total, last := 1e16, 0.0
	l := Adapt(Domain[Day]{
		Name:     "pool",
		Step:     func(int64, Day) error { last = c; total += c; return nil },
		Bought:   func(dst []ItemLease) []ItemLease { return dst },
		Cost:     LeaseCost(func() float64 { return total }),
		StepCost: func() float64 { return last },
	})
	if _, err := l.Observe(Event{}); err != nil {
		t.Fatal(err)
	}
	d, err := l.Observe(Event{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost != c {
		t.Errorf("decision cost %v, want the step's own %v", d.Cost, c)
	}
}
