package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"leasing/internal/lease"
)

func testConfig() *lease.Config {
	return lease.MustConfig(
		lease.Type{Length: 2, Cost: 1},
		lease.Type{Length: 8, Cost: 3},
	)
}

func TestNewItemStoreValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := NewItemStore(cfg, [][]float64{{1}}); err == nil {
		t.Error("short cost row accepted")
	}
	if _, err := NewItemStore(cfg, [][]float64{{1, 0}}); err == nil {
		t.Error("zero cost accepted")
	}
	if _, err := NewItemStore(cfg, [][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Errorf("valid costs rejected: %v", err)
	}
}

func TestItemStoreBuyAndActive(t *testing.T) {
	cfg := testConfig()
	s, err := NewItemStore(cfg, [][]float64{{1, 3}, {2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	il := ItemLease{Item: 0, K: 1, Start: 8}
	fresh, err := s.Buy(il)
	if err != nil || !fresh {
		t.Fatalf("Buy = %v, %v; want true, nil", fresh, err)
	}
	fresh, err = s.Buy(il)
	if err != nil || fresh {
		t.Fatalf("duplicate Buy = %v, %v; want false, nil", fresh, err)
	}
	if got := s.TotalCost(); got != 3 {
		t.Errorf("TotalCost = %v, want 3 (no double charge)", got)
	}
	if !s.Has(il) {
		t.Error("Has(bought) = false")
	}
	if !s.ItemActive(0, 8) || !s.ItemActive(0, 15) || s.ItemActive(0, 16) || s.ItemActive(0, 7) {
		t.Error("ItemActive window [8,16) wrong")
	}
	if s.ItemActive(1, 10) {
		t.Error("unbought item active")
	}
	if _, err := s.Buy(ItemLease{Item: 5, K: 0, Start: 0}); err == nil {
		t.Error("out-of-range item accepted")
	}
	if _, err := s.Buy(ItemLease{Item: 0, K: 9, Start: 0}); err == nil {
		t.Error("out-of-range type accepted")
	}
}

func TestActiveItemsSortedAndLeases(t *testing.T) {
	cfg := testConfig()
	s, _ := NewItemStore(cfg, [][]float64{{1, 3}, {2, 5}, {1, 4}})
	for _, il := range []ItemLease{
		{Item: 2, K: 0, Start: 4},
		{Item: 0, K: 1, Start: 0},
		{Item: 2, K: 0, Start: 0},
	} {
		if _, err := s.Buy(il); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ActiveItems(5)
	want := []int{0, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ActiveItems(5) = %v, want %v", got, want)
	}
	ls := s.Leases()
	if len(ls) != 3 {
		t.Fatalf("Leases() len = %d, want 3", len(ls))
	}
	if ls[0] != (ItemLease{Item: 0, K: 1, Start: 0}) ||
		ls[1] != (ItemLease{Item: 2, K: 0, Start: 0}) ||
		ls[2] != (ItemLease{Item: 2, K: 0, Start: 4}) {
		t.Errorf("Leases() = %v not sorted as expected", ls)
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	if s.NumItems() != 3 {
		t.Errorf("NumItems = %d, want 3", s.NumItems())
	}
	if s.Cost(1, 1) != 5 {
		t.Errorf("Cost(1,1) = %v, want 5", s.Cost(1, 1))
	}
}

func TestItemLeaseLease(t *testing.T) {
	il := ItemLease{Item: 3, K: 1, Start: 16}
	l := il.Lease()
	if l.K != 1 || l.Start != 16 {
		t.Errorf("Lease() = %+v", l)
	}
}

func TestRatio(t *testing.T) {
	r, err := Ratio(6, 2)
	if err != nil || r != 3 {
		t.Errorf("Ratio(6,2) = %v, %v; want 3, nil", r, err)
	}
	if _, err := Ratio(1, 0); err == nil {
		t.Error("Ratio with zero opt accepted")
	}
}

func TestItemStoreJournal(t *testing.T) {
	cfg := testConfig()
	s, err := NewItemStore(cfg, [][]float64{{1, 3}, {2, 5}, {4, 6}})
	if err != nil {
		t.Fatal(err)
	}
	buys := []ItemLease{
		{Item: 2, K: 0, Start: 4}, {Item: 0, K: 1, Start: 8}, {Item: 2, K: 0, Start: 4},
		{Item: 1, K: 0, Start: 0}, {Item: 0, K: 1, Start: 8}, {Item: 0, K: 0, Start: 2},
	}
	want := []ItemLease{buys[0], buys[1], buys[3], buys[5]} // purchase order, duplicates dropped
	for _, il := range buys {
		if _, err := s.Buy(il); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.BoughtSince(0); !reflect.DeepEqual(got, want) {
		t.Errorf("BoughtSince(0) = %v, want %v", got, want)
	}
	if got := s.BoughtSince(2); !reflect.DeepEqual(got, want[2:]) {
		t.Errorf("BoughtSince(2) = %v, want %v", got, want[2:])
	}
	if got := s.BoughtSince(s.Count()); len(got) != 0 {
		t.Errorf("BoughtSince(Count()) = %v, want empty", got)
	}
	// A failed Buy is not journaled either.
	if _, err := s.Buy(ItemLease{Item: 3, K: 0, Start: 0}); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	if s.Count() != len(want) {
		t.Errorf("Count = %d, want %d", s.Count(), len(want))
	}
}

// TestItemStoreLeasesMatchesSortedSet checks the ordered walk of Leases
// against sorting the purchased set, on random purchase sequences.
func TestItemStoreLeasesMatchesSortedSet(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := 1 + rng.Intn(6)
		costs := make([][]float64, items)
		for i := range costs {
			costs[i] = []float64{1, 3}
		}
		s, err := NewItemStore(cfg, costs)
		if err != nil {
			t.Fatal(err)
		}
		set := map[ItemLease]struct{}{}
		for n := rng.Intn(80); n > 0; n-- {
			k := rng.Intn(cfg.K())
			il := ItemLease{Item: rng.Intn(items), K: k, Start: cfg.Length(k) * int64(rng.Intn(12))}
			fresh, err := s.Buy(il)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := set[il]; fresh == dup {
				t.Fatalf("seed %d: Buy(%v) fresh = %v with the triple already bought = %v", seed, il, fresh, dup)
			}
			set[il] = struct{}{}
		}
		want := make([]ItemLease, 0, len(set))
		for il := range set {
			want = append(want, il)
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].Item != want[b].Item {
				return want[a].Item < want[b].Item
			}
			if want[a].K != want[b].K {
				return want[a].K < want[b].K
			}
			return want[a].Start < want[b].Start
		})
		if got := s.Leases(); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: Leases = %v, want %v", seed, got, want)
		}
	}
}
