package leasing_test

// Golden digests pin the exact output of every domain's leaser: the
// incremental internals (facility's phase 1, the journaled purchase
// cursors) and the stream adapter in front of each algorithm. Each case
// replays several seeded streams and hashes, per stream, the run in the
// wire's binary encoding (bit-exact floats, nil distinct from empty), the
// final cost breakdown and the %#v rendering of the final snapshot, plus
// the snapshots taken every 4 events on a second fresh leaser, the way
// the serving engine publishes them. An optimisation that changes a
// single output bit changes the digest.
//
// Each digest was captured from the code before the change it guards:
// the incremental cases from the straightforward (re-sort and re-diff
// everything per event) implementation, the parking journal and reusable
// cases from the hand-written per-domain stream adapters. They must never
// be regenerated to make a change pass.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"leasing/internal/deadline"
	"leasing/internal/facility"
	"leasing/internal/graph"
	"leasing/internal/lease"
	"leasing/internal/metric"
	"leasing/internal/parking"
	"leasing/internal/reusable"
	"leasing/internal/setcover"
	"leasing/internal/steiner"
	"leasing/internal/stream"
	"leasing/internal/wire"
	"leasing/internal/workload"
)

// goldenStreams is how many seeded input sets each case hashes.
const goldenStreams = 6

// goldenCase builds, for one seed, the event stream and a constructor of
// fresh leasers over it.
type goldenCase struct {
	name   string
	digest string
	build  func(t *testing.T, seed int64) ([]stream.Event, func() stream.Leaser)
}

func TestGoldenDigests(t *testing.T) {
	cases := []goldenCase{
		{"facility/default", "57d0a3e3d7fbad46568ce4357eec6d542c35cc2c8001f2001282564eb739a7e6", goldenFacility(facility.Options{})},
		{"facility/by-index", "edb63b6252d55bd265a0036020b79627865f1662ca792dfef4bd2e8a813bf2f2", goldenFacility(facility.Options{MISOrder: facility.ByIndex})},
		{"facility/reset-each-round", "dcea82181d462858213b1be2f4d8e3906964ee359db0a345ff9030d2b20ec8af", goldenFacility(facility.Options{ResetEachRound: true})},
		{"setcover/per-arrival", "dea2449cb69f8bba77bbc3ce3088e7d1a5f11e61b5ce7580d18a2814e11380ee", goldenSetCover(setcover.PerArrival)},
		{"setcover/per-element", "4e12b77d5f37db97938f3031b9c41dde93b312efec286c292f3db615717242e0", goldenSetCover(setcover.PerElement)},
		{"steiner", "0219a220559de7d683e6ee3c20e8eada2edc6b1a53033f912d992d4f425162d0", goldenSteiner},
		{"deadline/old", "17342b00be438442fb85a346e77422278b230aedbbd38c7a5c1f7236581038e4", goldenDeadline},
		{"deadline/scld", "7bf0b77ac451916dbb7d32c08e0c6db91f98d0bfb0a2fdadb168a298c350f789", goldenSCLD},
		{"parking/no-journal", "a62de6f1ba07649790748b733652b87c37defc95d64c3052e105efe28a855eda", goldenParkingNoJournal},
		{"parking/deterministic", "588aa74a034e01f4fafff05c776d46458249eeda91c6eb9c7428fe76587229fa", goldenParking(false)},
		{"parking/randomized", "bcd4530c74f224013e9b67164804d206f49a94d6e581d90b1efeb41bce6300df", goldenParking(true)},
		{"reusable/worst-case", "2c0ff88bbbd1ff86ffbf3113175eb6ba4a6fac9504fe392fc53698a003d4c192", goldenReusable(reusable.Options{})},
		{"reusable/predicted", "e548a147855787deac805a31643fe2e971eba4512a25f94111dea42adbbc3aa4", goldenReusable(reusable.Options{Prediction: 0.35})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			for s := int64(0); s < goldenStreams; s++ {
				events, fresh := tc.build(t, 1000*s+7)
				hashReplay(t, h, events, fresh)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("digest %s, want %s: the leaser's output changed", got, tc.digest)
			}
		})
	}
}

// TestGoldenFacilityDuals pins facility's dual objective, the sum of the
// client caps α̂_j, after every step. The caps are the potentials at
// which phase 1 froze each new client, so this digest moves with any
// change to them, even one that flips no decision. A float slip inside
// phase 1 that leaves every cap as it was moves neither digest;
// TestPhase1IncrementalState in internal/facility checks phase 1's
// cached state against a from-scratch evaluation for that.
func TestGoldenFacilityDuals(t *testing.T) {
	cases := []struct {
		name   string
		digest string
		opts   facility.Options
	}{
		{"default", "51886e12a1dd00fad25b42f0f6f75d7d06fdb78a7f3c9615403b65c350e4f70d", facility.Options{}},
		{"by-index", "1340ac12c77faf439930204558e802405febae1191a4a3d9777b1639c193f97f", facility.Options{MISOrder: facility.ByIndex}},
		{"reset-each-round", "09f40bdf933d481b975b60cf1c8da89864e0157fa1d2725ab0881b551f041f9b", facility.Options{ResetEachRound: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			for s := int64(0); s < goldenStreams; s++ {
				inst := goldenFacilityInstance(t, 1000*s+7)
				alg, err := facility.NewOnline(inst, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				for step, b := range inst.Batches {
					if err := alg.Step(int64(step), b); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%x,%x;", math.Float64bits(alg.DualTotal()), math.Float64bits(alg.TotalCost()))
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("digest %s, want %s: phase 1's potentials changed", got, tc.digest)
			}
		})
	}
}

// TestGoldenCoverFractional pins the fractional side of set cover and
// SCLD: after every arrival it hashes the bits of the integral cost, the
// bits of the fractional cost and the fallback count. The run digests
// above see only purchases, so a reordered fractional-cost sum, which
// flips no purchase, moves only this digest. At the default draw count
// the fallback never fires on these streams; the one-draw case rounds
// against a single uniform, so it fires there dozens of times a stream.
func TestGoldenCoverFractional(t *testing.T) {
	cases := []struct {
		name   string
		digest string
		run    func(t *testing.T, seed int64, step func(coverAlg))
	}{
		{"setcover/per-arrival", "f361f8823bb108b72574eed9dbab8a18699000c8dd72fc96ec0a4dd0ea041ae3", goldenCoverSteps(setcover.PerArrival, setcover.Options{})},
		{"setcover/one-draw", "74b1202faf38c73253515d9af1eb0e6058e5d5353b2bc3c7ff3dcdafb3a46af7", goldenCoverSteps(setcover.PerArrival, setcover.Options{RoundingDraws: 1})},
		{"setcover/per-element", "5ebd30e42f8a6f264b43a261a1848fb2f6fafbe3af62f0b38727705c8c6afef5", goldenCoverSteps(setcover.PerElement, setcover.Options{})},
		{"deadline/scld", "13d6097fd8fccd7bc80b2ccb6c51fd0772cc739d4b622c86e4beeebb296a9062", func(t *testing.T, seed int64, step func(coverAlg)) {
			inst := goldenSCLDInstance(t, seed)
			alg, err := deadline.NewSCLDOnline(inst, rand.New(rand.NewSource(seed+1)))
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range inst.Arrivals {
				if err := alg.Arrive(a.T, a.Elem, a.D); err != nil {
					t.Fatal(err)
				}
				step(alg)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			for s := int64(0); s < goldenStreams; s++ {
				tc.run(t, 1000*s+7, func(alg coverAlg) {
					fmt.Fprintf(h, "%x,%x,%d;", math.Float64bits(alg.TotalCost()), math.Float64bits(alg.FractionalCost()), alg.Fallbacks())
				})
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("digest %s, want %s: the fractional cover changed", got, tc.digest)
			}
		})
	}
}

// coverAlg is the fractional side that set cover and SCLD both report.
type coverAlg interface {
	TotalCost() float64
	FractionalCost() float64
	Fallbacks() int
}

// goldenCoverSteps runs goldenSetCoverInstance's arrivals through set
// cover, calling step after each.
func goldenCoverSteps(scope setcover.ExclusionScope, opts setcover.Options) func(*testing.T, int64, func(coverAlg)) {
	return func(t *testing.T, seed int64, step func(coverAlg)) {
		inst := goldenSetCoverInstance(t, seed, scope)
		alg, err := setcover.NewOnline(inst, rand.New(rand.NewSource(seed+1)), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range inst.Arrivals {
			if err := alg.Arrive(a.T, a.Elem, a.P); err != nil {
				t.Fatal(err)
			}
			step(alg)
		}
	}
}

// hashReplay writes one stream's output into h: the Replay run bytes,
// final cost and snapshot of one leaser, then the every-4-events
// snapshots of a second.
func hashReplay(t *testing.T, h hash.Hash, events []stream.Event, fresh func() stream.Leaser) {
	t.Helper()
	l := fresh()
	run, err := stream.Replay(l, events)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(wire.AppendRunBinary(nil, run))
	fmt.Fprintf(h, "|%#v|%#v|", run.Final, l.Snapshot())

	l = fresh()
	rec := stream.NewRecorder(false)
	for i, ev := range events {
		if _, err := rec.Observe(l, ev); err != nil {
			t.Fatal(err)
		}
		if (i+1)%4 == 0 {
			fmt.Fprintf(h, "%#v;", l.Snapshot())
		}
	}
}

func goldenConfig() *lease.Config { return lease.PowerConfig(3, 4, 0.55) }

// goldenFacility streams goldenFacilityInstance's batches.
func goldenFacility(opts facility.Options) func(*testing.T, int64) ([]stream.Event, func() stream.Leaser) {
	return func(t *testing.T, seed int64) ([]stream.Event, func() stream.Leaser) {
		inst := goldenFacilityInstance(t, seed)
		return stream.Batches(inst.Batches), func() stream.Leaser {
			alg, err := facility.NewOnline(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			return facility.NewLeaser(alg)
		}
	}
}

// goldenFacilityInstance is 160 steps of zero to three clients clustered
// near 3–8 sites. Every third client sits on a half-unit grid point, so
// many clients tie in distance to a site (and some coincide outright).
func goldenFacilityInstance(t *testing.T, seed int64) *facility.Instance {
	rng := rand.New(rand.NewSource(seed))
	cfg := goldenConfig()
	sites := make([]metric.Point, 3+rng.Intn(6))
	for i := range sites {
		sites[i] = metric.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
	}
	costs := make([][]float64, len(sites))
	for i := range costs {
		f := 1 + rng.Float64()*0.5
		costs[i] = make([]float64, cfg.K())
		for k := range costs[i] {
			costs[i][k] = cfg.Cost(k) * f
		}
	}
	batches := make([][]metric.Point, 160)
	for step := range batches {
		for c := rng.Intn(4); c > 0; c-- {
			s := sites[rng.Intn(len(sites))]
			p := metric.Point{X: s.X + rng.Float64()*6 - 3, Y: s.Y + rng.Float64()*6 - 3}
			if rng.Intn(3) == 0 {
				p = metric.Point{X: math.Round(p.X*2) / 2, Y: math.Round(p.Y*2) / 2}
			}
			batches[step] = append(batches[step], p)
		}
	}
	inst, err := facility.NewInstance(cfg, sites, costs, batches)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func goldenSetCover(scope setcover.ExclusionScope) func(*testing.T, int64) ([]stream.Event, func() stream.Leaser) {
	return func(t *testing.T, seed int64) ([]stream.Event, func() stream.Leaser) {
		inst := goldenSetCoverInstance(t, seed, scope)
		return stream.Elements(inst.Arrivals), func() stream.Leaser {
			alg, err := setcover.NewOnline(inst, rand.New(rand.NewSource(seed+1)), setcover.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return setcover.NewLeaser(alg)
		}
	}
}

// goldenSetCoverInstance is 400 arrivals of multiplicity 1–2 over 24
// elements, each in 3 of 16 sets.
func goldenSetCoverInstance(t *testing.T, seed int64, scope setcover.ExclusionScope) *setcover.Instance {
	rng := rand.New(rand.NewSource(seed))
	cfg := goldenConfig()
	arr, err := workload.NewArrival("constant", 0.5, 64)
	if err != nil {
		t.Fatal(err)
	}
	const elems, sets, delta = 24, 16, 3
	arrivals := workload.ElementArrivals(rng, 400, arr,
		func() int { return rng.Intn(elems) }, func() int { return 1 + rng.Intn(2) })
	fam, err := setcover.RandomFamily(rng, elems, sets, delta)
	if err != nil {
		t.Fatal(err)
	}
	if scope == setcover.PerElement {
		// Repetitions must fit in distinct sets: cut each element's
		// cumulative demand at the number of sets containing it.
		demand := map[int]int{}
		kept := arrivals[:0]
		for _, a := range arrivals {
			if demand[a.Elem]+a.P <= len(fam.Containing(a.Elem)) {
				demand[a.Elem] += a.P
				kept = append(kept, a)
			}
		}
		arrivals = kept
	}
	costs := setcover.RandomCosts(rng, sets, cfg, 0.5)
	inst, err := setcover.NewInstance(fam, cfg, costs, arrivals, scope)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func goldenSteiner(t *testing.T, seed int64) ([]stream.Event, func() stream.Leaser) {
	rng := rand.New(rand.NewSource(seed))
	const terminals = 16
	g, err := graph.RandomConnected(rng, terminals, 3*terminals, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := workload.NewArrival("constant", 0.5, 64)
	if err != nil {
		t.Fatal(err)
	}
	connects, err := workload.ConnectArrivals(rng, 400, arr, terminals)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]steiner.Request, len(connects))
	for i, c := range connects {
		reqs[i] = steiner.Request{Time: c.T, S: c.S, T: c.U}
	}
	inst, err := steiner.NewInstance(g, goldenConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	return steiner.Events(reqs), func() stream.Leaser {
		alg, err := steiner.NewOnline(inst)
		if err != nil {
			t.Fatal(err)
		}
		return steiner.NewLeaser(alg)
	}
}

func goldenDeadline(t *testing.T, seed int64) ([]stream.Event, func() stream.Leaser) {
	rng := rand.New(rand.NewSource(seed))
	arr, err := workload.NewArrival("constant", 0.5, 64)
	if err != nil {
		t.Fatal(err)
	}
	clients := workload.DeadlineArrivals(rng, 400, arr, 12)
	return stream.Windows(clients), func() stream.Leaser {
		alg, err := deadline.NewOnline(goldenConfig())
		if err != nil {
			t.Fatal(err)
		}
		return deadline.NewLeaser(alg)
	}
}

func goldenSCLD(t *testing.T, seed int64) ([]stream.Event, func() stream.Leaser) {
	inst := goldenSCLDInstance(t, seed)
	return deadline.SCLDEvents(inst.Arrivals), func() stream.Leaser {
		alg, err := deadline.NewSCLDOnline(inst, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Fatal(err)
		}
		return deadline.NewSCLDStream(alg)
	}
}

// goldenSCLDInstance is 300 days, each with an even chance of one
// arrival of slack 0–9, over 20 elements, each in 3 of 12 sets.
func goldenSCLDInstance(t *testing.T, seed int64) *deadline.SCLDInstance {
	rng := rand.New(rand.NewSource(seed))
	cfg := goldenConfig()
	const elems, sets, delta = 20, 12, 3
	fam, err := setcover.RandomFamily(rng, elems, sets, delta)
	if err != nil {
		t.Fatal(err)
	}
	costs := setcover.RandomCosts(rng, sets, cfg, 0.5)
	var arrivals []deadline.SCLDArrival
	for day := int64(0); day < 300; day++ {
		if rng.Intn(2) == 0 {
			arrivals = append(arrivals, deadline.SCLDArrival{T: day, Elem: rng.Intn(elems), D: int64(rng.Intn(10))})
		}
	}
	inst, err := deadline.NewSCLDInstance(fam, cfg, costs, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// noJournal hides the built-in algorithm's purchase journal, so the
// parking adapter takes its path for external algorithms.
type noJournal struct{ alg parking.Algorithm }

func (n noJournal) Arrive(t int64) error  { return n.alg.Arrive(t) }
func (n noJournal) Covers(t int64) bool   { return n.alg.Covers(t) }
func (n noJournal) TotalCost() float64    { return n.alg.TotalCost() }
func (n noJournal) Leases() []lease.Lease { return n.alg.Leases() }

func goldenParkingNoJournal(t *testing.T, seed int64) ([]stream.Event, func() stream.Leaser) {
	rng := rand.New(rand.NewSource(seed))
	arr, err := workload.NewArrival("constant", 0.5, 64)
	if err != nil {
		t.Fatal(err)
	}
	days := workload.ArrivalDays(rng, 400, arr)
	return stream.Days(days), func() stream.Leaser {
		alg, err := parking.NewRandomized(goldenConfig(), rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Fatal(err)
		}
		return parking.NewLeaser(noJournal{alg})
	}
}

// goldenParking streams demand days to the built-in parking-permit
// algorithms, which the adapter reads through their purchase journal.
func goldenParking(randomized bool) func(*testing.T, int64) ([]stream.Event, func() stream.Leaser) {
	return func(t *testing.T, seed int64) ([]stream.Event, func() stream.Leaser) {
		rng := rand.New(rand.NewSource(seed))
		arr, err := workload.NewArrival("bursty", 0.5, 64)
		if err != nil {
			t.Fatal(err)
		}
		days := workload.ArrivalDays(rng, 400, arr)
		return stream.Days(days), func() stream.Leaser {
			var (
				alg parking.Algorithm
				err error
			)
			if randomized {
				alg, err = parking.NewRandomized(goldenConfig(), rand.New(rand.NewSource(seed+1)))
			} else {
				alg, err = parking.NewDeterministic(goldenConfig())
			}
			if err != nil {
				t.Fatal(err)
			}
			return parking.NewLeaser(alg)
		}
	}
}

// goldenReusable streams 300 steps of zero to three usage requests of
// duration 0–5 into a three-unit pool, so requests queue up, some are
// rejected and units buy leases of every length.
func goldenReusable(opts reusable.Options) func(*testing.T, int64) ([]stream.Event, func() stream.Leaser) {
	return func(t *testing.T, seed int64) ([]stream.Event, func() stream.Leaser) {
		rng := rand.New(rand.NewSource(seed))
		var reqs []reusable.Request
		for step := int64(0); step < 300; step++ {
			for c := rng.Intn(4); c > 0; c-- {
				reqs = append(reqs, reusable.Request{T: step, Dur: int64(rng.Intn(6))})
			}
		}
		return reusable.Events(reqs), func() stream.Leaser {
			alg, err := reusable.NewOnline(goldenConfig(), 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			return reusable.NewLeaser(alg)
		}
	}
}
