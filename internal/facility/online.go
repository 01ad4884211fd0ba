package facility

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"leasing/internal/core"
	"leasing/internal/metric"
)

const eps = 1e-9

// MISOrder selects how phase 2 orders temporarily open facilities when
// building each conflict graph's maximal independent set.
type MISOrder int

// MIS orderings.
const (
	// ByOpeningTime considers temporarily opened facilities in the order
	// they became tight (the Jain–Vazirani order the analysis assumes).
	ByOpeningTime MISOrder = iota + 1
	// ByIndex considers them in site-index order (the ablation arm of
	// experiment E15).
	ByIndex
)

// Options tunes the online algorithm.
type Options struct {
	// MISOrder defaults to ByOpeningTime.
	MISOrder MISOrder
	// ResetEachRound drops the bidding history at multiples of l_max — the
	// round boundaries along which Theorem 4.5's analysis decomposes (all
	// facilities are closed there, so rounds are independent
	// sub-problems). The default (false) keeps the literal D_{<=t} of the
	// paper's pseudocode; the reset variant is the E15 ablation's second
	// arm. Connections already made are unaffected.
	ResetEachRound bool
}

// Online is the two-phase primal-dual algorithm of Section 4.3. Each time
// step: phase 1 raises client potentials continuously — a potential
// α_{jk} freezes when it reaches an open type-k facility or the client's
// cap α̂_j, and a closed facility opens temporarily the moment its bids
// sum to its lease cost (invariant INV1) — and phase 2 keeps a maximal
// independent set of each type's conflict graph, permanently leasing the
// survivors and reconnecting new clients through conflict witnesses
// (Proposition 4.2 bounds the detour by a factor 3).
//
// Phase 1 is event driven and incremental: each site's clients stay
// sorted by distance across steps (sorted insertion); a step's initial
// freeze triggers are sorted once into a run, and triggers changed later
// in the step go to a small min-heap; each closed (site, type) caches the
// bid sum of its frozen bidders and its last tight time and skips frozen
// clients in its distance order; and closed facilities are scanned for
// openings only when the next freeze comes within eps of the earliest
// tight time, since freezes only delay tight times. Phase 2 checks a
// conflict over the bidders of one facility. Every floating-point sum is
// formed from the same terms in the same order as a from-scratch
// evaluation, so the output is bit-identical to re-sorting and
// rescanning everything per event.
type Online struct {
	inst       *Instance
	store      *core.ItemStore
	misOrder   MISOrder
	resetRound bool

	clients  []clientState // clients still bidding (current round if resetting)
	assigns  []Assignment  // every client's final assignment, in arrival order
	connCost float64
	dualSum  float64
	step     int64

	// order[i] lists the bidding clients by distance to site i, kept
	// sorted across steps; rank[i][j] is client j's position in it.
	order [][]int32
	rank  [][]int32
	ps    phaseState // per-step phase state, buffers reused across steps
}

type clientState struct {
	alphaHat float64
	dists    []float64 // distance to each site
	assign   Assignment
}

// NewOnline builds the online algorithm for an instance.
func NewOnline(inst *Instance, opts Options) (*Online, error) {
	order := opts.MISOrder
	if order == 0 {
		order = ByOpeningTime
	}
	if order != ByOpeningTime && order != ByIndex {
		return nil, fmt.Errorf("facility: unknown MIS order %d", int(order))
	}
	store, err := core.NewItemStore(inst.Cfg, inst.FacCosts)
	if err != nil {
		return nil, err
	}
	return &Online{
		inst: inst, store: store, misOrder: order, resetRound: opts.ResetEachRound,
		order: make([][]int32, len(inst.Sites)),
		rank:  make([][]int32, len(inst.Sites)),
	}, nil
}

// Run processes every batch of the instance in order.
func (o *Online) Run() error {
	for t, batch := range o.inst.Batches {
		if err := o.Step(int64(t), batch); err != nil {
			return err
		}
	}
	return nil
}

// Step processes the batch arriving at time t. Steps must be fed in
// increasing order.
func (o *Online) Step(t int64, batch []metric.Point) error {
	if t < o.step {
		return fmt.Errorf("facility: step %d after %d", t, o.step)
	}
	o.step = t + 1
	if o.resetRound && t%o.inst.Cfg.LMax() == 0 && len(o.clients) > 0 {
		o.clients = o.clients[:0]
		for i := range o.order {
			o.order[i], o.rank[i] = o.order[i][:0], o.rank[i][:0]
		}
		o.ps.queue.run = o.ps.queue.run[:0] // it orders the dropped clients
	}
	newStart := len(o.clients)
	for _, p := range batch {
		o.addClient(p)
	}
	if len(batch) == 0 {
		return nil
	}

	if err := o.phase1(t); err != nil {
		return err
	}
	o.phase2(t, newStart)
	for j := newStart; j < len(o.clients); j++ {
		o.dualSum += o.clients[j].alphaHat
		o.assigns = append(o.assigns, o.clients[j].assign)
	}
	return nil
}

// addClient appends a bidding client and inserts it into every site's
// distance order.
func (o *Online) addClient(p metric.Point) {
	cs := clientState{alphaHat: math.Inf(1), assign: Assignment{Facility: -1}}
	cs.dists = make([]float64, len(o.inst.Sites))
	for i, s := range o.inst.Sites {
		cs.dists[i] = metric.Dist(s, p)
	}
	j := int32(len(o.clients))
	o.clients = append(o.clients, cs)
	for i, d := range cs.dists {
		ord := o.order[i]
		at := sort.Search(len(ord), func(q int) bool { return o.clients[ord[q]].dists[i] > d })
		ord = append(ord, 0)
		copy(ord[at+1:], ord[at:])
		ord[at] = j
		rank := append(o.rank[i], 0)
		for q := at; q < len(ord); q++ {
			rank[ord[q]] = int32(q)
		}
		o.order[i], o.rank[i] = ord, rank
	}
}

// phaseState is one step's phase-1 state, read by phase 2. Per-client
// arrays are indexed j*k+kk, per-facility arrays i*k+kk.
type phaseState struct {
	k        int
	alpha    []float64 // potential per (client, type); final once frozen
	frozen   []bool    // (client, type) potential stopped rising
	minOpen  []float64 // distance to the nearest open type-k facility
	isOpen   []bool    // (site, type) open
	isTemp   []bool    // subset of isOpen opened this step
	openAt   []float64 // potential value at opening (0 for permanent)
	selected []bool    // phase 2: kept in the type's independent set
	temp     []int     // phase 2 scratch

	// Per (site, type): the frozen clients whose potential exceeds their
	// distance (the bidders), in index order; their bid sum; and whether
	// that sum must be recomputed.
	bids      [][]int32
	bidSum    []float64
	bidsDirty []bool
	// skip[ik] are union-find links over order[i]: following them from a
	// position reaches the next client still active for type kk.
	skip [][]int32
	// tight[ik] caches the facility's last tight time.
	tight []tightCache

	queue   freezeQueue
	trig    []float64 // per client: its live trigger (see trigger)
	version []int32   // per client: the version of its live queue entry
	touched []int32   // clients with a trigger at the current tau
}

func (ps *phaseState) reset(n, m, k int) {
	ps.k = k
	ps.alpha = resize(ps.alpha, n*k)
	ps.frozen = resize(ps.frozen, n*k)
	ps.minOpen = resize(ps.minOpen, n*k)
	ps.isOpen = resize(ps.isOpen, m*k)
	ps.isTemp = resize(ps.isTemp, m*k)
	ps.openAt = resize(ps.openAt, m*k)
	ps.selected = resize(ps.selected, m*k)
	ps.bidSum = resize(ps.bidSum, m*k)
	ps.bidsDirty = resize(ps.bidsDirty, m*k)
	ps.tight = resize(ps.tight, m*k)
	ps.trig = resize(ps.trig, n)
	ps.version = resize(ps.version, n)
	if len(ps.bids) != m*k {
		ps.bids = make([][]int32, m*k)
		ps.skip = make([][]int32, m*k)
	}
	for ik := range ps.bids {
		ps.bids[ik] = ps.bids[ik][:0]
		skip := resize(ps.skip[ik], n+1)
		for p := range skip {
			skip[p] = int32(p)
		}
		ps.skip[ik] = skip
	}
}

// resize returns s with length n and every element zeroed, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	s = s[:n]
	clear(s)
	return s
}

func (o *Online) phase1(t int64) error {
	var (
		n  = len(o.clients)
		m  = len(o.inst.Sites)
		k  = o.inst.Cfg.K()
		ps = &o.ps
	)
	ps.reset(n, m, k)
	for kk := 0; kk < k; kk++ {
		for i := 0; i < m; i++ {
			il := core.ItemLease{Item: i, K: kk, Start: o.inst.Cfg.AlignedStart(kk, t)}
			ps.isOpen[i*k+kk] = o.store.Has(il)
		}
	}
	for j := range o.clients {
		cs := &o.clients[j]
		trig := cs.alphaHat // every potential starts active (see trigger)
		for kk := 0; kk < k; kk++ {
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				if ps.isOpen[i*k+kk] && cs.dists[i] < best {
					best = cs.dists[i]
				}
			}
			ps.minOpen[j*k+kk] = best
			trig = min(trig, best)
		}
		ps.trig[j] = trig
	}
	ps.queue.start(ps.trig)

	active := n * k
	// bound is the earliest tight time among the facilities still closed
	// after the last opening scan. Freezes only delay tight times, so a
	// freeze group whose trigger lies eps below bound cannot be preceded
	// or accompanied by an opening and needs no scan (DESIGN.md).
	tau, bound := 0.0, math.Inf(-1)
	maxEvents := 4*(n*k+m*k) + 16
	for ev := 0; active > 0; ev++ {
		if ev > maxEvents {
			return errors.New("facility: phase 1 exceeded event budget (numerical stall)")
		}
		nextFreeze := math.Inf(1)
		if e, ok := o.nextTrigger(); ok {
			nextFreeze = e.at
		}
		if nextFreeze+eps < bound {
			tau = nextFreeze
		} else {
			next := math.Min(nextFreeze, o.nextOpening(tau))
			if math.IsInf(next, 1) {
				return errors.New("facility: phase 1 stalled with active potentials")
			}
			tau = math.Max(tau, next)
			bound = o.openTight(tau)
		}
		// Freeze cascade at tau, per client whose trigger fired: a new
		// client's first facility-freeze sets its cap, which immediately
		// freezes its remaining potentials. The cascade leaves a client's
		// remaining potentials with triggers above tau+eps.
		ps.touched = ps.touched[:0]
		for {
			e, ok := o.nextTrigger()
			if !ok || e.at > tau+eps {
				break
			}
			ps.queue.pop()
			ps.touched = append(ps.touched, e.j)
		}
		for _, j := range ps.touched {
			active -= o.cascade(int(j), tau)
			if at, live := o.trigger(int(j)); live {
				o.pushTrigger(int(j), at)
			}
		}
	}
	return nil
}

// nextOpening returns the earliest tight time, from tau on, of the
// facilities still closed.
func (o *Online) nextOpening(tau float64) float64 {
	ps := &o.ps
	next := math.Inf(1)
	for ik, open := range ps.isOpen {
		if !open {
			next = math.Min(next, o.tightTime(ik/ps.k, ik%ps.k, tau))
		}
	}
	return next
}

// openTight temporarily opens every closed facility tight at tau,
// lowering the triggers of the clients it is now nearest to, and returns
// the earliest tight time of the facilities left closed.
func (o *Online) openTight(tau float64) float64 {
	ps := &o.ps
	bound := math.Inf(1)
	for ik, open := range ps.isOpen {
		if open {
			continue
		}
		i, kk := ik/ps.k, ik%ps.k
		if at := o.tightTime(i, kk, tau); at > tau+eps {
			bound = math.Min(bound, at)
			continue
		}
		ps.isOpen[ik] = true
		ps.isTemp[ik] = true
		ps.openAt[ik] = tau
		for j := range o.clients {
			jk := j*ps.k + kk
			d := o.clients[j].dists[i]
			if d >= ps.minOpen[jk] {
				continue
			}
			// An active potential's trigger is the min over its
			// terms, so a nearer facility lowers it to exactly d.
			ps.minOpen[jk] = d
			if !ps.frozen[jk] && d < ps.trig[j] {
				o.pushTrigger(j, d)
			}
		}
	}
	return bound
}

// trigger returns the potential value at which client j's next
// potential freezes, min over its active types k of min(α̂_j, distance
// to the nearest open type-k facility), and whether any of its
// potentials is still active.
func (o *Online) trigger(j int) (float64, bool) {
	ps := &o.ps
	at, live := o.clients[j].alphaHat, false
	for kk, jk := 0, j*ps.k; kk < ps.k; kk, jk = kk+1, jk+1 {
		if !ps.frozen[jk] {
			at, live = min(at, ps.minOpen[jk]), true
		}
	}
	return at, live
}

// pushTrigger makes at client j's live trigger; its older queue entries
// go stale.
func (o *Online) pushTrigger(j int, at float64) {
	ps := &o.ps
	ps.trig[j] = at
	ps.version[j]++
	ps.queue.heap.push(freezeEntry{at: at, j: int32(j), version: ps.version[j]})
}

// nextTrigger returns the earliest live freeze trigger. A client's
// trigger changes only by falling when a facility opens or by rising
// when the cascade freezes some of its potentials; both push a fresh
// entry, and a client whose potentials are all frozen has only stale
// ones.
func (o *Online) nextTrigger() (freezeEntry, bool) {
	return o.ps.queue.peek(o.ps.version)
}

// cascade freezes, in type order, every potential of client j that has
// reached an open facility or the client's cap at tau. A new client's
// first facility-freeze connects it and sets its cap to tau, which
// freezes its remaining potentials on the next pass. It returns how many
// potentials it froze.
func (o *Online) cascade(j int, tau float64) int {
	ps := &o.ps
	cs := &o.clients[j]
	frozen := 0
	for changed := true; changed; {
		changed = false
		for kk := 0; kk < ps.k; kk++ {
			jk := j*ps.k + kk
			if ps.frozen[jk] {
				continue
			}
			byFacility := ps.minOpen[jk] <= tau+eps
			byCap := cs.alphaHat <= tau+eps
			if !byFacility && !byCap {
				continue
			}
			o.freeze(j, kk, tau)
			frozen++
			changed = true
			if byFacility && math.IsInf(cs.alphaHat, 1) {
				// New client connects to the nearest open type-k
				// facility it just reached.
				best, bestD := -1, math.Inf(1)
				for i, d := range cs.dists {
					if ps.isOpen[i*ps.k+kk] && d < bestD {
						best, bestD = i, d
					}
				}
				cs.alphaHat = tau
				cs.assign = Assignment{Facility: best, K: kk, Dist: bestD}
			}
		}
	}
	return frozen
}

// freeze fixes α_{jk} at tau: client j leaves every type-k distance
// order's active set and, where tau exceeds its distance, joins that
// facility's bidders.
func (o *Online) freeze(j, kk int, tau float64) {
	ps := &o.ps
	jk := j*ps.k + kk
	ps.frozen[jk] = true
	ps.alpha[jk] = tau
	for i, d := range o.clients[j].dists {
		ik := i*ps.k + kk
		p := o.rank[i][j]
		ps.skip[ik][p] = p + 1
		if p < ps.tight[ik].horizon || tau > d {
			ps.tight[ik].valid = false
		}
		if tau <= d {
			continue
		}
		bids := ps.bids[ik]
		if len(bids) == 0 || int(bids[len(bids)-1]) < j {
			// Appending the highest index extends the index-order sum
			// by its last term: the same float a recomputation gives.
			ps.bids[ik] = append(bids, int32(j))
			ps.bidSum[ik] += tau - d
			continue
		}
		at := sort.Search(len(bids), func(q int) bool { return int(bids[q]) > j })
		bids = append(bids, 0)
		copy(bids[at+1:], bids[at:])
		bids[at] = int32(j)
		ps.bids[ik] = bids
		ps.bidsDirty[ik] = true
	}
}

// bidBase returns the bids of frozen clients toward the closed facility
// (i, kk): the sum of α_{jk} − d_ij over its bidders in index order.
func (o *Online) bidBase(i, kk int) float64 {
	ps := &o.ps
	ik := i*ps.k + kk
	if ps.bidsDirty[ik] {
		sum := 0.0
		for _, j := range ps.bids[ik] {
			sum += ps.alpha[int(j)*ps.k+kk] - o.clients[j].dists[i]
		}
		ps.bidSum[ik], ps.bidsDirty[ik] = sum, false
	}
	return ps.bidSum[ik]
}

// tightCache is a closed facility's last computed tight time at, valid
// while no bid toward it changed and no client it examined (order
// positions below horizon) froze. A query at a later tau returns at
// unchanged whenever at > tau+eps: the walk at the later tau fails every
// segment the earlier walk failed and passes the one it passed with the
// same value, so at is exactly what recomputing would give. This makes
// most of phase 1's per-event queries O(1), including the re-check of
// every closed facility after tau advances.
type tightCache struct {
	at      float64
	horizon int32
	valid   bool
}

// tightTime returns the earliest potential value tau* >= tau at which the
// bids toward the closed facility (i, k) would reach its cost, assuming no
// further freezes: frozen potentials contribute constants, active ones grow
// at unit rate past their distance kink. Within a step, tau must not
// decrease between calls.
func (o *Online) tightTime(i, kk int, tau float64) float64 {
	tc := &o.ps.tight[i*o.ps.k+kk]
	if tc.valid && tc.at > tau+eps {
		return tc.at
	}
	at, horizon := o.walkTightTime(i, kk, tau)
	*tc = tightCache{at: at, horizon: horizon, valid: true}
	return at
}

// walkTightTime computes tightTime from scratch. It also returns the
// walk's horizon: it examined no order position at or above it.
func (o *Online) walkTightTime(i, kk int, tau float64) (float64, int32) {
	c := o.inst.FacCosts[i][kk]
	base := o.bidBase(i, kk)
	if base >= c-eps {
		return tau, 0
	}
	// Walk active clients in distance order, accumulating the slope count
	// and distance mass; solve the linear piece that brackets tau*.
	order, skip := o.order[i], o.ps.skip[i*o.ps.k+kk]
	cnt := 0
	sumD := 0.0
	pos := int32(0)
	nextActive := func() (float64, bool) {
		pos = find(skip, pos)
		if int(pos) == len(order) {
			return 0, false
		}
		d := o.clients[order[pos]].dists[i]
		pos++
		return d, true
	}
	pending, havePending := nextActive()
	for havePending && pending <= tau {
		cnt++
		sumD += pending
		pending, havePending = nextActive()
	}
	cur := tau
	for {
		if cnt > 0 {
			tstar := (c - base + sumD) / float64(cnt)
			limit := math.Inf(1)
			if havePending {
				limit = pending
			}
			if tstar >= cur-eps && tstar <= limit+eps {
				return math.Max(tstar, cur), pos
			}
		}
		if !havePending {
			return math.Inf(1), pos
		}
		cur = pending
		cnt++
		sumD += pending
		pending, havePending = nextActive()
	}
}

// find returns the first position at or after p whose client is still
// active, pointing every link it walked straight at the answer.
func find(skip []int32, p int32) int32 {
	r := p
	for skip[r] != r {
		r = skip[r]
	}
	for p != r {
		skip[p], p = r, skip[p]
	}
	return r
}

// freezeEntry is a pending freeze: client j's next potential stops
// rising when the potentials reach at (see trigger).
type freezeEntry struct {
	at      float64
	j       int32
	version int32
}

// freezeQueue holds the pending freeze triggers: the step's initial
// triggers as one sorted run, read from head, and a min-heap of the
// triggers pushed since. An entry is live while its version is its
// client's current one; stale entries are dropped when they surface.
// Entries with equal triggers may surface in any order: a freeze group
// takes every trigger within eps of the earliest, a client's cascade
// reads only its own potentials and the open facilities, and a bid sum
// is rebuilt in client-index order after any out-of-order insertion.
type freezeQueue struct {
	run  []freezeEntry
	head int
	heap freezeHeap
}

// start begins a step with one live entry per client j, at version 0,
// keyed by trig[j]. The run keeps the previous step's client order, which
// old clients' fixed caps leave nearly sorted, and appends the new
// clients.
func (q *freezeQueue) start(trig []float64) {
	for p, e := range q.run {
		q.run[p] = freezeEntry{at: trig[e.j], j: e.j}
	}
	for j := len(q.run); j < len(trig); j++ {
		q.run = append(q.run, freezeEntry{at: trig[j], j: int32(j)})
	}
	slices.SortFunc(q.run, func(a, b freezeEntry) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	q.head, q.heap = 0, q.heap[:0]
}

// peek drops stale entries off both heads and returns the earlier live
// one.
func (q *freezeQueue) peek(version []int32) (freezeEntry, bool) {
	for q.head < len(q.run) && q.run[q.head].version != version[q.run[q.head].j] {
		q.head++
	}
	for len(q.heap) > 0 && q.heap[0].version != version[q.heap[0].j] {
		q.heap.pop()
	}
	switch {
	case q.fromRun():
		return q.run[q.head], true
	case len(q.heap) > 0:
		return q.heap[0], true
	}
	return freezeEntry{}, false
}

// fromRun reports whether the run's head precedes the heap's.
func (q *freezeQueue) fromRun() bool {
	return q.head < len(q.run) && (len(q.heap) == 0 || q.run[q.head].at <= q.heap[0].at)
}

// pop removes the entry peek returned.
func (q *freezeQueue) pop() {
	if q.fromRun() {
		q.head++
	} else {
		q.heap.pop()
	}
}

// freezeHeap is a binary min-heap of freeze entries by at.
type freezeHeap []freezeEntry

func (h *freezeHeap) push(e freezeEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *freezeHeap) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.down(0)
}

func (h freezeHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l].at < h[least].at {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r].at < h[least].at {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// phase2 builds the per-type conflict graphs, keeps a maximal independent
// set (permanent facilities first), permanently leases surviving temporary
// facilities, and (re)connects the step's new clients.
func (o *Online) phase2(t int64, newStart int) {
	var (
		n        = len(o.clients)
		m        = len(o.inst.Sites)
		k        = o.inst.Cfg.K()
		ps       = &o.ps
		selected = ps.selected
	)

	// Every client is frozen once phase 1 ends, so the bidders of (i1, kk)
	// are every client whose potential exceeds its distance to i1.
	conflict := func(kk, i1, i2 int) bool {
		for _, j := range ps.bids[i1*k+kk] {
			a := ps.alpha[int(j)*k+kk]
			d1 := o.clients[j].dists[i1]
			d2 := o.clients[j].dists[i2]
			if a > d1+eps && a > d2+eps {
				return true
			}
		}
		return false
	}

	for kk := 0; kk < k; kk++ {
		temp := ps.temp[:0]
		for i := 0; i < m; i++ {
			if !ps.isOpen[i*k+kk] {
				continue
			}
			if ps.isTemp[i*k+kk] {
				temp = append(temp, i)
			} else {
				selected[i*k+kk] = true // permanent facilities always stay
			}
		}
		switch o.misOrder {
		case ByOpeningTime:
			sort.Slice(temp, func(a, b int) bool {
				if oa, ob := ps.openAt[temp[a]*k+kk], ps.openAt[temp[b]*k+kk]; oa != ob {
					return oa < ob
				}
				return temp[a] < temp[b]
			})
		case ByIndex:
			sort.Ints(temp)
		}
		for _, i := range temp {
			free := true
			for i2 := 0; i2 < m; i2++ {
				if i2 != i && selected[i2*k+kk] && ps.isOpen[i2*k+kk] && conflict(kk, i, i2) {
					free = false
					break
				}
			}
			if free {
				selected[i*k+kk] = true
				il := core.ItemLease{Item: i, K: kk, Start: o.inst.Cfg.AlignedStart(kk, t)}
				if _, err := o.store.Buy(il); err != nil {
					// Indices are validated at construction; Buy cannot fail.
					panic(fmt.Sprintf("facility: buy %+v: %v", il, err))
				}
			}
		}
		ps.temp = temp
	}

	// Connect the new clients: keep the phase-1 facility if it survived,
	// otherwise route through a selected conflict neighbor (Prop 4.2).
	for j := newStart; j < n; j++ {
		cs := &o.clients[j]
		i, kk := cs.assign.Facility, cs.assign.K
		if i >= 0 && selected[i*k+kk] {
			o.connCost += cs.assign.Dist
			continue
		}
		bestI, bestD := -1, math.Inf(1)
		for i2 := 0; i2 < m; i2++ {
			if i2 == i || !selected[i2*k+kk] || !ps.isOpen[i2*k+kk] {
				continue
			}
			if conflict(kk, i, i2) && cs.dists[i2] < bestD {
				bestI, bestD = i2, cs.dists[i2]
			}
		}
		if bestI < 0 {
			// Maximality guarantees a selected neighbor exists; fall back to
			// the nearest selected facility of the same type to stay feasible
			// even under numerical ties.
			for i2 := 0; i2 < m; i2++ {
				if selected[i2*k+kk] && ps.isOpen[i2*k+kk] && cs.dists[i2] < bestD {
					bestI, bestD = i2, cs.dists[i2]
				}
			}
		}
		cs.assign = Assignment{Facility: bestI, K: kk, Dist: bestD}
		o.connCost += bestD
	}
}

// TotalCost returns leasing plus connection cost accumulated so far.
func (o *Online) TotalCost() float64 { return o.store.TotalCost() + o.connCost }

// LeaseCost returns the leasing part of the cost.
func (o *Online) LeaseCost() float64 { return o.store.TotalCost() }

// ConnectionCost returns the connection part of the cost.
func (o *Online) ConnectionCost() float64 { return o.connCost }

// DualTotal returns the sum of the client caps α̂_j, the dual objective of
// Lemma 4.1 (TotalCost <= (3+K) * DualTotal).
func (o *Online) DualTotal() float64 { return o.dualSum }

// Solution returns the bought facility leases and per-client assignments
// (in arrival order, including clients dropped from bidding by round
// resets) for verification.
func (o *Online) Solution() ([]FacilityLease, []Assignment) {
	var leases []FacilityLease
	for _, il := range o.store.Leases() {
		leases = append(leases, FacilityLease{Facility: il.Item, K: il.K, Start: il.Start})
	}
	return leases, append(make([]Assignment, 0, len(o.assigns)), o.assigns...)
}

// AssignmentsSince returns the assignments of every client after the
// first n, in arrival order — a client's assignment is final once its
// step returns. The slice aliases the algorithm's log; callers must not
// mutate it.
func (o *Online) AssignmentsSince(n int) []Assignment { return o.assigns[n:] }
