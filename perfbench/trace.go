package main

// The benchmark measures every layer from outside, at its public seams:
// a stream.Leaser decorator (timedLeaser), an engine WAL decorator
// (tracedWAL), an http.Handler wrapper around the lease server
// (tracedHandler) and an http.RoundTripper wrapper for the clients and
// the replication shipper (tracedTransport). In a traced round each
// records spans — name, start, end, parent and request id — into an
// in-memory tracer; the per-layer metrics are computed from them after
// the round. A plain round installs only the leaser decorator, which
// stores one timestamp per event for the decision latency.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leasing"
)

// Headers the benchmark's own client and handler wrappers use to link
// a server span to the client round trip that caused it.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// clock reads monotonic nanoseconds since the start of a round.
type clock struct{ base time.Time }

func newClock() *clock      { return &clock{base: time.Now()} }
func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// span is one timed call at a layer boundary.
type span struct {
	ID, Parent, Req int64
	Name            string
	Tenant          string
	Start, End      int64 // clock nanoseconds
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. A nil *tracer records nothing, which
// is how plain rounds run the same code paths untraced.
type tracer struct {
	clk   *clock
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(clk *clock) *tracer { return &tracer{clk: clk} }

// id allocates a span or request id; ids start at 1, 0 means none.
func (tr *tracer) id() int64 {
	if tr == nil {
		return 0
	}
	return tr.ids.Add(1)
}

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return slices.Clone(tr.spans)
}

// selfTime is s's duration minus the part of its interval that the
// union of its children's intervals covers, so overlapping children are
// subtracted once.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmpInt64(a[0], b[0]) })
	var covered, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		covered += curHi - curLo
	}
	return s.dur() - covered
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// call is one submit a sender made for a tenant: the event range it
// carried, when it was due (its start in a closed loop), when it was
// acknowledged, and the request and span ids a traced round gave it.
type call struct {
	lo, hi   int
	due, end int64
	req      int64
	span     int64
	failed   bool
}

// probe is one tenant's measurement state for a round. done and
// obsStart are preallocated, one slot per event, and written only by
// the goroutine driving the tenant's leaser; calls is written only by
// the tenant's sender. Both are read after the round's flush barrier.
type probe struct {
	t        *tenant
	clk      *clock
	traced   bool
	done     []int64 // Observe return, per event
	obsStart []int64 // Observe start, per event (traced rounds)
	n        int     // events observed
	snapNs   int64   // time in Snapshot (traced rounds)
	calls    []call
	inflight atomic.Int64 // span id of the tenant's in-flight submit

	// With notify set, the decorator sends the probe on it once the
	// event before index waitFor, the last of the call in flight, has
	// been decided (see decidedLoop).
	notify  chan *probe
	waitFor atomic.Int64
}

func newProbe(t *tenant, clk *clock, traced bool, chunk int) *probe {
	p := &probe{t: t, clk: clk, traced: traced, done: make([]int64, len(t.events)),
		calls: make([]call, 0, len(t.events)/chunk+1)}
	if traced {
		p.obsStart = make([]int64, len(t.events))
	}
	return p
}

// timedLeaser decorates a session's leaser with the per-event
// timestamps behind the decision latency.
type timedLeaser struct {
	leasing.Leaser
	p *probe
}

func (l *timedLeaser) Observe(ev leasing.Event) (leasing.Decision, error) {
	p := l.p
	i := p.n
	if i >= len(p.done) {
		return leasing.Decision{}, fmt.Errorf("perfbench: %s observed more than its %d events", p.t.name, len(p.done))
	}
	p.n++
	if p.traced {
		p.obsStart[i] = p.clk.now()
	}
	d, err := l.Leaser.Observe(ev)
	p.done[i] = p.clk.now()
	if p.notify != nil && int64(i+1) == p.waitFor.Load() {
		p.notify <- p
	}
	return d, err
}

func (l *timedLeaser) Snapshot() leasing.Solution {
	if !l.p.traced {
		return l.Leaser.Snapshot()
	}
	t0 := l.p.clk.now()
	s := l.Leaser.Snapshot()
	l.p.snapNs += l.p.clk.now() - t0
	return s
}

// pendingLeaser hands the next built session its probe. Sessions are
// opened one at a time, so the lease server's Builder, which sees only
// the open spec, picks up the probe set just before the open request.
type pendingLeaser struct{ next atomic.Pointer[probe] }

func (pl *pendingLeaser) builder(req *leasing.RemoteOpenRequest) (leasing.Leaser, error) {
	l, err := req.Build()
	if err != nil {
		return nil, err
	}
	p := pl.next.Swap(nil)
	if p == nil {
		return nil, fmt.Errorf("perfbench: session built with no pending probe")
	}
	return &timedLeaser{Leaser: l, p: p}, nil
}

// tracedWAL decorates an engine's write-ahead log: every append is a
// wal.append span whose parent is the tenant's in-flight submit.
type tracedWAL struct {
	next   leasing.EngineWAL
	tr     *tracer
	probes map[string]*probe
}

func (w *tracedWAL) timed(tenant string, f func() error) error {
	var parent int64
	if p := w.probes[tenant]; p != nil {
		parent = p.inflight.Load()
	}
	s := span{ID: w.tr.id(), Parent: parent, Name: "wal.append", Tenant: tenant, Start: w.tr.clk.now()}
	err := f()
	s.End = w.tr.clk.now()
	w.tr.add(s)
	return err
}

func (w *tracedWAL) LogOpen(tenant string, spec []byte) error {
	return w.timed(tenant, func() error { return w.next.LogOpen(tenant, spec) })
}

func (w *tracedWAL) LogEvents(tenant string, evs []leasing.Event) error {
	return w.timed(tenant, func() error { return w.next.LogEvents(tenant, evs) })
}

func (w *tracedWAL) LogClose(tenant string) error {
	return w.timed(tenant, func() error { return w.next.LogClose(tenant) })
}

// endpoint names the lease-service endpoint a request addresses, as
// internal/wire declares it, and the tenant in its path.
func endpoint(method, path string) (name, tenant string) {
	switch {
	case path == "/v1/replica/records":
		return "replicate", ""
	case path == "/v1/replica/activate":
		return "activate", ""
	case path == "/v1/metrics":
		return "metrics", ""
	case path == "/v1/healthz":
		return "health", ""
	}
	rest, ok := strings.CutPrefix(path, "/v1/tenants/")
	if !ok {
		return "other", ""
	}
	tenant, suffix, _ := strings.Cut(rest, "/")
	switch suffix {
	case "":
		if method == http.MethodDelete {
			return "close", tenant
		}
		return "open", tenant
	case "events":
		if method == http.MethodGet {
			return "events", tenant
		}
		return "submit", tenant
	}
	return suffix, tenant
}

// tracedHandler wraps the lease server: each request is a
// server.<endpoint> span, linked to the client round trip through the
// benchmark's headers, and marks the tenant's in-flight submit so WAL
// appends find their parent.
type tracedHandler struct {
	next   http.Handler
	tr     *tracer
	probes map[string]*probe
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, tenant := endpoint(r.Method, r.URL.Path)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	s := span{ID: h.tr.id(), Parent: parent, Req: req, Name: "server." + name, Tenant: tenant}
	if p := h.probes[tenant]; p != nil {
		p.inflight.Store(s.ID)
	}
	s.Start = h.tr.clk.now()
	h.next.ServeHTTP(w, r)
	s.End = h.tr.clk.now()
	h.tr.add(s)
}

// callKey carries a benchmark call's span into the client's requests.
type callKey struct{}

type callInfo struct{ req, span int64 }

// wireCounts are the bytes and responses a tracedTransport saw.
type wireCounts struct {
	submitBytes, readBytes, reads atomic.Int64
	submitTrips, http429          atomic.Int64
}

// tracedTransport wraps a client transport: each round trip is a span
// named name (client.roundtrip or cluster.ship) that lasts until the
// response body is closed, carries the benchmark headers to the server,
// and counts request and response bytes on the wire.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	name   string
	counts *wireCounts
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep, tenant := endpoint(req.Method, req.URL.Path)
	s := span{ID: t.tr.id(), Name: t.name, Tenant: tenant}
	s.Req = s.ID
	if info, ok := req.Context().Value(callKey{}).(*callInfo); ok {
		s.Parent, s.Req = info.span, info.req
	}
	// A RoundTripper must not modify the caller's request.
	req = req.Clone(req.Context())
	req.Header.Set(hdrSpan, strconv.FormatInt(s.ID, 10))
	req.Header.Set(hdrReq, strconv.FormatInt(s.Req, 10))
	if ep == "submit" {
		t.counts.submitTrips.Add(1)
		t.counts.submitBytes.Add(max(req.ContentLength, 0))
	}
	s.Start = t.tr.clk.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.tr.clk.now()
		t.tr.add(s)
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		t.counts.http429.Add(1)
	}
	read := ep == "cost" || ep == "snapshot"
	if read {
		t.counts.reads.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t, s: s, read: read}
	return resp, nil
}

// countingBody ends its round trip's span when the body is closed and
// counts read responses' bytes.
type countingBody struct {
	io.ReadCloser
	t    *tracedTransport
	s    span
	read bool
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.read {
		b.t.counts.readBytes.Add(int64(n))
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.tr.clk.now()
		b.t.tr.add(b.s)
	})
	return err
}

// observeSpans materializes the per-event Observe spans of a traced
// round: each is named after the tenant's domain, and its parent is the
// submit span that acknowledged the call carrying the event (ackSpan
// maps a call's request id to it).
func observeSpans(probes []*probe, ackSpan map[int64]span) []span {
	var out []span
	for _, p := range probes {
		for _, c := range p.calls {
			parent := ackSpan[c.req].ID
			for i := c.lo; i < c.hi && i < p.n; i++ {
				out = append(out, span{Parent: parent, Req: c.req, Name: p.t.domain + ".observe",
					Tenant: p.t.name, Start: p.obsStart[i], End: p.done[i]})
			}
		}
	}
	return out
}

// writeSpans writes spans as tab-separated lines:
// id, parent, request, name, tenant, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\ttenant\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.ID, s.Parent, s.Req, s.Name, s.Tenant, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// withCall returns ctx carrying the call's ids for tracedTransport; a
// plain round passes ctx through untouched.
func withCall(ctx context.Context, tr *tracer, c *call) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, callKey{}, &callInfo{req: c.req, span: c.span})
}
