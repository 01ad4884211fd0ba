package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"leasing"
)

// daemon is an in-process lease service on a loopback port.
type daemon struct {
	url  string
	srv  *http.Server
	done sync.WaitGroup
}

// listen opens a fresh 127.0.0.1 port and returns it with its base URL.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serveOn starts h on ln.
func serveOn(ln net.Listener, url string, h http.Handler) *daemon {
	d := &daemon{url: url, srv: &http.Server{Handler: h}}
	d.done.Add(1)
	go func() {
		defer d.done.Done()
		d.srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return d
}

// close stops the daemon and waits for its serve loop to exit.
func (d *daemon) close() {
	d.srv.Close()
	d.done.Wait()
}

// handler wraps the lease server in the benchmark's tracing handler in
// a traced round.
func (e *env) handler(h http.Handler, byName map[string]*probe) http.Handler {
	if e.tr == nil {
		return h
	}
	return &tracedHandler{next: h, tr: e.tr, probes: byName}
}

// httpClient is the client's HTTP stack: at most one connection per
// sender to each host, and in a traced round the benchmark's tracing
// transport counting on the wire.
func (e *env) httpClient(counts *wireCounts) (*http.Client, *http.Transport) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = senders()
	tr.MaxIdleConnsPerHost = senders()
	if e.tr == nil {
		return &http.Client{Transport: tr}, tr
	}
	return &http.Client{Transport: &tracedTransport{base: tr, tr: e.tr, name: "client.roundtrip", counts: counts}}, tr
}

// remoteSubmit is the submit call of the remote workloads: the client's
// Submit, in a traced round inside a client.submit span whose id the
// tracing transport carries to the server.
func (e *env) remoteSubmit(ctx context.Context, submit func(context.Context, string, []leasing.RemoteEvent) (int, error)) func(*probe, *call) error {
	return func(p *probe, c *call) error {
		if e.tr == nil {
			_, err := submit(ctx, p.t.name, p.t.wevs[c.lo:c.hi])
			return err
		}
		s := span{ID: c.span, Req: c.req, Name: "client.submit", Tenant: p.t.name, Start: e.clk.now()}
		_, err := submit(withCall(ctx, e.tr, c), p.t.name, p.t.wevs[c.lo:c.hi])
		s.End = e.clk.now()
		e.tr.add(s)
		return err
	}
}

// wireLayers records the tracing transport's counts in a traced round.
func (e *env) wireLayers(c *wireCounts) {
	if e.tr == nil {
		return
	}
	e.rd.add("wire.submit.bytes", float64(c.submitBytes.Load()))
	e.rd.add("wire.read.bytes", float64(c.readBytes.Load()))
	e.rd.add("wire.read.calls", float64(c.reads.Load()))
	e.rd.add("client.http_429", float64(c.http429.Load()))
	e.rd.add("client.submit_trips", float64(c.submitTrips.Load()))
}

// engineLayers records an engine's counters in a traced round.
func (e *env) engineLayers(engs ...*leasing.Engine) {
	if e.tr == nil {
		return
	}
	for _, eng := range engs {
		m := eng.Metrics()
		e.rd.add("engine.events", float64(m.Events))
		e.rd.add("engine.batches", float64(m.Batches))
		e.rd.add("engine.dropped", float64(m.Dropped))
	}
}

// ingestRound runs ingest-binary: a loopback daemon in this process,
// binary framing, closed-loop clients, no WAL.
func ingestRound(e *env) (*round, error) {
	ctx := context.Background()
	ts, err := e.begin()
	if err != nil {
		return nil, err
	}
	probes, byName := e.probes(ts)
	var pending pendingLeaser
	eng := leasing.NewEngine(engineConfig())
	defer eng.Close()
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	d := serveOn(ln, url, e.handler(leasing.Serve(eng, leasing.LeaseServerConfig{Builder: pending.builder}), byName))
	defer d.close()
	counts := &wireCounts{}
	hc, transport := e.httpClient(counts)
	defer transport.CloseIdleConnections()
	cli := leasing.Dial(d.url, leasing.RemoteClientOptions{Chunk: e.wl.chunk, Binary: true, HTTPClient: hc})
	for _, p := range probes {
		pending.next.Store(p)
		e.rd.attempted++
		if err := cli.Open(ctx, p.t.name, p.t.spec); err != nil {
			return nil, fmt.Errorf("open %s: %w", p.t.name, err)
		}
	}

	w := e.openWindow(nil)
	err = closedLoop(senders(), probes, e.wl.chunk, e.clk, e.tr, e.remoteSubmit(ctx, cli.Submit))
	if err == nil {
		err = cli.Flush(ctx, ts[0].name)
	}
	e.closeWindow(w, totalEvents(ts))
	if err != nil {
		return nil, err
	}

	reads, _, errs := checkRemote(ctx, cli, probes, e.refs)
	e.rd.reads = reads
	e.rd.attempted += int64(len(reads))
	e.check(len(probes), errs)
	e.engineLayers(eng)
	e.wireLayers(counts)
	return e.finish(probes), nil
}
