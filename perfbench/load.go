package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"leasing"
	"leasing/internal/wire"
)

// closedLoop is the closed-loop load generator: probes are partitioned
// round-robin across senders, and each sender submits its tenants'
// streams chunk by chunk, interleaving its tenants, sending the next
// chunk only when the previous call has returned.
func closedLoop(senders int, probes []*probe, chunk int, clk *clock, tr *tracer, submit func(*probe, *call) error) error {
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		mine := share(probes, s, senders)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for live := true; live; {
				live = false
				for _, p := range mine {
					if nextEvent(p) >= len(p.t.events) {
						continue
					}
					if errs[s] = submitNext(p, chunk, clk, tr, submit); errs[s] != nil {
						return
					}
					live = live || nextEvent(p) < len(p.t.events)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// share is sender s's share of the probes when n senders split them
// round-robin.
func share(probes []*probe, s, n int) []*probe {
	var mine []*probe
	for i := s; i < len(probes); i += n {
		mine = append(mine, probes[i])
	}
	return mine
}

// submitNext submits p's next chunk, timing the call from its start to
// its acknowledgement and appending it to p's calls.
func submitNext(p *probe, chunk int, clk *clock, tr *tracer, submit func(*probe, *call) error) error {
	lo := nextEvent(p)
	c := call{lo: lo, hi: min(lo+chunk, len(p.t.events)), req: tr.id(), span: tr.id()}
	p.waitFor.Store(int64(c.hi))
	c.due = clk.now()
	err := submit(p, &c)
	c.end = clk.now()
	c.failed = err != nil
	p.calls = append(p.calls, c)
	if err != nil {
		return fmt.Errorf("%s events [%d:%d): %w", p.t.name, c.lo, c.hi, err)
	}
	return nil
}

// decidedLoop is the in-process closed loop: a sender submits a
// tenant's next chunk only once every event of its previous chunk has
// been decided, so each tenant has at most one chunk in the engine and
// an event's decision latency is its own wait, not a backlog the
// senders piled up. Each sender serves its tenants in the order their
// decisions come back.
func decidedLoop(senders int, probes []*probe, chunk int, clk *clock, tr *tracer, submit func(*probe, *call) error) error {
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		mine := share(probes, s, senders)
		// Sized for every tenant of the sender: the deciding shard
		// goroutine never blocks on it.
		notify := make(chan *probe, len(mine))
		for _, p := range mine {
			p.notify = notify
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range mine {
				if errs[s] = submitNext(p, chunk, clk, tr, submit); errs[s] != nil {
					return
				}
			}
			for live := len(mine); live > 0; {
				select {
				case p := <-notify:
					if nextEvent(p) >= len(p.t.events) {
						live--
						continue
					}
					if errs[s] = submitNext(p, chunk, clk, tr, submit); errs[s] != nil {
						return
					}
				case <-time.After(time.Minute):
					errs[s] = fmt.Errorf("sender %d: no decision for a minute", s)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// nextEvent is the first event of p's stream not yet submitted.
func nextEvent(p *probe) int {
	if n := len(p.calls); n > 0 {
		return p.calls[n-1].hi
	}
	return 0
}

// opTiming is when an open-loop operation was due, started and ended.
type opTiming struct {
	due, start, end int64
	err             error
}

// openLoop is the open-loop load generator: each sender runs its
// operations in order, starting each at its due time, or at once when
// the sender is already behind. Because latency is taken from the due
// time, a stall delays and is charged to every operation scheduled
// behind it: there is no coordinated omission. dues[s] lists sender s's
// due times in clock nanoseconds; do(s, i) performs operation i of s.
func openLoop(clk *clock, dues [][]int64, do func(s, i int) error) [][]opTiming {
	out := make([][]opTiming, len(dues))
	var wg sync.WaitGroup
	for s := range dues {
		out[s] = make([]opTiming, len(dues[s]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, due := range dues[s] {
				if d := due - clk.now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				t := opTiming{due: due, start: clk.now()}
				t.err = do(s, i)
				t.end = clk.now()
				out[s][i] = t
			}
		}()
	}
	wg.Wait()
	return out
}

// tenantReader is the remote read surface the checks use; the
// single-node client and the cluster client both provide it.
type tenantReader interface {
	Result(context.Context, string) (*wire.Run, error)
	Cost(context.Context, string) (wire.CostBreakdown, error)
	Snapshot(context.Context, string) (wire.Solution, error)
}

// checkEngine compares every tenant's recorded run, cached cost and
// snapshot on eng with its reference, timing each cost and snapshot
// read. It returns the reads' latencies (µs) and one error per
// mismatching tenant.
func checkEngine(eng *leasing.Engine, probes []*probe, refs []reference) ([]float64, []error) {
	var reads []float64
	var errs []error
	for i, p := range probes {
		name := p.t.name
		run, err := eng.Result(name)
		if err == nil && !bytes.Equal(wire.AppendRunBinary(nil, run), refs[i].run) {
			err = fmt.Errorf("recorded run differs from Replay")
		}
		t0 := time.Now()
		cost, cerr := eng.Cost(name)
		reads = append(reads, micros(int64(time.Since(t0))))
		t0 = time.Now()
		snap, serr := eng.Snapshot(name)
		reads = append(reads, micros(int64(time.Since(t0))))
		err = errors.Join(err, cerr, serr)
		if err == nil && cost != refs[i].cost {
			err = fmt.Errorf("cached cost %+v != replay %+v", cost, refs[i].cost)
		}
		if err == nil && fmt.Sprintf("%#v", snap) != refs[i].snap {
			err = fmt.Errorf("cached snapshot differs from Replay")
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("check %s: %w", name, err))
		}
	}
	return reads, errs
}

// checkRemote is checkEngine over the network: the run comes from the
// result endpoint, and cost and snapshot from their read endpoints. It
// also returns each tenant's cost as read.
func checkRemote(ctx context.Context, cli tenantReader, probes []*probe, refs []reference) ([]float64, map[string]leasing.CostBreakdown, []error) {
	var reads []float64
	var errs []error
	costs := map[string]leasing.CostBreakdown{}
	for i, p := range probes {
		name := p.t.name
		wrun, err := cli.Result(ctx, name)
		if err == nil && !bytes.Equal(wire.AppendRunBinary(nil, wrun.Stream()), refs[i].run) {
			err = fmt.Errorf("remote run differs from Replay")
		}
		t0 := time.Now()
		cost, cerr := cli.Cost(ctx, name)
		reads = append(reads, micros(int64(time.Since(t0))))
		t0 = time.Now()
		snap, serr := cli.Snapshot(ctx, name)
		reads = append(reads, micros(int64(time.Since(t0))))
		err = errors.Join(err, cerr, serr)
		if err == nil && (cost.Stream() != refs[i].cost || cost.Total != refs[i].cost.Total()) {
			err = fmt.Errorf("remote cost %+v != replay %+v", cost, refs[i].cost)
		}
		if err == nil && fmt.Sprintf("%#v", snap.Stream()) != refs[i].snap {
			err = fmt.Errorf("remote snapshot differs from Replay")
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("check %s: %w", name, err))
			continue
		}
		costs[name] = cost.Stream()
	}
	return reads, costs, errs
}
