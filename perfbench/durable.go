package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"leasing"
)

// readEvery is how many submits each open-loop sender makes per read.
const readEvery = 8

// fleetNode is one member of the in-process two-node fleet, wired as
// cmd/leased wires cluster mode and cmd/leaseload -cluster-bench builds
// its fleets, but with fsync on.
type fleetNode struct {
	url         string
	dir         string
	own, follow *leasing.DurableLog
	sh          *leasing.ClusterShipper
	eng         *leasing.Engine
	d           *daemon
}

// close shuts the node down in drain order: HTTP, engine, shipper,
// follower log, own log. Closing twice is a no-op.
func (n *fleetNode) close() {
	if n.d != nil {
		n.d.close()
	}
	if n.eng != nil {
		n.eng.Close()
	}
	if n.sh != nil {
		n.sh.Close()
	}
	if n.follow != nil {
		n.follow.Close()
	}
	if n.own != nil {
		n.own.Close()
	}
	n.d, n.eng, n.sh, n.follow, n.own = nil, nil, nil, nil, nil
}

// openOp is one scheduled operation of an open-loop sender: a submit of
// events [lo, hi) of a tenant, or (read) a cost or snapshot read.
type openOp struct {
	p      *probe
	lo, hi int
	read   bool
	cost   bool
}

// durableRound runs durable-replicated: a two-node fleet with fsync on,
// JSON framing through the cluster client, paced open loop with reads,
// then shipper flush, shutdown, recovery of one node from its WAL and
// the replication checks.
func durableRound(e *env) (*round, error) {
	ctx := context.Background()
	ts, err := e.begin()
	if err != nil {
		return nil, err
	}
	probes, byName := e.probes(ts)
	base, err := os.MkdirTemp(e.cfg.workdir, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var pending pendingLeaser
	nodes, err := e.startFleet(base, byName, &pending)
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	if err != nil {
		return nil, err
	}
	urls := []string{nodes[0].url, nodes[1].url}
	counts := &wireCounts{}
	hc, transport := e.httpClient(counts)
	defer transport.CloseIdleConnections()
	cl, err := leasing.DialCluster(urls, leasing.RemoteClientOptions{Chunk: e.wl.chunk, HTTPClient: hc})
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		pending.next.Store(p)
		e.rd.attempted++
		if err := cl.Open(ctx, p.t.name, p.t.spec); err != nil {
			return nil, fmt.Errorf("open %s: %w", p.t.name, err)
		}
	}

	ops, dues := e.schedule(probes)
	var lag func() float64
	if e.tr != nil {
		lag = func() float64 { return replicationLag(nodes) }
	}
	submit := e.remoteSubmit(ctx, cl.Submit)
	w := e.openWindow(lag)
	lead := e.clk.now() + int64(time.Millisecond)
	for s := range dues {
		for i := range dues[s] {
			dues[s][i] += lead
		}
	}
	timings := openLoop(e.clk, dues, func(s, i int) error {
		op := ops[s][i]
		if op.read {
			var err error
			if op.cost {
				_, err = cl.Cost(ctx, op.p.t.name)
			} else {
				_, err = cl.Snapshot(ctx, op.p.t.name)
			}
			return err
		}
		c := call{lo: op.lo, hi: op.hi, due: dues[s][i], req: e.tr.id(), span: e.tr.id()}
		err := submit(op.p, &c)
		c.end = e.clk.now()
		c.failed = err != nil
		op.p.calls = append(op.p.calls, c)
		return err
	})
	var flushErr error
	for _, n := range nodes {
		if err := n.eng.Flush(); err != nil {
			flushErr = err
		}
	}
	lagSamples := e.closeWindow(w, totalEvents(ts))
	if flushErr != nil {
		return nil, flushErr
	}
	for s := range timings {
		for i, t := range timings[s] {
			e.rd.late = append(e.rd.late, micros(t.start-t.due))
			if !ops[s][i].read {
				continue
			}
			e.rd.attempted++
			if t.err != nil {
				e.rd.failed++
				e.rd.reads = append(e.rd.reads, math.Inf(1))
				continue
			}
			e.rd.reads = append(e.rd.reads, micros(t.end-t.due))
		}
	}

	_, costs, errs := checkRemote(ctx, cl, probes, e.refs)
	e.check(len(probes), errs)
	for _, n := range nodes {
		n.sh.Flush()
	}
	if e.tr != nil {
		e.engineLayers(nodes[0].eng, nodes[1].eng)
		e.wireLayers(counts)
		e.fleetLayers(nodes, lagSamples)
	}
	for _, n := range nodes {
		n.close()
	}
	ring, err := leasing.NewClusterRing(urls)
	if err != nil {
		return nil, err
	}
	if err := e.recoverNode(nodes[0], ring, costs); err != nil {
		return nil, err
	}
	if err := e.checkFollowers(nodes, ring); err != nil {
		return nil, err
	}
	return e.finish(probes), nil
}

// startFleet starts the two nodes under base, each with its own WAL and
// follower log (fsync on), a shipper to its peer, and the lease server
// in cluster mode. The nodes it returns are the caller's to close, also
// on error.
func (e *env) startFleet(base string, byName map[string]*probe, pending *pendingLeaser) ([]*fleetNode, error) {
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, url, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, url
	}
	var nodes []*fleetNode
	for i, ln := range lns {
		n := &fleetNode{url: urls[i], dir: filepath.Join(base, fmt.Sprintf("node%d", i))}
		nodes = append(nodes, n)
		if err := e.startNode(n, ln, urls, byName, pending); err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return nodes, err
		}
	}
	return nodes, nil
}

// startNode opens n's logs, shipper and engine and serves it on ln.
func (e *env) startNode(n *fleetNode, ln net.Listener, urls []string, byName map[string]*probe, pending *pendingLeaser) error {
	var err error
	opts := leasing.DurableLogOptions{Fsync: true}
	if n.own, err = leasing.OpenDurableLog(filepath.Join(n.dir, "own"), opts); err != nil {
		return err
	}
	if n.follow, err = leasing.OpenDurableLog(filepath.Join(n.dir, "follower"), opts); err != nil {
		return err
	}
	var shipOpts leasing.ClusterShipperOptions
	if e.tr != nil {
		shipOpts.HTTPClient = &http.Client{Transport: &tracedTransport{
			base: http.DefaultTransport, tr: e.tr, name: "cluster.ship", counts: &wireCounts{}}}
	}
	if n.sh, err = leasing.NewClusterShipper(n.url, urls, shipOpts); err != nil {
		return err
	}
	var wal leasing.EngineWAL = leasing.ReplicateDurableLog(n.own, n.sh)
	if e.tr != nil {
		wal = &tracedWAL{next: wal, tr: e.tr, probes: byName}
	}
	if n.eng, _, err = leasing.RecoverEngineWAL(n.own, wal, engineConfig()); err != nil {
		return err
	}
	h := leasing.Serve(n.eng, leasing.LeaseServerConfig{
		Builder: pending.builder,
		Cluster: &leasing.LeaseClusterConfig{Self: n.url, Peers: urls, Follower: n.follow, WAL: wal},
	})
	n.d = serveOn(ln, n.url, e.handler(h, byName))
	return nil
}

// replicationLag is records appended to the primaries' logs minus
// records appended to their followers' logs.
func replicationLag(nodes []*fleetNode) float64 {
	var lag int64
	for _, n := range nodes {
		lag += n.own.Stats().Appends - n.follow.Stats().Appends
	}
	return float64(lag)
}

// schedule lays out each open-loop sender's operations and due times
// (relative to the window start). Submits are spread evenly at the
// offered rate across the senders; each sender interleaves its tenants
// chunk by chunk and follows every readEvery-th submit with a read of
// the same tenant, due half a slot later, alternating cost and
// snapshot.
func (e *env) schedule(probes []*probe) ([][]openOp, [][]int64) {
	n := senders()
	slot := float64(e.wl.chunk) / e.wl.offeredEPS * 1e9 // ns between submits
	ops := make([][]openOp, n)
	dues := make([][]int64, n)
	for s := 0; s < n; s++ {
		mine := share(probes, s, n)
		next := make([]int, len(mine))
		submits := 0
		for live := true; live; {
			live = false
			for k, p := range mine {
				lo := next[k]
				if lo >= len(p.t.events) {
					continue
				}
				hi := min(lo+e.wl.chunk, len(p.t.events))
				next[k] = hi
				live = live || hi < len(p.t.events)
				due := float64(submits*n+s) * slot
				ops[s] = append(ops[s], openOp{p: p, lo: lo, hi: hi})
				dues[s] = append(dues[s], int64(due))
				submits++
				if submits%readEvery == 0 {
					ops[s] = append(ops[s], openOp{p: p, read: true, cost: submits/readEvery%2 == 1})
					dues[s] = append(dues[s], int64(due+slot/2))
				}
			}
		}
	}
	return ops, dues
}

// fleetLayers records the WAL, shipper and replication-lag figures of a
// traced round.
func (e *env) fleetLayers(nodes []*fleetNode, lag []float64) {
	for _, n := range nodes {
		ws := n.own.Stats()
		e.rd.add("wal.appends", float64(ws.Appends))
		e.rd.add("wal.syncs", float64(ws.Syncs))
		e.rd.add("wal.bytes", float64(dirBytes(filepath.Join(n.dir, "own"))))
		ss := n.sh.Stats()
		e.rd.add("cluster.ship.records", float64(ss.Shipped))
		e.rd.add("cluster.ship.batches", float64(ss.Batches))
		e.rd.add("cluster.ship.dropped", float64(ss.Dropped))
		e.rd.add("cluster.ship.failed_peers", float64(len(ss.FailedPeers)))
	}
	e.rd.sample("cluster.lag.records", lag...)
}

// recoverNode times the recovery of n from its WAL, from reopening the
// log to a flushed engine, and checks that every tenant the node owned
// recovers with the cost it had before the shutdown. A traced round
// also times a bare Recover of the same directory.
func (e *env) recoverNode(n *fleetNode, ring *leasing.ClusterRing, costs map[string]leasing.CostBreakdown) error {
	dir := filepath.Join(n.dir, "own")
	t0 := time.Now()
	log, err := leasing.OpenDurableLog(dir, leasing.DurableLogOptions{Fsync: true})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	eng, _, err := leasing.RecoverEngine(log, engineConfig())
	e.rd.recoverNs = int64(time.Since(t0))
	if err != nil {
		log.Close()
		return fmt.Errorf("recover: %w", err)
	}
	var errs []error
	checked := 0
	for name, want := range costs {
		if ring.Owner(name) != n.url {
			continue
		}
		checked++
		got, err := eng.Cost(name)
		if err == nil && got != want {
			err = fmt.Errorf("cost %+v after recovery, %+v before", got, want)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("recover %s: %w", name, err))
		}
	}
	eng.Close()
	if err := log.Close(); err != nil {
		return err
	}
	e.check(checked, errs)
	if e.tr == nil {
		return nil
	}
	t0 = time.Now()
	log, err = leasing.OpenDurableLog(dir, leasing.DurableLogOptions{})
	if err != nil {
		return err
	}
	_ = log.Recover()
	e.rd.add("wal.recover.busy_ns", float64(time.Since(t0)))
	return log.Close()
}

// checkFollowers checks that each node's follower log recovers, for
// every tenant replicated to it, exactly the session its primary's log
// recovers: the same spec, events and sealed flag.
func (e *env) checkFollowers(nodes []*fleetNode, ring *leasing.ClusterRing) error {
	sessions := func(dir string) (map[string]string, error) {
		log, err := leasing.OpenDurableLog(dir, leasing.DurableLogOptions{})
		if err != nil {
			return nil, err
		}
		out := map[string]string{}
		for _, s := range log.Recover() {
			out[s.Tenant] = fmt.Sprintf("%s|%#v|%t", s.Spec, s.Events, s.Closed)
		}
		return out, log.Close()
	}
	var errs []error
	checked := 0
	for _, primary := range nodes {
		own, err := sessions(filepath.Join(primary.dir, "own"))
		if err != nil {
			return err
		}
		for _, replica := range nodes {
			if replica == primary {
				continue
			}
			followed, err := sessions(filepath.Join(replica.dir, "follower"))
			if err != nil {
				return err
			}
			for tenant, want := range own {
				if ring.Replica(tenant) != replica.url {
					continue
				}
				checked++
				if followed[tenant] != want {
					errs = append(errs, fmt.Errorf("follower %s: %s differs from its primary's log", replica.url, tenant))
				}
			}
		}
	}
	e.check(checked, errs)
	return nil
}

// dirBytes is the total size of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
