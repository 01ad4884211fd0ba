package main

// runClusterBench is the scaling benchmark behind BENCH_PR8.json: the
// same workload through in-process fleets of 1, 2 and 4 replicated
// nodes, driven through the cluster client, reporting per-fleet
// throughput, speedup and the scaling efficiency of the largest fleet.
// The multi-node kill drill (-crash -cluster) is runDrill in main.go.

import (
	"fmt"
	"net"
	"net/http"
	"os"

	"leasing"
)

// clusterReport is the -cluster-bench report (committed as
// BENCH_PR8.json): one fleet section per cluster size over the same
// workload. The top-level events_per_sec is the largest fleet's, so the
// perf gate reads cluster snapshots like any other leaseload report.
type clusterReport struct {
	Tool              string        `json:"tool"`
	Mode              string        `json:"mode"`
	GoVersion         string        `json:"go_version"`
	Seed              int64         `json:"seed"`
	Tenants           int           `json:"tenants"`
	TotalEvents       int64         `json:"total_events"`
	Shards            int           `json:"shards"`
	Batch             int           `json:"batch"`
	Queue             int           `json:"queue"`
	Producers         int           `json:"producers"`
	Chunk             int           `json:"chunk"`
	EventsPerSec      float64       `json:"events_per_sec"`
	ScalingEfficiency float64       `json:"scaling_efficiency"`
	Fleets            []fleetReport `json:"fleets"`
}

// fleetReport is one cluster size's measurement.
type fleetReport struct {
	Nodes           int          `json:"nodes"`
	ElapsedMS       float64      `json:"elapsed_ms"`
	EventsPerSec    float64      `json:"events_per_sec"`
	SubmitLatencyUS latencyStats `json:"submit_latency_us"`
	SpeedupVsSingle float64      `json:"speedup_vs_single"`
	ShippedRecords  int64        `json:"shipped_records"`
}

// runClusterBench measures how ingestion throughput scales with nodes:
// the same workload through in-process fleets of the given sizes, every
// node durable (fsync off) and shipping to its peers, driven through
// the ring-routing cluster client. Scaling efficiency is the largest
// fleet's speedup over the single node divided by its node count.
func runClusterBench(base jsonReport, ts []*tenant, c config, fleets []int) (clusterReport, error) {
	combined := clusterReport{
		Tool: "leaseload", Mode: "cluster-bench",
		GoVersion: base.GoVersion, Seed: base.Seed,
		Tenants: base.Tenants, TotalEvents: base.TotalEvents,
		Shards: base.Shards, Batch: base.Batch, Queue: base.Queue,
		Producers: base.Producers, Chunk: base.Chunk,
	}
	for _, n := range fleets {
		fleet, err := runClusterFleet(ts, n, c)
		if err != nil {
			return combined, fmt.Errorf("%d-node fleet: %w", n, err)
		}
		combined.Fleets = append(combined.Fleets, fleet)
	}
	single := combined.Fleets[0].EventsPerSec
	for i := range combined.Fleets {
		combined.Fleets[i].SpeedupVsSingle = combined.Fleets[i].EventsPerSec / single
	}
	last := combined.Fleets[len(combined.Fleets)-1]
	combined.EventsPerSec = last.EventsPerSec
	combined.ScalingEfficiency = last.SpeedupVsSingle / float64(last.Nodes)
	return combined, nil
}

// benchNode is one in-process member of a benchmark fleet.
type benchNode struct {
	eng         *leasing.Engine
	srv         *http.Server
	sh          *leasing.ClusterShipper
	own, follow *leasing.DurableLog
}

// runClusterFleet runs the full workload through one n-node fleet,
// wired node-for-node as cmd/leased wires cluster mode.
func runClusterFleet(ts []*tenant, n int, c config) (fleetReport, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fleetReport{}, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*benchNode, n)
	defer func() {
		for _, nd := range nodes {
			if nd == nil {
				continue
			}
			nd.srv.Close()
			nd.eng.Close()
			nd.sh.Close()
			nd.follow.Close()
			nd.own.Close()
		}
	}()
	for i := range nodes {
		dir, err := os.MkdirTemp("", "leaseload-fleet-*")
		if err != nil {
			return fleetReport{}, err
		}
		defer os.RemoveAll(dir)
		own, err := leasing.OpenDurableLog(dir, leasing.DurableLogOptions{})
		if err != nil {
			return fleetReport{}, err
		}
		follow, err := leasing.OpenDurableLog(dir+"/follower", leasing.DurableLogOptions{})
		if err != nil {
			own.Close()
			return fleetReport{}, err
		}
		sh, err := leasing.NewClusterShipper(urls[i], urls, leasing.ClusterShipperOptions{})
		if err != nil {
			follow.Close()
			own.Close()
			return fleetReport{}, err
		}
		rl := leasing.ReplicateDurableLog(own, sh)
		eng, _, err := leasing.RecoverEngineWAL(own, rl, c.engine())
		if err != nil {
			sh.Close()
			follow.Close()
			own.Close()
			return fleetReport{}, err
		}
		srv := &http.Server{Handler: leasing.Serve(eng, leasing.LeaseServerConfig{
			Cluster: &leasing.LeaseClusterConfig{
				Self: urls[i], Peers: urls, Follower: follow, WAL: rl,
			},
		})}
		go srv.Serve(lns[i])
		nodes[i] = &benchNode{eng: eng, srv: srv, sh: sh, own: own, follow: follow}
	}

	cl, err := leasing.DialCluster(urls, leasing.RemoteClientOptions{Chunk: c.chunk})
	if err != nil {
		return fleetReport{}, err
	}
	// The flush barrier spans every node's engine, as engine mode's does
	// for one; replication keeps streaming in the background and is
	// settled (and checked) by the shipper close below.
	run, err := drive(remoteTarget{cl}, ts, c, 0)
	if err != nil {
		return fleetReport{}, err
	}

	var shipped int64
	for i, nd := range nodes {
		nd.sh.Close()
		st := nd.sh.Stats()
		shipped += st.Shipped
		if len(st.FailedPeers) > 0 {
			return fleetReport{}, fmt.Errorf("node %s failed peers %v (%d records dropped)",
				urls[i], st.FailedPeers, st.Dropped)
		}
	}
	return fleetReport{
		Nodes:           n,
		ElapsedMS:       run.elapsedMS(),
		EventsPerSec:    run.eventsPerSec(),
		SubmitLatencyUS: summarize(run.latency),
		ShippedRecords:  shipped,
	}, nil
}
