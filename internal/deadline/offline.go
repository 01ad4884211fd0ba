package deadline

import (
	"errors"
	"fmt"
	"sort"

	"leasing/internal/ilp"
	"leasing/internal/lease"
	"leasing/internal/lp"
	"leasing/internal/workload"
)

// Optimal computes the exact offline optimum of an OLD instance by branch
// and bound over the aligned candidate leases intersecting at least one
// client window (a client is served by any lease whose window meets its
// own). nodeLimit <= 0 uses the solver default.
func Optimal(in *Instance, nodeLimit int) (float64, error) {
	if len(in.Clients) == 0 {
		return 0, nil
	}
	costs, rows := in.program()
	prob := ilp.NewBinaryMinimize(costs)
	for _, row := range rows {
		if err := prob.Add(row, lp.GE, 1); err != nil {
			return 0, err
		}
	}
	res, err := prob.Solve(ilp.Options{NodeLimit: nodeLimit})
	if err != nil {
		return 0, fmt.Errorf("deadline: offline ILP: %w", err)
	}
	if !res.Proven {
		return res.Objective, errors.New("deadline: offline ILP hit node limit")
	}
	return res.Objective, nil
}

// LPLowerBound returns the LP relaxation bound for large instances.
func LPLowerBound(in *Instance) (float64, error) {
	if len(in.Clients) == 0 {
		return 0, nil
	}
	costs, rows := in.program()
	prob := lp.NewMinimize(costs)
	for _, row := range rows {
		if err := prob.Add(row, lp.GE, 1); err != nil {
			return 0, err
		}
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("deadline: LP status %v", sol.Status)
	}
	return sol.Objective, nil
}

// program is the offline covering program over the aligned leases
// meeting some client's window: see coverProgram.
func (in *Instance) program() (costs []float64, rows []map[int]float64) {
	return coverProgram(len(in.Clients),
		func(i int) []lease.Lease { c := in.Clients[i]; return in.Cfg.IntersectingAll(c.T, c.T+c.D) },
		func(l lease.Lease) float64 { return in.Cfg.Cost(l.K) })
}

// coverProgram builds the covering program that the offline optima of
// OLD and SCLD solve: it numbers the distinct candidates of n demands in
// order of first appearance and returns their costs and one row per
// demand, with coefficient 1 on each of its candidates.
func coverProgram[T comparable](n int, cands func(i int) []T, cost func(T) float64) (costs []float64, rows []map[int]float64) {
	index := map[T]int{}
	rows = make([]map[int]float64, n)
	for i := range rows {
		row := map[int]float64{}
		for _, c := range cands(i) {
			j, ok := index[c]
			if !ok {
				j = len(costs)
				index[c] = j
				costs = append(costs, cost(c))
			}
			row[j] = 1
		}
		rows[i] = row
	}
	return costs, rows
}

// GreedySingleType computes the exact optimum for K=1 configurations with
// the classical deadline greedy: walk clients by deadline; whenever a
// client's window is unserved, buy the aligned lease containing its
// deadline day (the last window that can still serve it). Used as an
// independent cross-check of the ILP.
func GreedySingleType(in *Instance) (float64, []lease.Lease, error) {
	if in.Cfg.K() != 1 {
		return 0, nil, fmt.Errorf("deadline: greedy needs K=1, got %d", in.Cfg.K())
	}
	clients := make([]workload.DeadlineClient, len(in.Clients))
	copy(clients, in.Clients)
	sort.Slice(clients, func(i, j int) bool { return clients[i].T+clients[i].D < clients[j].T+clients[j].D })
	st := lease.NewStore(in.Cfg)
	for _, c := range clients {
		if servedWithin(in.Cfg, st, c.T, c.D) {
			continue
		}
		st.Buy(in.Cfg.AlignedLease(0, c.T+c.D))
	}
	return st.TotalCost(), st.Leases(), nil
}

// TightInstance builds the lower-bound instance of Proposition 5.4
// (Figure 5.3): a short lease type (length lmin, cost 1) and a long one
// (length 2^ceil(log2 dmax), cost 1+eps); one patient client (0, dmax) and
// impatient clients with windows [(i-1)*lmin, i*lmin] for i = 2..dmax/lmin.
// The online algorithm pays Θ(dmax/lmin) while OPT buys the single long
// lease for 1+eps.
func TightInstance(lmin, dmax int64, eps float64) (*Instance, error) {
	if lmin < 1 || dmax < 2*lmin {
		return nil, fmt.Errorf("deadline: need lmin >= 1 and dmax >= 2*lmin, got %d, %d", lmin, dmax)
	}
	cfg := lease.TwoTypeConfig(lmin, dmax+1, eps)
	lmin = cfg.LMin() // after power-of-two rounding
	clients := []workload.DeadlineClient{{T: 0, D: dmax}}
	for i := int64(2); i <= dmax/lmin; i++ {
		clients = append(clients, workload.DeadlineClient{T: (i - 1) * lmin, D: lmin})
	}
	return NewInstance(cfg, clients)
}
