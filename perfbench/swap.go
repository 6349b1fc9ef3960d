package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/des"
	"godm/internal/exp"
	"godm/internal/memdev"
	"godm/internal/simnet"
	"godm/internal/swap"
	"godm/internal/transport"
	"godm/internal/workload"
)

// swapPageRank is FastSwap with Leap prefetching over FS-RDMA (node ratio
// 0) on the four-node simulated testbed, replaying the Table-1 PageRank
// trace at 50% resident; page compressibility comes from the profile.
const (
	swapNodes   = 4
	swapProfile = "PageRank"
)

type swapSystem struct {
	sc    scale
	tb    *exp.Testbed
	mgr   *swap.Manager
	trace []workload.Access
	sim   time.Duration
}

// setupSwap builds the testbed exp.NewTestbed builds, with the probe's
// middleware and balancer installed on every node, and generates the trace.
func setupSwap(ctx context.Context, sc scale, seed int64, pr *probe) (system, error) {
	prof, err := workload.ByName(swapProfile)
	if err != nil {
		return nil, err
	}
	env := des.NewEnv()
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: swapNodes, HeartbeatTimeout: 3})
	if err != nil {
		return nil, err
	}
	params := memdev.DefaultParams()
	tb := &exp.Testbed{
		Env:    env,
		Fabric: simnet.New(env, simnet.DefaultParams()),
		Dir:    dir,
		Params: params,
		DRAM:   memdev.NewDRAM(params),
		SHM:    memdev.NewSharedMem(params),
	}
	// Each donor's pool can hold the whole overflow (half the address
	// space) on its own, leaving room for the swap cache's clean copies and
	// per-class slabs.
	pool := int64(sc.entries*swap.PageSize/2+(1<<20)-1) &^ ((1 << 20) - 1)
	for i := 1; i <= swapNodes; i++ {
		id := transport.NodeID(i)
		ep, err := tb.Fabric.Attach(id)
		if err != nil {
			return nil, err
		}
		cfg := nodeConfig(id, pool, "", pr)
		cfg.SendPoolBytes = 16 << 20
		node, err := core.NewNode(cfg, pr.wrap(ep), dir)
		if err != nil {
			return nil, err
		}
		tb.Nodes = append(tb.Nodes, node)
	}
	deps, err := tb.SwapDeps("vm-" + prof.Name)
	if err != nil {
		return nil, err
	}
	ratio := func(page int) float64 { return prof.PageRatio(seed, page) }
	mgr, err := swap.NewManager(swap.Leap(sc.entries/2, 0, sc.entries, ratio), deps)
	if err != nil {
		return nil, err
	}
	return &swapSystem{
		sc:    sc,
		tb:    tb,
		mgr:   mgr,
		trace: workload.NewMLTrace(prof, sc.entries, sc.ops, seed).Drain(),
	}, nil
}

// drive replays the trace as one simulated job. A touch that wrote a
// window out is a put sample, one that read a page back in is a get
// sample; resident touches and first-touch zero fills count toward goodput
// only.
func (s *swapSystem) drive(ctx context.Context, d *driver) error {
	sim, err := s.tb.Run("job", func(jctx context.Context, p *des.Proc) error {
		jctx = d.pr.context(jctx)
		for _, a := range s.trace {
			before := s.mgr.Stats()
			t := d.begin(jctx)
			err := s.mgr.Touch(t.ctx, a.Page, a.Compute, a.Write)
			el := d.stop(t)
			after := s.mgr.Stats()
			kind := opOther
			switch {
			case after.SwapOuts > before.SwapOuts:
				kind = opPut
			case after.SwapIns > before.SwapIns:
				kind = opGet
			}
			d.record(kind, el, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.sim = sim
	// The engine's own bookkeeping must agree with the replay.
	st := s.mgr.Stats()
	if st.Accesses != int64(len(s.trace)) || st.Hits+st.Faults != st.Accesses ||
		s.mgr.ResidentLen() > s.sc.entries/2+swap.DefaultWindow {
		d.violated()
		fmt.Fprintf(os.Stderr, "perfbench: swap bookkeeping: %d accesses replayed, engine counted %d (%d hits + %d faults), %d resident\n",
			len(s.trace), st.Accesses, st.Hits, st.Faults, s.mgr.ResidentLen())
	}
	return nil
}

func (s *swapSystem) state() sysState {
	st := newState()
	poolState(s.tb.Nodes, &st)
	parked := s.mgr.ParkedPages()
	st.userBytes = parked * swap.PageSize
	st.liveEntries = parked
	ms := s.mgr.Stats()
	ds := s.mgr.DetectorStats()
	for name, v := range map[string]int64{
		"swap.accesses": ms.Accesses, "swap.faults": ms.Faults, "swap.swap_ins": ms.SwapIns,
		"swap.swap_outs": ms.SwapOuts, "swap.prefetched": ms.Prefetched,
		"swap.prefetch_hits": ms.PrefetchHits, "swap.prefetch_waste": ms.PrefetchWaste,
		"prefetch.predictions": ds.Predictions, "prefetch.no_trend": ds.NoTrend,
	} {
		st.counters[name] = v
	}
	st.gauges["swap.sim_completion_s"] = s.sim.Seconds()
	return st
}

func (s *swapSystem) opsPerRound() int { return len(s.trace) }

func (s *swapSystem) close() {}
