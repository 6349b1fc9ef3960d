package main

import (
	"sort"
	"time"
)

// layerMetrics folds the traced rounds into the per-layer figures. Every
// name is printed on every workload; a layer the workload does not exercise
// reads 0.
func layerMetrics(rounds []roundResult) map[string]metric {
	var (
		ops                  int64
		fam                  = map[string]*family{}
		write, read, call    verbTotals
		serve                verbTotals
		picks, pickFails     int64
		pickNs               int64
		delta                = map[string]int64{}
		last                 sysState
		sims                 []float64
		okT, okU             int64
		timeT, timeU         time.Duration
		attemptedU           int64
		attempted, failedAll int64
	)
	for _, rr := range rounds {
		attempted += rr.d.attempted
		failedAll += rr.d.failed
		if !rr.traced {
			okU += rr.d.ok
			timeU += rr.d.opTime
			attemptedU += rr.d.attempted
			continue
		}
		okT += rr.d.ok
		timeT += rr.d.opTime
		pr := rr.d.pr
		ops += pr.ops
		for name, f := range pr.fam {
			g := fam[name]
			if g == nil {
				g = &family{}
				fam[name] = g
			}
			g.n += f.n
			g.selfNs += f.selfNs
			g.durNs += f.durNs
			g.durs = append(g.durs, f.durs...)
		}
		write.add(&pr.net.write)
		read.add(&pr.net.read)
		call.add(&pr.net.call)
		serve.add(&pr.net.serve)
		picks += pr.bal.n.Load()
		pickFails += pr.bal.fails.Load()
		pickNs += pr.bal.ns.Load()
		for k, v := range rr.after.counters {
			delta[k] += v - rr.before.counters[k]
		}
		last = rr.after
		sims = append(sims, rr.after.gauges["swap.sim_completion_s"])
	}
	perOp := func(n int64) float64 { return ratio(float64(n), float64(ops)) }
	selfUs := func(name string) float64 {
		f := fam[name]
		if f == nil {
			return 0
		}
		return ratio(float64(f.selfNs)/1e3, float64(f.n))
	}
	count := func(name string) int64 {
		if f := fam[name]; f != nil {
			return f.n
		}
		return 0
	}
	var faultDurs []float64
	if f := fam["swap.fault"]; f != nil {
		faultDurs = f.durs
		sort.Float64s(faultDurs)
	}
	var handleNs int64
	if f := fam["core.handle"]; f != nil {
		handleNs = f.durNs
	}
	wireBytes := delta["tcp.bytes_tx"]
	if wireBytes == 0 { // the simulated fabric has no framing: count payload bytes
		wireBytes = write.bytes + read.bytes + call.bytes
	}
	cacheGets := delta["cache.local_hits"] + delta["cache.remote_hits"] + delta["cache.misses"]
	accesses := delta["swap.accesses"]
	prefetchHits := delta["swap.prefetch_hits"]
	predictCalls := delta["prefetch.predictions"] + delta["prefetch.no_trend"]
	goodT, goodU := ratio(float64(okT), timeT.Seconds()), ratio(float64(okU), timeU.Seconds())

	m := map[string]metric{
		"core.put_remote.self_us":  {selfUs("core.put_remote"), "us"},
		"core.get.self_us":         {selfUs("core.get"), "us"},
		"core.handle.calls_per_op": {perOp(count("core.handle")), "count/op"},
		"core.handle.busy_us":      {ratio(float64(handleNs)/1e3, float64(ops)), "us/op"},

		"placement.pick.us":        {ratio(float64(pickNs)/1e3, float64(picks)), "us"},
		"placement.pick.fail_frac": {ratio(float64(pickFails), float64(picks)), "frac"},

		"replication.write.self_us":           {selfUs("repl.write"), "us"},
		"replication.read.self_us":            {selfUs("repl.read"), "us"},
		"replication.read_failover_frac":      {ratio(float64(delta["repl.read_failovers"]), float64(delta["repl.reads"])), "frac"},
		"replication.write_abort_frac":        {ratio(float64(delta["repl.write_aborts"]), float64(delta["repl.writes"])), "frac"},
		"ec.write.self_us":                    {selfUs("ec.write"), "us"},
		"ec.read.self_us":                     {selfUs("ec.read"), "us"},
		"ec.hedged_read_frac":                 {ratio(float64(delta["ec.hedged_reads"]), float64(delta["ec.reads"])), "frac"},
		"ec.degraded_read_frac":               {ratio(float64(delta["ec.degraded_reads"]), float64(delta["ec.reads"])), "frac"},
		"ec.write_abort_frac":                 {ratio(float64(delta["ec.write_aborts"]), float64(delta["ec.writes"])), "frac"},
		"transport.write.per_op":              {perOp(write.n), "count/op"},
		"transport.read.per_op":               {perOp(read.n), "count/op"},
		"transport.call.per_op":               {perOp(call.n), "count/op"},
		"transport.write.us":                  {write.meanUs(), "us"},
		"transport.read.us":                   {read.meanUs(), "us"},
		"transport.call.us":                   {call.meanUs(), "us"},
		"transport.serve.us":                  {serve.meanUs(), "us"},
		"transport.wire_bytes_per_op":         {perOp(wireBytes), "B/op"},
		"transport.errors":                    {perOp(write.errs + read.errs + call.errs), "count/op"},
		"transport.reconnects":                {perOp(delta["tcp.reconnects"]), "count/op"},
		"slab.live_blocks_per_entry":          {ratio(float64(last.liveBlocks), float64(last.liveEntries)), "count"},
		"slab.registered_bytes_per_live_byte": {ratio(float64(last.regBytes), float64(last.storedBytes)), "B/B"},

		"dmcache.local_hit_frac":             {ratio(float64(delta["cache.local_hits"]), float64(cacheGets)), "frac"},
		"dmcache.remote_hit_frac":            {ratio(float64(delta["cache.remote_hits"]), float64(cacheGets)), "frac"},
		"dmcache.miss_frac":                  {ratio(float64(delta["cache.misses"]), float64(cacheGets)), "frac"},
		"dmcache.evictions_per_op":           {perOp(delta["cache.evictions"]), "count/op"},
		"dmcache.prefetch_hit_frac":          {ratio(float64(delta["cache.prefetch_hits"]), float64(delta["cache.prefetched"])), "frac"},
		"dmcache.dropped_frac":               {ratio(float64(delta["cache.dropped"]), float64(delta["cache.evictions"])), "frac"},
		"dmcache.parked_bytes_per_user_byte": {last.gauges["cache.parked_per_user_byte"], "B/B"},
		"cache.get.self_us":                  {selfUs("cache.get"), "us"},
		"cache.put.self_us":                  {selfUs("cache.put"), "us"},
		"client.put_all.self_us":             {selfUs("client.put_all"), "us"},
		"client.get_all.self_us":             {selfUs("client.get_all"), "us"},

		"swap.fault_frac":            {ratio(float64(delta["swap.faults"]), float64(accesses)), "frac"},
		"swap.swap_ins_per_kaccess":  {ratio(1000*float64(delta["swap.swap_ins"]), float64(accesses)), "count/kaccess"},
		"swap.swap_outs_per_kaccess": {ratio(1000*float64(delta["swap.swap_outs"]), float64(accesses)), "count/kaccess"},
		"swap.fault.sim_p50_us":      {quantile(faultDurs, 0.50), "us"},
		"swap.fault.sim_p99_us":      {quantile(faultDurs, 0.99), "us"},
		"swap.fault.self_sim_us":     {selfUs("swap.fault"), "us"},
		"swap.in.self_sim_us":        {selfUs("swap.in"), "us"},
		"swap.out.self_sim_us":       {selfUs("swap.out"), "us"},
		"swap.prefetch.self_sim_us":  {selfUs("swap.prefetch"), "us"},
		"swap.touch.wall_ns":         {0, "ns"},
		"swap.sim_completion_s":      {median(sims), "s"},

		"prefetch.accuracy":           {ratio(float64(prefetchHits), float64(delta["swap.prefetched"])), "frac"},
		"prefetch.coverage":           {ratio(float64(prefetchHits), float64(prefetchHits+delta["swap.swap_ins"])), "frac"},
		"prefetch.wasted_per_kaccess": {ratio(1000*float64(delta["swap.prefetch_waste"]), float64(accesses)), "count/kaccess"},
		"prefetch.no_trend_frac":      {ratio(float64(delta["prefetch.no_trend"]), float64(predictCalls)), "frac"},

		"trace.overhead_frac": {1 - ratio(goodT, goodU), "frac"},
		"failed_ops_frac":     {ratio(float64(failedAll), float64(attempted)), "frac"},
	}
	if accesses > 0 { // the untraced rounds' wall cost of one replayed access
		m["swap.touch.wall_ns"] = metric{ratio(float64(timeU.Nanoseconds()), float64(attemptedU)), "ns"}
	}
	return m
}

// verbTotals sums one verb's tallies across traced rounds.
type verbTotals struct {
	n, errs, ns, bytes int64
}

func (t *verbTotals) add(v *verbStats) {
	t.n += v.n.Load()
	t.errs += v.errs.Load()
	t.ns += v.ns.Load()
	t.bytes += v.bytes.Load()
}

func (t *verbTotals) meanUs() float64 { return ratio(float64(t.ns)/1e3, float64(t.n)) }
