package ec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godm/internal/bufpool"
)

// FetchFunc reads shard idx of a stripe fully into dst. It must not retain
// or touch dst after returning (the transport.ScatterReader contract).
type FetchFunc func(ctx context.Context, idx int, dst []byte) error

// ReadOpts shapes one ReadInto call.
type ReadOpts struct {
	// Serial forces the deterministic plan: data shards are fetched one at a
	// time in index order and parity only on error. The discrete-event
	// simulation requires it — a simulated process must issue fabric ops
	// serially from its own goroutine — and the chaos replay tests rely on
	// the resulting fixed op sequence. A serial read ignores Latency.
	Serial bool
	// Latency holds one latency estimate per shard, indexed like the stripe;
	// zero marks an unknown donor, which counts as fast. The concurrent read
	// plans from it: it fetches every data shard whose estimate is at most
	// twice the k-th lowest estimate, fills the plan up to k with the
	// fastest parity shards, and arms the hedge at twice the plan's largest
	// estimate. Empty (or all estimates close) plans the k data shards.
	Latency []time.Duration
	// Hedge is the hedge delay used when no planned shard has an estimate:
	// if the planned fetches have not all completed after this long, the
	// remaining shards launch and the read completes from the fastest k.
	// Zero disables the timer (the rest still launch immediately when a
	// planned fetch fails).
	Hedge time.Duration
	// OnHedge fires when the hedge timer launches the remaining shards.
	OnHedge func()
	// OnPlan fires before any fetch when the plan substitutes parity
	// shards for slow data shards, with the number substituted.
	OnPlan func(parity int)
	// OnDegraded fires when the read had to reconstruct (a donor dead,
	// outrun by the hedge, or planned around as slow).
	OnDegraded func()
}

// ReadInto assembles a stripe's payload into dst (whose length is the
// payload's raw length) by fetching data shards scatter-style — each shard's
// bytes land directly in its dst region — and reconstructing from parity
// when donors fail or dawdle. On return dst is complete and no fetch touches
// it again; internal scratch buffers may be released asynchronously once
// their in-flight fetches drain.
func (c *Code) ReadInto(ctx context.Context, dst []byte, fetch FetchFunc, opts ReadOpts) error {
	if len(dst) == 0 {
		return fmt.Errorf("ec: empty read destination")
	}
	if opts.Serial {
		return c.readSerial(ctx, dst, fetch, opts)
	}
	return c.readConcurrent(ctx, dst, fetch, opts)
}

// dataDst returns the fetch destination for data shard j: a window of dst
// when the shard lies fully inside it, otherwise a pooled scratch buffer
// (the stripe tail is zero-padded past len(dst)).
func dataDst(dst []byte, j, shardLen int) (buf []byte, scratch bool) {
	start := j * shardLen
	if start+shardLen <= len(dst) {
		return dst[start : start+shardLen], false
	}
	return bufpool.Get(shardLen), true
}

// copyTail copies the useful prefix of a scratch-fetched data shard back
// into dst.
func copyTail(dst []byte, j, shardLen int, buf []byte) {
	start := j * shardLen
	if start < len(dst) {
		copy(dst[start:], buf[:len(dst)-start])
	}
}

func (c *Code) readSerial(ctx context.Context, dst []byte, fetch FetchFunc, opts ReadOpts) error {
	s := c.ShardLen(len(dst))
	total := c.k + c.m
	shards := make([][]byte, total)
	present := make([]bool, total)
	var scratch [][]byte
	defer func() {
		for _, b := range scratch {
			bufpool.Put(b)
		}
	}()
	got := 0
	var lastErr error
	for j := 0; j < c.k; j++ {
		buf, isScratch := dataDst(dst, j, s)
		if isScratch {
			scratch = append(scratch, buf)
		}
		shards[j] = buf
		if err := fetch(ctx, j, buf); err != nil {
			lastErr = err
			continue
		}
		present[j] = true
		got++
	}
	if got < c.k {
		if opts.OnDegraded != nil {
			opts.OnDegraded()
		}
		for i := c.k; i < total && got < c.k; i++ {
			buf := bufpool.Get(s)
			scratch = append(scratch, buf)
			shards[i] = buf
			if err := fetch(ctx, i, buf); err != nil {
				lastErr = err
				continue
			}
			present[i] = true
			got++
		}
		if got < c.k {
			return fmt.Errorf("%w: %w", ErrShortShards, lastErr)
		}
		if err := c.reconstructData(shards, present); err != nil {
			return err
		}
	}
	for j := 0; j < c.k; j++ {
		if j*s+s > len(dst) {
			copyTail(dst, j, s, shards[j])
		}
	}
	return nil
}

// plan marks the shards a concurrent read fetches first. F is the k shards
// with the lowest estimates (ties to the lower index) and w the largest
// estimate in F: every data shard within 2w stays in the plan — the same 2x
// margin the hedge timer allows — and the fastest parity shards fill it up to
// k. It reports the plan's largest estimate and how many parity shards it
// substituted. With no estimates the plan is the k data shards.
func (c *Code) plan(est []time.Duration, planned *[maxShards]bool) (slowest time.Duration, parity int) {
	total := c.k + c.m
	if len(est) != total {
		for j := 0; j < c.k; j++ {
			planned[j] = true
		}
		return 0, 0
	}
	// Insertion sort by estimate; stable, so ties keep index order.
	var order [maxShards]int
	for i := 0; i < total; i++ {
		j := i
		for ; j > 0 && est[order[j-1]] > est[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	w := est[order[c.k-1]]
	n := 0
	for j := 0; j < c.k; j++ {
		if est[j] <= 2*w {
			planned[j] = true
			slowest = max(slowest, est[j])
			n++
		}
	}
	for _, i := range order[:total] {
		if n == c.k {
			break
		}
		if i >= c.k {
			planned[i] = true
			slowest = max(slowest, est[i])
			parity++
			n++
		}
	}
	return slowest, parity
}

func (c *Code) readConcurrent(ctx context.Context, dst []byte, fetch FetchFunc, opts ReadOpts) error {
	s := c.ShardLen(len(dst))
	total := c.k + c.m
	var planned [maxShards]bool
	slowest, planParity := c.plan(opts.Latency, &planned)
	hedgeAfter := opts.Hedge
	if slowest > 0 {
		hedgeAfter = 2 * slowest
	}
	if planParity > 0 && opts.OnPlan != nil {
		opts.OnPlan(planParity)
	}
	shards := make([][]byte, total)
	var scratch [][]byte

	results := make(chan int, total) // completed shard indices (ok or failed)
	errs := make([]error, total)
	cancels := make([]context.CancelFunc, total)
	done := make([]bool, total)
	ok := make([]bool, total)
	var wg sync.WaitGroup
	launched := make([]bool, total)
	inflight, unlaunched := 0, total
	launch := func(i int) {
		if launched[i] {
			return
		}
		launched[i] = true
		inflight++
		unlaunched--
		if shards[i] == nil {
			buf := bufpool.Get(s)
			scratch = append(scratch, buf)
			shards[i] = buf
		}
		fctx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fetch(fctx, i, shards[i])
			results <- i
		}()
	}

	// Every data shard gets its destination up front, fetched or not: a
	// shard left out of the plan is reconstructed in place.
	for j := 0; j < c.k; j++ {
		buf, isScratch := dataDst(dst, j, s)
		if isScratch {
			scratch = append(scratch, buf)
		}
		shards[j] = buf
	}
	for i := 0; i < total; i++ {
		if planned[i] {
			launch(i)
		}
	}

	hedged := false
	launchRest := func() {
		if hedged {
			return
		}
		hedged = true
		for i := 0; i < total; i++ {
			launch(i)
		}
	}

	var timerC <-chan time.Time
	var timer *time.Timer
	if hedgeAfter > 0 {
		timer = time.NewTimer(hedgeAfter)
		timerC = timer.C
		defer timer.Stop()
	}

	// releaseLater hands the scratch buffers back to the pool only after
	// every in-flight fetch has drained: a cancelled straggler may write its
	// own buffer right up to its return.
	releaseLater := func() {
		go func() {
			wg.Wait()
			for _, b := range scratch {
				bufpool.Put(b)
			}
		}()
	}
	cancelPending := func() {
		for i := 0; i < total; i++ {
			if launched[i] && !done[i] && cancels[i] != nil {
				cancels[i]()
			}
		}
	}
	// drainPending waits for every launched fetch to report, so no goroutine
	// can still be writing into dst (or a buffer we are about to decode into).
	drainPending := func() {
		for ; inflight > 0; inflight-- {
			idx := <-results
			done[idx] = true
			ok[idx] = errs[idx] == nil
		}
	}

	okData, okTotal := 0, 0
	var lastErr error
	for okData < c.k && okTotal < c.k {
		// Give up once the outstanding and unlaunched fetches cannot reach k.
		if okTotal+inflight+unlaunched < c.k {
			break
		}
		select {
		case idx := <-results:
			inflight--
			done[idx] = true
			if errs[idx] == nil {
				ok[idx] = true
				okTotal++
				if idx < c.k {
					okData++
				}
			} else {
				lastErr = errs[idx]
				launchRest()
			}
		case <-timerC:
			timerC = nil
			if !hedged {
				if opts.OnHedge != nil {
					opts.OnHedge()
				}
				launchRest()
			}
		}
	}

	if okData == c.k {
		// Fast path: every data shard landed in place. Any hedged fetches
		// still in flight write only into scratch; cancel them and let the
		// drain release scratch in the background.
		cancelPending()
		for j := 0; j < c.k; j++ {
			if j*s+s > len(dst) {
				copyTail(dst, j, s, shards[j])
			}
		}
		releaseLater()
		return nil
	}

	// Reconstruction (or failure): wait until nothing is writing into dst.
	cancelPending()
	drainPending()
	defer func() {
		for _, b := range scratch {
			bufpool.Put(b)
		}
	}()
	okTotal = 0
	for i := 0; i < total; i++ {
		if ok[i] {
			okTotal++
		}
	}
	if okTotal < c.k {
		if lastErr == nil {
			lastErr = ctx.Err()
		}
		return fmt.Errorf("%w: %w", ErrShortShards, lastErr)
	}
	if opts.OnDegraded != nil {
		opts.OnDegraded()
	}
	if err := c.reconstructData(shards, ok); err != nil {
		return err
	}
	for j := 0; j < c.k; j++ {
		if j*s+s > len(dst) {
			copyTail(dst, j, s, shards[j])
		}
	}
	return nil
}
