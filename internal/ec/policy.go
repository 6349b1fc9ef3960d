package ec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"godm/internal/bufpool"
	"godm/internal/metrics"
	"godm/internal/replication"
	"godm/internal/trace"
)

// ShardStore is an optional Store extension: put one shard of a stripe with
// its stripe coordinates, so the hosting donor can record shard metadata
// (index, k, m) and refuse a second shard of the same stripe — the
// distinct-donor placement rule enforced host-side.
type ShardStore interface {
	PutShard(ctx context.Context, node replication.NodeID, id replication.EntryID, idx, k, m int, data []byte) error
}

// LatencyFunc returns the owner's latency estimate for a donor; zero means
// no figure is known for it. The node manager times every verb it issues to
// a donor itself: a one-sided read never reaches the donor's CPU, so only
// the owner can time it.
type LatencyFunc func(node replication.NodeID) time.Duration

// rollbackTimeout bounds the detached rollback of an aborted striped write,
// mirroring the replication protocol's.
const rollbackTimeout = 2 * time.Second

// stripeInfo is the owner-side record of one stripe — the raw payload length
// every shard length and read plan derives from. It lives beside the remote
// store's handles and shares their lifetime (lost with the owner).
type stripeInfo struct {
	rawLen int
}

// codingMetrics instruments the striped data path.
type codingMetrics struct {
	writes       *metrics.Counter
	writeAborts  *metrics.Counter
	reads        *metrics.Counter
	degraded     *metrics.Counter
	hedges       *metrics.Counter
	planned      *metrics.Counter
	restores     *metrics.Counter
	reconstructs *metrics.Counter
	writeLatency *metrics.Histogram
	readLatency  *metrics.Histogram
}

func newCodingMetrics(reg *metrics.Registry) codingMetrics {
	return codingMetrics{
		writes:       reg.Counter("writes"),
		writeAborts:  reg.Counter("write_aborts"),
		reads:        reg.Counter("reads"),
		degraded:     reg.Counter("degraded_reads"),
		hedges:       reg.Counter("hedged_reads"),
		planned:      reg.Counter("planned_parity_reads"),
		restores:     reg.Counter("restores"),
		reconstructs: reg.Counter("reconstructs"),
		writeLatency: reg.Histogram("write_latency"),
		readLatency:  reg.Histogram("read_latency"),
	}
}

// CodingPolicy implements replication.Policy with RS(k, m) striping: writes
// encode on the owner and fan the k+m shards out to distinct donors in one
// round trip; reads scatter the k fastest shards straight into the result
// buffer and reconstruct from parity when a donor is slow, dead or outrun
// by the hedge; Restore rebuilds lost shards from any k survivors instead of
// re-copying full blocks.
type CodingPolicy struct {
	code          *Code
	store         replication.Store
	latency       LatencyFunc
	hedgeFallback time.Duration
	met           codingMetrics

	mu      sync.Mutex
	stripes map[replication.EntryID]stripeInfo
}

// PolicyOption configures a CodingPolicy.
type PolicyOption func(*CodingPolicy)

// WithHedge installs the per-donor latency estimates the read plan and its
// hedge timer derive from, and the hedge delay for reads whose planned
// donors have no estimate yet.
func WithHedge(fn LatencyFunc, fallback time.Duration) PolicyOption {
	return func(p *CodingPolicy) {
		p.latency = fn
		p.hedgeFallback = fallback
	}
}

// WithPolicyMetrics mounts the policy's instrumentation on reg.
func WithPolicyMetrics(reg *metrics.Registry) PolicyOption {
	return func(p *CodingPolicy) {
		if reg != nil {
			p.met = newCodingMetrics(reg)
		}
	}
}

// NewPolicy returns an RS(k, m) coding policy over store.
func NewPolicy(k, m int, store replication.Store, opts ...PolicyOption) (*CodingPolicy, error) {
	if store == nil {
		return nil, errors.New("ec: nil store")
	}
	code, err := New(k, m)
	if err != nil {
		return nil, err
	}
	p := &CodingPolicy{
		code:    code,
		store:   store,
		met:     newCodingMetrics(metrics.NewRegistry("ec")),
		stripes: map[replication.EntryID]stripeInfo{},
	}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

var _ replication.Policy = (*CodingPolicy)(nil)

// Code exposes the underlying codec (benchmarks and tests).
func (p *CodingPolicy) Code() *Code { return p.code }

// Name implements replication.Policy.
func (p *CodingPolicy) Name() string { return fmt.Sprintf("rs%d.%d", p.code.k, p.code.m) }

// Width implements replication.Policy.
func (p *CodingPolicy) Width() int { return p.code.k + p.code.m }

// MinAlive implements replication.Policy: k shards reconstruct the stripe.
func (p *CodingPolicy) MinAlive() int { return p.code.k }

// ShardClass implements replication.Policy: each donor holds 1/k of the
// entry, rounded up.
func (p *CodingPolicy) ShardClass(entryClass int) int {
	return p.code.ShardLen(entryClass)
}

func (p *CodingPolicy) putShard(ctx context.Context, node replication.NodeID, id replication.EntryID, idx int, data []byte) error {
	if ss, ok := p.store.(ShardStore); ok {
		return ss.PutShard(ctx, node, id, idx, p.code.k, p.code.m, data)
	}
	return p.store.Put(ctx, node, id, data)
}

func (p *CodingPolicy) getShard(ctx context.Context, node replication.NodeID, id replication.EntryID, dst []byte) error {
	if sc, ok := p.store.(replication.ScatterStore); ok {
		return sc.GetInto(ctx, node, id, dst)
	}
	data, err := p.store.Get(ctx, node, id)
	if err != nil {
		return err
	}
	if len(data) != len(dst) {
		return fmt.Errorf("ec: shard is %d bytes, want %d", len(data), len(dst))
	}
	copy(dst, data)
	return nil
}

func (p *CodingPolicy) rawLen(id replication.EntryID) (int, bool) {
	p.mu.Lock()
	info, ok := p.stripes[id]
	p.mu.Unlock()
	return info.rawLen, ok
}

// Write implements replication.Policy: encode into k+m shards and fan them
// out to the k+m nodes (nodes[i] hosts shard i) as an atomic transaction —
// any failure rolls back the shards already placed.
func (p *CodingPolicy) Write(ctx context.Context, nodes []replication.NodeID, id replication.EntryID, data []byte) error {
	total := p.code.k + p.code.m
	if len(nodes) != total {
		return fmt.Errorf("ec: got %d nodes, stripe width is %d", len(nodes), total)
	}
	if len(data) == 0 {
		return errors.New("ec: empty payload")
	}
	ctx, sp := trace.Start(ctx, "ec.write")
	sp.Annotate("entry", uint64(id))
	sp.Annotate("shards", total)
	p.met.writes.Inc()
	start := trace.Now(ctx)
	s := p.code.ShardLen(len(data))
	shards := make([][]byte, total)
	for i := range shards {
		shards[i] = bufpool.Get(s)
	}
	defer func() {
		for _, b := range shards {
			bufpool.Put(b)
		}
	}()
	p.code.Split(data, shards)
	if err := p.code.Encode(shards); err != nil {
		sp.EndErr(err)
		return err
	}
	errs := replication.Fanout(ctx, nodes, func(ctx context.Context, i int, n replication.NodeID) error {
		return p.putShard(ctx, n, id, i, shards[i])
	})
	failed := -1
	for i, err := range errs {
		if err != nil {
			failed = i
			break
		}
	}
	if failed < 0 {
		p.mu.Lock()
		p.stripes[id] = stripeInfo{rawLen: len(data)}
		p.mu.Unlock()
		p.met.writeLatency.Observe(trace.Now(ctx) - start)
		sp.End()
		return nil
	}
	// Roll back the shards that did land, detached from the caller's context
	// (the abort may be that context dying), bounded by a fresh deadline.
	rbCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rollbackTimeout)
	defer cancel()
	for i, err := range errs {
		if err == nil {
			_ = p.store.Delete(rbCtx, nodes[i], id)
		}
	}
	p.met.writeAborts.Inc()
	err := fmt.Errorf("%w: shard %d on node %d: %v", replication.ErrAborted, failed, nodes[failed], errs[failed])
	sp.EndErr(err)
	return err
}

// Read implements replication.Policy: fetch the k fastest shards
// scatter-style into the result buffer — the data shards unless a donor's
// estimate marks it slow — hedging to the rest + reconstruction when a
// donor is dead or dawdles.
func (p *CodingPolicy) Read(ctx context.Context, nodes []replication.NodeID, id replication.EntryID) ([]byte, replication.NodeID, error) {
	total := p.code.k + p.code.m
	if len(nodes) != total {
		return nil, 0, fmt.Errorf("ec: got %d nodes, stripe width is %d", len(nodes), total)
	}
	raw, ok := p.rawLen(id)
	if !ok {
		return nil, 0, fmt.Errorf("%w: entry %d: no stripe record", replication.ErrNoReplica, id)
	}
	ctx, sp := trace.Start(ctx, "ec.read")
	sp.Annotate("entry", uint64(id))
	p.met.reads.Inc()
	start := trace.Now(ctx)
	var est [maxShards]time.Duration
	if p.latency != nil {
		for i, n := range nodes {
			est[i] = p.latency(n)
		}
	}
	dst := make([]byte, raw)
	err := p.code.ReadInto(ctx, dst, func(ctx context.Context, idx int, buf []byte) error {
		return p.getShard(ctx, nodes[idx], id, buf)
	}, ReadOpts{
		Serial:  replication.Serial(ctx),
		Latency: est[:total],
		Hedge:   p.hedgeFallback,
		OnHedge: func() {
			p.met.hedges.Inc()
			sp.Annotate("hedged", 1)
		},
		OnPlan: func(parity int) {
			p.met.planned.Add(int64(parity))
			sp.Annotate("planned_parity", parity)
		},
		OnDegraded: func() {
			p.met.degraded.Inc()
			sp.Annotate("degraded", 1)
		},
	})
	if err != nil {
		err = fmt.Errorf("%w: entry %d: %w", replication.ErrNoReplica, id, err)
		sp.EndErr(err)
		return nil, 0, err
	}
	p.met.readLatency.Observe(trace.Now(ctx) - start)
	sp.End()
	return dst, nodes[0], nil
}

// ReadAt implements replication.Policy: map the byte range onto the data
// shards holding it and read just those sub-ranges one-sided; any failure
// falls back to a full (possibly degraded) read.
func (p *CodingPolicy) ReadAt(ctx context.Context, nodes []replication.NodeID, id replication.EntryID, off, n int) ([]byte, error) {
	raw, ok := p.rawLen(id)
	if !ok {
		return nil, fmt.Errorf("%w: entry %d: no stripe record", replication.ErrNoReplica, id)
	}
	if off < 0 || n < 0 || off+n > raw {
		return nil, fmt.Errorf("ec: range [%d,%d) exceeds payload %d", off, off+n, raw)
	}
	if n == 0 {
		return []byte{}, nil
	}
	s := p.code.ShardLen(raw)
	if rs, ok := p.store.(replication.RangeStore); ok && len(nodes) == p.code.k+p.code.m {
		out := make([]byte, 0, n)
		pos := off
		for pos < off+n {
			j := pos / s
			shardOff := pos % s
			run := s - shardOff
			if rest := off + n - pos; run > rest {
				run = rest
			}
			part, err := rs.GetAt(ctx, nodes[j], id, shardOff, run)
			if err != nil {
				out = nil
				break
			}
			out = append(out, part...)
			pos += run
		}
		if out != nil {
			return out, nil
		}
	}
	// Degraded range read: assemble the whole stripe, then slice.
	data, _, err := p.Read(ctx, nodes, id)
	if err != nil {
		return nil, err
	}
	return data[off : off+n], nil
}

// Delete implements replication.Policy: release every shard; the first
// failure is reported after all positions were attempted.
func (p *CodingPolicy) Delete(ctx context.Context, nodes []replication.NodeID, id replication.EntryID) error {
	errs := replication.Fanout(ctx, nodes, func(ctx context.Context, _ int, n replication.NodeID) error {
		return p.store.Delete(ctx, n, id)
	})
	p.mu.Lock()
	delete(p.stripes, id)
	p.mu.Unlock()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ec: delete shard %d on node %d: %w", i, nodes[i], err)
		}
	}
	return nil
}

// Restore implements replication.Policy: read the surviving shards, rebuild
// the lost positions by reconstruction, and place them on replacements from
// pick. Positions whose placement fails come back in stillLost so the
// maintenance queue retries just those — partial shard repairs no longer
// collapse into a binary repaired/failed verdict.
func (p *CodingPolicy) Restore(ctx context.Context, nodes []replication.NodeID, id replication.EntryID, lost []replication.NodeID, pick replication.PickFunc) ([]replication.NodeID, []replication.NodeID, error) {
	total := p.code.k + p.code.m
	if len(nodes) != total {
		return nodes, nil, fmt.Errorf("ec: got %d nodes, stripe width is %d", len(nodes), total)
	}
	raw, ok := p.rawLen(id)
	if !ok {
		return nodes, nil, fmt.Errorf("ec: entry %d: no stripe record", id)
	}
	lostSet := make(map[replication.NodeID]bool, len(lost))
	for _, l := range lost {
		lostSet[l] = true
	}
	var missingPos []int
	for i, n := range nodes {
		if lostSet[n] {
			missingPos = append(missingPos, i)
		}
	}
	if len(missingPos) == 0 {
		// Already handled by an earlier pass: the queue entry is stale.
		return nodes, nil, nil
	}
	ctx, sp := trace.Start(ctx, "ec.restore")
	sp.Annotate("entry", uint64(id))
	sp.Annotate("missing", len(missingPos))
	defer sp.End()
	p.met.restores.Inc()

	s := p.code.ShardLen(raw)
	shards := make([][]byte, total)
	present := make([]bool, total)
	defer func() {
		for _, b := range shards {
			bufpool.Put(b)
		}
	}()
	got := 0
	var lastErr error
	for i := 0; i < total; i++ {
		shards[i] = bufpool.Get(s)
		if lostSet[nodes[i]] {
			continue
		}
		if err := p.getShard(ctx, nodes[i], id, shards[i]); err != nil {
			lastErr = err
			continue
		}
		present[i] = true
		got++
	}
	if got < p.code.k {
		err := fmt.Errorf("%w: entry %d: %d of %d shards survive: %w", ErrShortShards, id, got, p.code.k, lastErr)
		sp.Annotate("err", err)
		return nodes, nil, err
	}
	if err := p.code.Reconstruct(shards, present); err != nil {
		return nodes, nil, err
	}
	p.met.reconstructs.Add(int64(len(missingPos)))

	// Draw replacements; when the cluster cannot supply one per missing
	// position, restore as many as it can and requeue the rest.
	want := len(missingPos)
	var replacements []replication.NodeID
	var pickErr error
	for want > 0 {
		replacements, pickErr = pick(want, nodes)
		if pickErr == nil {
			break
		}
		want--
	}
	newSet := append([]replication.NodeID(nil), nodes...)
	var still []replication.NodeID
	restored := 0
	for i, pos := range missingPos {
		if i >= len(replacements) {
			still = append(still, nodes[pos])
			continue
		}
		if err := p.putShard(ctx, replacements[i], id, pos, shards[pos]); err != nil {
			if lastErr = err; pickErr == nil {
				pickErr = err
			}
			still = append(still, nodes[pos])
			continue
		}
		newSet[pos] = replacements[i]
		restored++
	}
	if restored == 0 {
		if pickErr == nil {
			pickErr = lastErr
		}
		return nodes, nil, fmt.Errorf("ec: restore of entry %d made no progress: %w", id, pickErr)
	}
	return newSet, still, nil
}
