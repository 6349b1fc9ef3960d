package main

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"godm/internal/placement"
	"godm/internal/trace"
	"godm/internal/transport"
)

// probe is a traced round's instrumentation. It times the calls the
// benchmark makes into each layer through seams the program already offers —
// a transport.Middleware on every endpoint, a placement.Balancer wrapper —
// and folds the spans the program already emits (through its own tracer and
// trace.Middleware) into self time per span family. A nil *probe is an
// untraced round: every helper then returns the program's own objects.
type probe struct {
	tr  *trace.Tracer
	net netTimer
	bal balancerStats

	ops int64
	fam map[string]*family
}

// family accumulates one span name's self time (its duration minus the part
// of it that its child spans cover).
type family struct {
	n      int64
	selfNs int64
	durNs  int64
	durs   []float64 // per-span durations in µs, kept for swap.fault only
}

// spanRing is the tracer's ring size. The ring is copied once per op to
// fold that op's spans, so it is kept small; an op that emitted more spans
// than this would lose its oldest ones.
const spanRing = 512

func newProbe() *probe {
	return &probe{tr: trace.New(trace.WithCapacity(spanRing)), fam: map[string]*family{}}
}

// context attaches the probe's tracer so the program's trace.Start calls
// record against it; a nil probe leaves ctx alone.
func (p *probe) context(ctx context.Context) context.Context {
	if p == nil {
		return ctx
	}
	return trace.WithTracer(ctx, p.tr)
}

// wrap installs the timing middleware (outermost) and the program's tracing
// middleware on ep.
func (p *probe) wrap(ep transport.Endpoint) transport.Endpoint {
	if p == nil {
		return ep
	}
	return transport.Chain(ep, p.net.wrap, trace.Middleware(p.tr))
}

// balancer wraps b so every Pick is timed and its failures counted.
func (p *probe) balancer(b placement.Balancer) placement.Balancer {
	if p == nil {
		return b
	}
	return &timedBalancer{inner: b, st: &p.bal}
}

// reset drops everything counted during set-up.
func (p *probe) reset() {
	for _, v := range []*verbStats{&p.net.write, &p.net.read, &p.net.call, &p.net.serve} {
		v.n.Store(0)
		v.errs.Store(0)
		v.ns.Store(0)
		v.bytes.Store(0)
	}
	p.bal.n.Store(0)
	p.bal.fails.Store(0)
	p.bal.ns.Store(0)
	p.ops = 0
	p.fam = map[string]*family{}
}

type rootSpan = *trace.Span

func (p *probe) startOp(ctx context.Context) (context.Context, rootSpan) {
	return p.tr.Start(ctx, "bench.op")
}

// endOp closes the op's root span and folds the op's spans.
func (p *probe) endOp(root rootSpan) {
	root.End()
	p.ops++
	p.fold(p.tr.Spans(root.TraceID()))
}

// fold adds each span's self time to its family.
func (p *probe) fold(spans []trace.SpanRecord) {
	kids := map[trace.SpanID][]int{}
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	for _, s := range spans {
		if s.Name == "bench.op" {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(s, spans, kids[s.ID])
		f := p.fam[s.Name]
		if f == nil {
			f = &family{}
			p.fam[s.Name] = f
		}
		f.n++
		f.selfNs += int64(self)
		f.durNs += int64(dur)
		if s.Name == "swap.fault" {
			f.durs = append(f.durs, float64(dur)/1e3)
		}
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent trace.SpanRecord, spans []trace.SpanRecord, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// verbStats counts one verb on the caller side (or the handler, for serve).
type verbStats struct {
	n, errs, ns, bytes atomic.Int64
}

func (v *verbStats) observe(start time.Time, bytes int, err error) {
	v.n.Add(1)
	v.ns.Add(int64(time.Since(start)))
	v.bytes.Add(int64(bytes))
	if err != nil {
		v.errs.Add(1)
	}
}

// netTimer is the timing transport.Middleware's shared tally.
type netTimer struct {
	write, read, call, serve verbStats
}

func (t *netTimer) wrap(ep transport.Endpoint) transport.Endpoint {
	return &timedEndpoint{ep: ep, t: t}
}

// timedEndpoint times every verb. It implements the vectored and scatter
// capabilities natively so the zero-copy paths below it stay in use.
type timedEndpoint struct {
	ep transport.Endpoint
	t  *netTimer
}

var (
	_ transport.Endpoint       = (*timedEndpoint)(nil)
	_ transport.VectoredWriter = (*timedEndpoint)(nil)
	_ transport.ScatterReader  = (*timedEndpoint)(nil)
)

func (e *timedEndpoint) ID() transport.NodeID { return e.ep.ID() }
func (e *timedEndpoint) Close() error         { return e.ep.Close() }

func (e *timedEndpoint) RegisterRegion(id transport.RegionID, size int) ([]byte, error) {
	return e.ep.RegisterRegion(id, size)
}

func (e *timedEndpoint) DeregisterRegion(id transport.RegionID) error {
	return e.ep.DeregisterRegion(id)
}

func (e *timedEndpoint) WriteRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, data []byte) error {
	start := time.Now()
	err := e.ep.WriteRegion(ctx, to, region, offset, data)
	e.t.write.observe(start, len(data), err)
	return err
}

func (e *timedEndpoint) WriteRegionV(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, bufs [][]byte) error {
	start := time.Now()
	err := transport.WriteRegionV(ctx, e.ep, to, region, offset, bufs)
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	e.t.write.observe(start, n, err)
	return err
}

func (e *timedEndpoint) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	start := time.Now()
	data, err := e.ep.ReadRegion(ctx, to, region, offset, n)
	e.t.read.observe(start, n, err)
	return data, err
}

func (e *timedEndpoint) ReadRegionInto(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	start := time.Now()
	err := transport.ReadRegionInto(ctx, e.ep, to, region, offset, dst)
	e.t.read.observe(start, len(dst), err)
	return err
}

func (e *timedEndpoint) Call(ctx context.Context, to transport.NodeID, payload []byte) ([]byte, error) {
	start := time.Now()
	resp, err := e.ep.Call(ctx, to, payload)
	e.t.call.observe(start, len(payload)+len(resp), err)
	return resp, err
}

// SetHandler times the donor-side handler of every inbound call.
func (e *timedEndpoint) SetHandler(h transport.Handler) {
	if h == nil {
		e.ep.SetHandler(nil)
		return
	}
	e.ep.SetHandler(func(ctx context.Context, from transport.NodeID, payload []byte) ([]byte, error) {
		start := time.Now()
		resp, err := h(ctx, from, payload)
		e.t.serve.observe(start, len(payload)+len(resp), err)
		return resp, err
	})
}

type balancerStats struct {
	n, fails, ns atomic.Int64
}

// timedBalancer times the placement decision; it changes none of it.
type timedBalancer struct {
	inner placement.Balancer
	st    *balancerStats
}

func (b *timedBalancer) Name() string { return b.inner.Name() }

func (b *timedBalancer) Pick(candidates []placement.Candidate, n int) ([]placement.NodeID, error) {
	start := time.Now()
	ids, err := b.inner.Pick(candidates, n)
	b.st.ns.Add(int64(time.Since(start)))
	b.st.n.Add(1)
	if err != nil {
		b.st.fails.Add(1)
	}
	return ids, err
}
