package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"godm/internal/faulty"
	"godm/internal/pagetable"
	"godm/internal/replication"
	"godm/internal/transport"
)

// readCounter is a transport middleware counting the one-sided reads the
// wrapped endpoint issues, per target node.
type readCounter struct {
	mu    sync.Mutex
	reads map[transport.NodeID]int
}

func newReadCounter() *readCounter {
	return &readCounter{reads: map[transport.NodeID]int{}}
}

func (c *readCounter) wrap(ep transport.Endpoint) transport.Endpoint {
	return &countingEndpoint{Endpoint: ep, c: c}
}

// take returns the reads issued to node since the last take and resets them.
func (c *readCounter) take(node transport.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.reads[node]
	delete(c.reads, node)
	return n
}

func (c *readCounter) add(node transport.NodeID) {
	c.mu.Lock()
	c.reads[node]++
	c.mu.Unlock()
}

type countingEndpoint struct {
	transport.Endpoint
	c *readCounter
}

func (e *countingEndpoint) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	e.c.add(to)
	return e.Endpoint.ReadRegion(ctx, to, region, offset, n)
}

func (e *countingEndpoint) ReadRegionInto(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	e.c.add(to)
	return transport.ReadRegionInto(ctx, e.Endpoint, to, region, offset, dst)
}

// slowDonor is the donor the stripe-rs42-shaped tests slow down: the last
// of the rig's eight nodes.
const slowDonor = transport.NodeID(8)

// preloadStripes writes n entries, so every donor holds shards at rotating
// stripe positions and the owner has timed every donor.
func preloadStripes(t *testing.T, rig *ecBenchRig, n int) (map[pagetable.EntryID][]byte, map[pagetable.EntryID][]transport.NodeID) {
	t.Helper()
	payloads := map[pagetable.EntryID][]byte{}
	holders := map[pagetable.EntryID][]transport.NodeID{}
	for id := pagetable.EntryID(1); int(id) <= n; id++ {
		payloads[id], holders[id] = rig.put(t, context.Background(), id)
	}
	return payloads, holders
}

// TestECCandidateLatencyIsOwnerEstimate: placement candidates carry the
// owner's own per-donor estimate, so after preload writes a donor behind a
// +4 ms rule reports more than twice every other donor's latency. The
// preload is long enough for each EWMA to forget its first sample, which
// also paid for the connection dial.
//
// The EC tests that compare a +4 ms donor with the rest add no uniform
// delay: under the race detector on a loaded 2-CPU host a verb delayed
// 1 ms takes 3–4 ms, and a donor 4 ms slower is then not twice as slow.
func TestECCandidateLatencyIsOwnerEstimate(t *testing.T) {
	rig := newECBenchRig(t, "rs4.2", 0)
	rig.inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: slowDonor, Pct: 100, Delay: 4 * time.Millisecond})
	preloadStripes(t, rig, 28)
	cands, err := rig.owner.candidates()
	if err != nil {
		t.Fatal(err)
	}
	var slow time.Duration
	for _, c := range cands {
		if transport.NodeID(c.Node) == slowDonor {
			slow = c.Latency
		}
	}
	for _, c := range cands {
		if transport.NodeID(c.Node) == slowDonor {
			continue
		}
		if c.Latency <= 0 || slow <= 2*c.Latency {
			t.Errorf("donor %d latency %v, slow donor %v: want the slow donor above 2x", c.Node, c.Latency, slow)
		}
	}
}

// TestECReadsAvoidSlowDataDonor is stripe-rs42's slow donor: one donor
// answers 4 ms after the rest. Once preload writes have timed it, no read plans a
// fetch from it while it holds a data shard: the plan reconstructs that
// shard from parity instead of waiting. Only a hedge, which launches every
// remaining shard when the planned ones stall, may still touch it.
func TestECReadsAvoidSlowDataDonor(t *testing.T) {
	count := newReadCounter()
	rig := newECBenchRig(t, "rs4.2", 0, count.wrap)
	rig.inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: slowDonor, Pct: 100, Delay: 4 * time.Millisecond})
	payloads, holders := preloadStripes(t, rig, 28)
	hedges := rig.owner.CodingMetrics().Counter("hedged_reads")
	planned := rig.owner.CodingMetrics().Counter("planned_parity_reads")
	ctx := context.Background()
	dataHeld := 0
	for id, set := range holders {
		pos := -1
		for i, h := range set {
			if h == slowDonor {
				pos = i
			}
		}
		count.take(slowDonor)
		h0, p0 := hedges.Value(), planned.Value()
		got, _, err := rig.vs.Get(ctx, id)
		if err != nil {
			t.Fatalf("entry %d: %v", id, err)
		}
		if !bytes.Equal(got, payloads[id]) {
			t.Fatalf("entry %d: read returned wrong bytes", id)
		}
		if pos < 0 || pos >= 4 {
			continue
		}
		dataHeld++
		if n, hedged := count.take(slowDonor), hedges.Value()-h0; int64(n) > hedged {
			t.Errorf("entry %d: %d reads from the slow donor holding data shard %d, %d hedges", id, n, pos, hedged)
		}
		if n := planned.Value() - p0; n < 1 {
			t.Errorf("entry %d: %d parity shards planned, want one for the slow data shard %d", id, n, pos)
		}
	}
	if dataHeld == 0 {
		t.Fatal("the slow donor holds no data shard: the test proves nothing")
	}
}

// TestECSlowDonorMidRunHedgedOnce: a data donor that turns slow after the
// owner has timed it fast costs one hedged read. The hedge cancels its
// fetch, the cancelled fetch raises its estimate, and later reads plan
// around it: only a hedge launching every remaining shard (the planned ones
// stalling on a loaded host) may touch it again. The preload writes time
// every donor, parity donors included, as a write-heavy run does.
func TestECSlowDonorMidRunHedgedOnce(t *testing.T) {
	count := newReadCounter()
	rig := newECBenchRig(t, "rs4.2", benchRTT, count.wrap)
	ctx := context.Background()
	payloads, sets := preloadStripes(t, rig, 28)
	payload, holders := payloads[1], sets[1]
	for i := 0; i < 8; i++ {
		if _, _, err := rig.vs.Get(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	slow := holders[0] // data shard 0
	estimate := func() time.Duration { return rig.owner.remote.latency(replication.NodeID(slow)) }
	before := estimate()
	rig.inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: slow, Pct: 100, Delay: 20 * time.Millisecond})
	hedges := rig.owner.CodingMetrics().Counter("hedged_reads")
	planned := rig.owner.CodingMetrics().Counter("planned_parity_reads")
	read := func() {
		t.Helper()
		got, _, err := rig.vs.Get(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("read returned wrong bytes")
		}
	}

	count.take(slow)
	h0, p0 := hedges.Value(), planned.Value()
	read()
	if n := hedges.Value() - h0; n != 1 {
		t.Errorf("first read after the slowdown: %d hedges, want 1", n)
	}
	if n := planned.Value() - p0; n != 0 {
		t.Errorf("first read after the slowdown planned %d parity shards, want 0", n)
	}
	if n := count.take(slow); n != 1 {
		t.Errorf("first read after the slowdown: %d reads from the slowed donor, want 1", n)
	}
	if after := estimate(); after <= before {
		t.Errorf("cancelled fetch left the estimate at %v (was %v), want it raised", after, before)
	}

	const later = 10
	h0, p0 = hedges.Value(), planned.Value()
	for i := 0; i < later; i++ {
		read()
	}
	if n := planned.Value() - p0; n < later {
		t.Errorf("later reads planned %d parity shards, want at least one each (%d)", n, later)
	}
	if n, hedged := count.take(slow), hedges.Value()-h0; int64(n) > hedged {
		t.Errorf("later reads fetched from the slowed donor %d times with %d hedges", n, hedged)
	}
}
