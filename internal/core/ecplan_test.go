package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/faulty"
	"godm/internal/pagetable"
	"godm/internal/placement"
	"godm/internal/replication"
	"godm/internal/trace"
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
// owner's own timing of each donor (the fastest of its latest successful
// verbs), so after preload writes a donor behind a +4 ms rule reports more
// than twice every other donor's latency. The preload is long enough for
// each window to forget its first verb, which also paid for the connection
// dial.
//
// The EC tests that compare a +4 ms donor with the rest add no uniform
// delay: under the race detector on a loaded 2-CPU host a verb delayed
// 1 ms takes 3–4 ms, and a donor 4 ms slower is then not twice as slow.
func TestECCandidateLatencyIsOwnerEstimate(t *testing.T) {
	rig := newECBenchRig(t, "rs4.2", 0)
	rig.inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: slowDonor, Pct: 100, Delay: 4 * time.Millisecond})
	preloadStripes(t, rig, 28)
	cands, err := rig.owner.candidates(trace.Now(context.Background()))
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
// remaining shard when the planned ones stall, may still touch it. Every
// verb to the donor takes over the 4 ms get objective, so placement stops
// using it after its first placeWindow verbs: it holds data shards 0 and 1
// of the second and third round-robin stripes, whatever the timing.
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

// TestECWritesAvoidSlowDonor: once the owner has timed a donor above the get
// objective, new stripes skip it while those timings are recent, and the
// skips are counted; once the donor recovers and its timings have aged past
// staleAfter, the next stripes place shards on it again. The donor is +8 ms,
// well clear of the objective: a +4 ms donor measures 4.0-4.3 ms.
func TestECWritesAvoidSlowDonor(t *testing.T) {
	rig := newECBenchRig(t, "rs4.2", 0)
	rig.inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: slowDonor, Pct: 100, Delay: 8 * time.Millisecond})
	ctx := context.Background()
	holds := func(set []transport.NodeID) bool {
		for _, h := range set {
			if h == slowDonor {
				return true
			}
		}
		return false
	}
	// Warm-up: round-robin placement puts the second and third stripes on
	// the slow donor, and their allocs and writes time it.
	for id := pagetable.EntryID(1); id <= 6; id++ {
		rig.put(t, ctx, id)
	}
	obj := rig.owner.getObjective
	skips := rig.owner.Metrics().Counter("placement_slow_skips")
	s0 := skips.Value()
	checked := 0
	for id := pagetable.EntryID(101); id <= 112; id++ {
		// The rule holds while the timings are recent; on a badly stalled
		// host they may age out mid-loop, and then a put may probe the donor.
		slow := rig.owner.remote.floor(slowDonor, trace.Now(ctx))
		recent := slow > obj
		_, set := rig.put(t, ctx, id)
		if !recent {
			continue
		}
		checked++
		if holds(set) {
			t.Errorf("entry %d placed a shard on the slow donor (floor %v, objective %v)", id, slow, obj)
		}
	}
	if checked == 0 {
		t.Fatal("the slow donor's floor was never recent and over the objective: the test proves nothing")
	}
	if n := skips.Value() - s0; n < int64(checked) {
		t.Errorf("placement_slow_skips grew by %d over %d steered puts, want at least one each", n, checked)
	}

	rig.inj.SetEnabled(false) // the donor recovers
	time.Sleep(staleAfter + 50*time.Millisecond)
	placed := false
	for id := pagetable.EntryID(201); id <= 202 && !placed; id++ {
		_, set := rig.put(t, ctx, id)
		placed = holds(set)
	}
	if !placed {
		t.Error("the recovered donor received no shard after its timings aged past staleAfter")
	}
}

// TestPickRemotesAvoidsSlowDonors pins the placement rule on the DES clock:
// donors whose latest successful verbs all took longer than the get
// objective are skipped, unknown donors (and one fast verb among slow ones)
// count as within it, the fastest slow donors fill a shortfall, and timings
// not refreshed for staleAfter read as unknown again.
func TestPickRemotesAvoidsSlowDonors(t *testing.T) {
	tc := newTestCluster(t, 7, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.Balancer = placement.NewRoundRobin()
		return cfg
	})
	owner := tc.nodes[0]
	skips := owner.Metrics().Counter("placement_slow_skips")
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		ms := time.Millisecond
		now := p.Now()
		verb := func(node transport.NodeID, elapsed time.Duration, err error) {
			owner.remote.lat.observe(node, now-elapsed, now, err)
		}
		for i := 0; i < placeWindow; i++ {
			verb(2, ms, nil)
			verb(3, 9*ms, nil)
			verb(4, 5*ms, nil)
			verb(5, 6*ms, nil)
			if i > 0 {
				// 6: one verb short of a window, the failed one does not count.
				verb(6, 9*ms, nil)
				// 7: one fast verb among slow ones.
				verb(7, 9*ms, nil)
			}
		}
		verb(6, 20*ms, errors.New("torn write"))
		verb(7, ms/2, nil)
		flight := trace.NewFlight()
		traced := trace.WithTracer(ctx, trace.New(trace.WithFlight(flight)))
		pick := func(exclude ...transport.NodeID) []transport.NodeID {
			t.Helper()
			got, err := owner.pickRemotes(traced, 3, exclude)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]transport.NodeID, len(got))
			for i, g := range got {
				out[i] = transport.NodeID(g)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		expect := func(what string, got, want []transport.NodeID, skipped int64) {
			t.Helper()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: picked %v, want %v", what, got, want)
			}
			if n := skips.Value(); n != skipped {
				t.Errorf("%s: placement_slow_skips = %d, want %d", what, n, skipped)
			}
		}
		// 6 is unknown and 7's floor is fast, so both are within: the three
		// healthy donors suffice.
		expect("within", pick(), []transport.NodeID{2, 6, 7}, 3)
		if dump := flight.Dump(); !strings.Contains(dump, "placement.pick") || !strings.Contains(dump, "slow_skipped=3") {
			t.Errorf("flight recorder does not show the skips:\n%s", dump)
		}
		// Without 6 and 7 only 2 is within; 4 and 5, the fastest of the
		// slow, fill the shortfall and 3 is the one skip.
		expect("shortfall", pick(6, 7), []transport.NodeID{2, 4, 5}, 4)

		p.Sleep(staleAfter + ms)
		if got := owner.remote.floor(3, p.Now()); got != 0 {
			t.Errorf("floor %v survived staleAfter", got)
		}
		// Every donor has aged out: nothing is skipped, so round robin
		// over 3, 4, 5 and 7 probes the slowest donor again.
		expect("stale", pick(2, 6), []transport.NodeID{3, 5, 7}, 4)
		// A slow probe refreshes donor 3, and its window is still all slow.
		owner.remote.lat.observe(3, p.Now()-9*ms, p.Now(), nil)
		expect("refreshed", pick(2, 6), []transport.NodeID{4, 5, 7}, 5)

		// When the donors within the objective are full, a balancer that
		// skips full donors cannot fill the pick from them: it falls back to
		// every candidate, slow ones included, rather than fail the put.
		owner.balancer = placement.NewPowerOfTwo(1)
		for _, full := range []cluster.NodeID{6, 7} {
			if err := tc.dir.Heartbeat(full, 0); err != nil {
				t.Fatal(err)
			}
		}
		expect("full", pick(2), []transport.NodeID{3, 4, 5}, 5)
	})
}
