package core

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/faulty"
	"godm/internal/pagetable"
	"godm/internal/placement"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

// ecBenchPayload is the per-entry payload for the striped-read/write
// benchmarks: large enough that RS(4,2)'s 16 KiB shards carry real data, the
// same size the codec benchmarks in internal/ec use.
const ecBenchPayload = 64 << 10

// ecBenchRig is one owner node plus seven donor peers over loopback TCP,
// with every owner-issued verb delayed by an emulated fabric RTT (the
// benchmarks use benchRTT, the same middleware and figure as the data-plane
// benchmarks — loopback has no propagation delay, and RTT is exactly what
// the scatter fan-out and the hedge timer exist to hide; zero adds none).
// The owner runs the durability policy under test; the injector doubles as
// the donor-crash/slow-donor lever. Extra middlewares wrap the owner's
// fabric outside the injector, so they see every verb the owner issues,
// delayed or not.
type ecBenchRig struct {
	owner *Node
	vs    *VirtualServer
	inj   *faulty.Injector
}

func newECBenchRig(b testing.TB, durability string, rtt time.Duration, mws ...transport.Middleware) *ecBenchRig {
	b.Helper()
	const n = 8
	inj := faulty.New(1)
	if rtt > 0 {
		inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
			From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100, Delay: rtt})
	}

	addrs := map[transport.NodeID]string{}
	var eps []*tcpnet.Endpoint
	for i := 1; i <= n; i++ {
		ep, err := tcpnet.Listen(transport.NodeID(i), "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		eps = append(eps, ep)
		addrs[ep.ID()] = ep.Addr()
		b.Cleanup(func() { _ = ep.Close() })
	}
	rig := &ecBenchRig{inj: inj}
	for i, ep := range eps {
		for id, addr := range addrs {
			if id != ep.ID() {
				ep.AddPeer(id, addr)
			}
		}
		dir, err := cluster.NewDirectory(cluster.Config{GroupSize: n, HeartbeatTimeout: 3})
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j <= n; j++ {
			dir.Join(cluster.NodeID(j), 64<<20)
		}
		cfg := Config{
			ID: ep.ID(), SharedPoolBytes: 1 << 20, SendPoolBytes: 1 << 20,
			RecvPoolBytes: 64 << 20, SlabSize: 1 << 20, ReplicationFactor: 3,
		}
		var fabric transport.Endpoint = ep
		if i == 0 {
			cfg.Durability = durability
			cfg.Balancer = placement.NewRoundRobin() // deterministic stripe sets
			fabric = transport.Chain(ep, append(mws, inj.Wrap)...)
		}
		node, err := NewNode(cfg, fabric, dir)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rig.owner = node
			vs, err := node.AddServer("ec-bench", 0)
			if err != nil {
				b.Fatal(err)
			}
			rig.vs = vs
		}
	}
	return rig
}

// put stripes one payload under id and returns it with the holder set.
func (rig *ecBenchRig) put(b testing.TB, ctx context.Context, id pagetable.EntryID) ([]byte, []transport.NodeID) {
	b.Helper()
	payload := make([]byte, ecBenchPayload)
	rand.New(rand.NewSource(int64(id))).Read(payload)
	if err := rig.vs.PutRemote(ctx, id, payload, ecBenchPayload, ecBenchPayload); err != nil {
		b.Fatal(err)
	}
	loc, err := rig.vs.Location(id)
	if err != nil {
		b.Fatal(err)
	}
	holders := []transport.NodeID{transport.NodeID(loc.Primary)}
	for _, r := range loc.Replicas {
		holders = append(holders, transport.NodeID(r))
	}
	return payload, holders
}

// benchECRead times remote reads of one striped entry, optionally with the
// first holder (shard 0 for rs, the primary copy for rf) crashed so every
// read takes the degraded path: replica failover under rf, parity
// reconstruction under rs.
func benchECRead(b *testing.B, durability string, degraded bool) {
	rig := newECBenchRig(b, durability, benchRTT)
	ctx := context.Background()
	payload, holders := rig.put(b, ctx, 1)
	if degraded {
		rig.inj.Crash(holders[0])
	}
	got, _, err := rig.vs.Get(ctx, 1)
	if err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		b.Fatal("read returned wrong bytes")
	}
	b.SetBytes(ecBenchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rig.vs.Get(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkECReadRTT is the striped-read comparison in BENCH_ec.json:
// healthy and degraded remote reads under RS(4,2) versus triple replication,
// 64 KiB entries, 1 ms emulated fabric RTT. Acceptance: the rs degraded
// (reconstruct-on-read) figure stays within 2x the rs healthy figure.
func BenchmarkECReadRTT(b *testing.B) {
	for _, tc := range []struct {
		name       string
		durability string
		degraded   bool
	}{
		{"policy=rf3/healthy", "rf3", false},
		{"policy=rf3/degraded", "rf3", true},
		{"policy=rs4.2/healthy", "rs4.2", false},
		{"policy=rs4.2/degraded", "rs4.2", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchECRead(b, tc.durability, tc.degraded)
		})
	}
}

// BenchmarkECWriteRTT times steady-state remote writes (in-place overwrites
// after the first put reserves the blocks): a 6-shard encode + scatter under
// RS(4,2) against a 3-copy fan-out under rf3, same payload, same fabric.
func BenchmarkECWriteRTT(b *testing.B) {
	for _, durability := range []string{"rf3", "rs4.2"} {
		b.Run("policy="+durability, func(b *testing.B) {
			rig := newECBenchRig(b, durability, benchRTT)
			ctx := context.Background()
			payload, _ := rig.put(b, ctx, 1)
			b.SetBytes(ecBenchPayload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rig.vs.PutRemote(ctx, 1, payload, ecBenchPayload, ecBenchPayload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkECWriteSlowDonorRTT is stripe-rs42's write path: RS(4,2) over
// the 1 ms emulated RTT with one donor +4 ms on every verb from the start,
// timing steady-state overwrites that rotate over many entries, so each put
// allocates a new stripe and frees the old one. Placement skips the slow
// donor once the owner has timed it above the get objective; without that
// rule six of every seven stripes hold a shard there and each put waits on
// it for the alloc, the write and the old stripe's free. The p99 is
// reported per run; about once a second the donor's timings age out and
// one put probes it again.
func BenchmarkECWriteSlowDonorRTT(b *testing.B) {
	const entries = 64
	rig := newECBenchRig(b, "rs4.2", benchRTT)
	rig.inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: slowDonor, Pct: 100, Delay: 4 * time.Millisecond})
	ctx := context.Background()
	payloads := make([][]byte, entries)
	for i := range payloads {
		payloads[i], _ = rig.put(b, ctx, pagetable.EntryID(i+1))
	}
	b.SetBytes(ecBenchPayload)
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := rig.vs.PutRemote(ctx, pagetable.EntryID(i%entries+1), payloads[i%entries], ecBenchPayload, ecBenchPayload); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(float64(lats[len(lats)*99/100])/1e6, "p99-ms")
}

// BenchmarkECReadHedgedTailRTT measures what first-hand donor latency buys:
// one data-shard donor turns slow (+20 ms per verb on top of the 1 ms RTT)
// after the owner has timed it fast. The first read hedges — its timer is
// twice the plan's largest estimate — and the cancelled fetch raises the
// donor's estimate, so every timed read plans the fastest parity shard in
// its place and reconstructs without waiting on it. The p99 is reported per
// run; acceptance is a p99 well under the slow donor's 21 ms floor.
func BenchmarkECReadHedgedTailRTT(b *testing.B) {
	b.Run("plan=first-hand", func(b *testing.B) {
		rig := newECBenchRig(b, "rs4.2", benchRTT)
		ctx := context.Background()
		payload, holders := rig.put(b, ctx, 1)
		// Slow, not dead: the fetch succeeds if waited on, so only the hedge
		// timer (never an error) cuts the first read over to parity.
		rig.inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
			From: faulty.AnyNode, To: holders[0], Pct: 100, Delay: 20 * time.Millisecond})
		got, _, err := rig.vs.Get(ctx, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			b.Fatal("read returned wrong bytes")
		}
		b.SetBytes(ecBenchPayload)
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, _, err := rig.vs.Get(ctx, 1); err != nil {
				b.Fatal(err)
			}
			lats = append(lats, time.Since(start))
		}
		b.StopTimer()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 := lats[len(lats)*99/100]
		b.ReportMetric(float64(p99)/1e6, "p99-ms")
	})
}
