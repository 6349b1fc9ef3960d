package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"godm/internal/core"
	"godm/internal/faulty"
	"godm/internal/pagetable"
	"godm/internal/transport"
	"godm/internal/workload"
)

// vsParams shapes a VirtualServer workload: one owner (node 1) running the
// durability policy, donors 2..donors+1, and a Get/PutRemote mix.
type vsParams struct {
	donors     int
	durability string
	donorRecv  int64
	// readFrac is a stress mix, not a catalogued application's traffic:
	// the Table-1 key-value profiles read 90–95%, and a heavier overwrite
	// share keeps the durability policy's write path busy (NOTES.md).
	readFrac float64
	// skewProfile names the Table-1 profile whose ZipfS skews the keys;
	// "" means uniform keys.
	skewProfile string
	// delay is added to every verb the owner issues and slowExtra to those
	// bound for the last donor (the faulty delay rule the RTT rigs use).
	delay, slowExtra time.Duration
	// preloadWorkers > 1 preloads concurrently; 1 keeps placement order
	// (and so the leak pattern of overwrites) the same on every round.
	preloadWorkers int
}

// pageRF3 is one owner and four donors with no injected delay, rf3,
// 4 KiB pages, the Redis profile's key skew (Zipf 1.1), 70% reads and 30%
// overwrites.
var pageRF3 = vsParams{
	donors: 4, durability: "rf3", donorRecv: 48 << 20,
	readFrac: 0.7, skewProfile: "Redis", preloadWorkers: 1,
}

// stripeRS42 is eight nodes with RS(4,2), 64 KiB entries, a 1 ms delay on
// every owner-issued verb and +4 ms toward one donor, 50/50 reads and
// overwrites over uniform keys.
var stripeRS42 = vsParams{
	donors: 7, durability: "rs4.2", donorRecv: 16 << 20,
	readFrac: 0.5, delay: time.Millisecond, slowExtra: 4 * time.Millisecond,
	preloadWorkers: 8,
}

type vsSystem struct {
	p     vsParams
	sc    scale
	seed  int64
	rig   *tcpRig
	owner *core.Node
	vs    *core.VirtualServer
	v     *verifier
	buf   []byte
}

func setupVS(p vsParams) func(ctx context.Context, sc scale, seed int64, pr *probe) (system, error) {
	return func(ctx context.Context, sc scale, seed int64, pr *probe) (system, error) {
		ids := make([]transport.NodeID, p.donors+1)
		members := map[transport.NodeID]int64{}
		for i := range ids {
			ids[i] = transport.NodeID(i + 1)
			members[ids[i]] = p.donorRecv
		}
		rig, err := listen(ids...)
		if err != nil {
			return nil, err
		}
		s := &vsSystem{p: p, sc: sc, seed: seed, rig: rig, v: newVerifier(), buf: make([]byte, sc.size)}
		if err := s.start(ctx, ids, members, pr); err != nil {
			rig.close()
			return nil, err
		}
		return s, nil
	}
}

func (s *vsSystem) start(ctx context.Context, ids []transport.NodeID, members map[transport.NodeID]int64, pr *probe) error {
	for _, id := range ids {
		var ep transport.Endpoint = s.rig.eps[id]
		cfg := nodeConfig(id, s.p.donorRecv, "", pr)
		if id == ids[0] {
			cfg.Durability = s.p.durability
			cfg.RecvPoolBytes = 1 << 20 // the owner donates nothing it would use
			if s.p.delay > 0 {
				inj := faulty.New(s.seed)
				inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
					From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100, Delay: s.p.delay})
				inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
					From: faulty.AnyNode, To: ids[len(ids)-1], Pct: 100, Delay: s.p.slowExtra})
				ep = inj.Wrap(ep)
			}
		}
		node, err := s.rig.addNode(cfg, pr.wrap(ep), members)
		if err != nil {
			return err
		}
		if id == ids[0] {
			s.owner = node
		} else {
			s.rig.donors = append(s.rig.donors, node)
		}
	}
	vs, err := s.owner.AddServer("bench", 0)
	if err != nil {
		return err
	}
	s.vs = vs
	return s.preload(ctx)
}

// preload writes version 1 of every entry.
func (s *vsSystem) preload(ctx context.Context) error {
	var mu sync.Mutex
	var firstErr error
	next := make(chan uint64)
	var wg sync.WaitGroup
	for w := 0; w < s.p.preloadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, s.sc.size)
			for key := range next {
				fillPayload(buf, key, 1)
				err := s.vs.PutRemote(ctx, pagetable.EntryID(key), buf, s.sc.size, s.sc.size)
				mu.Lock()
				if err == nil {
					s.v.ack(key, buf)
				} else if firstErr == nil {
					firstErr = fmt.Errorf("preload entry %d: %w", key, err)
				}
				mu.Unlock()
			}
		}()
	}
	for key := 0; key < s.sc.entries; key++ {
		next <- uint64(key)
	}
	close(next)
	wg.Wait()
	return firstErr
}

// drive runs the round's op script: the same keys, kinds and order in
// every round of a run, derived from the seed alone.
func (s *vsSystem) drive(ctx context.Context, d *driver) error {
	rng := rand.New(rand.NewSource(s.seed))
	var zipf *rand.Zipf
	if s.p.skewProfile != "" {
		prof, err := workload.ByName(s.p.skewProfile)
		if err != nil {
			return err
		}
		zipf = rand.NewZipf(rng, prof.ZipfS, 1, uint64(s.sc.entries-1))
	}
	for i := 0; i < s.sc.ops; i++ {
		var key uint64
		if zipf != nil {
			key = zipf.Uint64()
		} else {
			key = uint64(rng.Intn(s.sc.entries))
		}
		id := pagetable.EntryID(key)
		if rng.Float64() < s.p.readFrac {
			t := d.begin(ctx)
			data, _, err := s.vs.Get(t.ctx, id)
			d.end(t, opGet, err)
			if err == nil && !s.v.check(key, data) {
				d.reject(opGet, true)
			}
			continue
		}
		fillPayload(s.buf, key, s.v.version(key)+1)
		t := d.begin(ctx)
		err := s.vs.PutRemote(t.ctx, id, s.buf, s.sc.size, s.sc.size)
		d.end(t, opPut, err)
		if err == nil {
			s.v.ack(key, s.buf)
		}
	}
	return nil
}

func (s *vsSystem) state() sysState {
	st := newState()
	s.rig.fill(&st)
	st.userBytes = int64(s.sc.entries) * int64(s.sc.size)
	st.liveEntries = int64(s.sc.entries)
	repl := s.owner.ReplicationMetrics()
	for _, c := range []string{"reads", "read_failovers", "writes", "write_aborts"} {
		st.counters["repl."+c] = repl.Counter(c).Value()
	}
	if ec := s.owner.CodingMetrics(); ec != nil {
		for _, c := range []string{"reads", "hedged_reads", "degraded_reads", "writes", "write_aborts"} {
			st.counters["ec."+c] = ec.Counter(c).Value()
		}
	}
	return st
}

func (s *vsSystem) opsPerRound() int { return s.sc.ops }

func (s *vsSystem) close() { s.rig.close() }
