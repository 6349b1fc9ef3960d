package main

import (
	"context"
	"fmt"
	"math/rand"

	"godm/internal/dmcache"
	"godm/internal/metrics"
	"godm/internal/placement"
	"godm/internal/transport"
	"godm/internal/workload"
)

// cacheZipf is dmcache over four loopback donors with no injected delay,
// compression and windowing at their defaults, and a local tier one eighth
// of the working set. Key skew and the Get/Put mix are the Table-1
// Memcached profile's (Zipf 1.1, 95% reads), and so is each value's
// compressibility (profile.PageRatio per key). Values are 4, 2 or 1 KiB,
// cycling with the key index, so one admission can evict several entries and
// eviction windows form. Every popularity band holds each size equally:
// sizes drawn from the seed made the hottest keys' sizes, and with them the
// allocation per op (3250-4060 B over ten seeds), depend on the seed. Larger
// values are left out: above the codec's largest class (4 KiB) every
// compressed length becomes a slab class of its own, and the donor pools
// fill with near-empty slabs (NOTES.md).
const (
	cacheDonors    = 4
	cacheClientID  = transport.NodeID(100)
	cacheDonorRecv = 48 << 20
	cacheProfile   = "Memcached"
	cacheLocalFrac = 8 // local tier = working set / cacheLocalFrac
	cacheSizeSteps = 3 // value sizes: scale.size >> 0 .. cacheSizeSteps-1
)

type cacheSystem struct {
	sc    scale
	seed  int64
	prof  workload.Profile
	rig   *tcpRig
	cache *dmcache.Cache
	reg   *metrics.Registry
	keys  []string
	sizes []int // value bytes of each key
	rand  []int // leading pseudo-random bytes of each key's value
	user  int64 // sum of sizes
	v     *verifier
	buf   []byte
}

func setupCache(ctx context.Context, sc scale, seed int64, pr *probe) (system, error) {
	prof, err := workload.ByName(cacheProfile)
	if err != nil {
		return nil, err
	}
	ids := []transport.NodeID{cacheClientID}
	members := map[transport.NodeID]int64{}
	var peers []transport.NodeID
	for i := 1; i <= cacheDonors; i++ {
		id := transport.NodeID(i)
		ids = append(ids, id)
		peers = append(peers, id)
		members[id] = cacheDonorRecv
	}
	rig, err := listen(ids...)
	if err != nil {
		return nil, err
	}
	s := &cacheSystem{sc: sc, seed: seed, prof: prof, rig: rig, v: newVerifier(), buf: make([]byte, sc.size)}
	if err := s.start(ctx, peers, members, pr); err != nil {
		rig.close()
		return nil, err
	}
	return s, nil
}

func (s *cacheSystem) start(ctx context.Context, peers []transport.NodeID, members map[transport.NodeID]int64, pr *probe) error {
	for _, id := range peers {
		node, err := s.rig.addNode(nodeConfig(id, cacheDonorRecv, "", pr), pr.wrap(s.rig.eps[id]), members)
		if err != nil {
			return err
		}
		s.rig.donors = append(s.rig.donors, node)
	}
	s.keys = make([]string, s.sc.entries)
	s.sizes = make([]int, s.sc.entries)
	s.rand = make([]int, s.sc.entries)
	for k := range s.keys {
		s.keys[k] = fmt.Sprintf("key-%08d", k)
		s.sizes[k] = s.sc.size >> (k % cacheSizeSteps)
		s.rand[k] = int(float64(s.sizes[k]) / s.prof.PageRatio(s.seed, k))
		s.user += int64(s.sizes[k])
	}
	s.reg = metrics.NewRegistry("dmcache")
	c, err := dmcache.New(dmcache.Config{
		LocalBytes: s.user / cacheLocalFrac,
		Verbs:      pr.wrap(s.rig.eps[cacheClientID]),
		Peers:      peers,
		// The cache's default balancer, named so the traced run can wrap it.
		Balancer: pr.balancer(placement.NewPowerOfTwo(1)),
		Metrics:  s.reg,
	})
	if err != nil {
		return err
	}
	s.cache = c
	for k, key := range s.keys {
		val := s.buf[:s.sizes[k]]
		fillPayloadRandom(val, uint64(k), 1, s.rand[k])
		if err := c.Put(ctx, key, val); err != nil {
			return fmt.Errorf("preload %s: %w", key, err)
		}
		s.v.ack(uint64(k), val)
	}
	return nil
}

func (s *cacheSystem) drive(ctx context.Context, d *driver) error {
	rng := rand.New(rand.NewSource(s.seed))
	zipf := rand.NewZipf(rng, s.prof.ZipfS, 1, uint64(s.sc.entries-1))
	for i := 0; i < s.sc.ops; i++ {
		key := zipf.Uint64()
		if rng.Float64() < s.prof.ReadFraction {
			t := d.begin(ctx)
			val, found, err := s.cache.Get(t.ctx, s.keys[key])
			d.end(t, opGet, err)
			if err == nil && (!found || !s.v.check(key, val)) {
				d.reject(opGet, found)
			}
			continue
		}
		val := s.buf[:s.sizes[key]]
		fillPayloadRandom(val, key, s.v.version(key)+1, s.rand[key])
		t := d.begin(ctx)
		err := s.cache.Put(t.ctx, s.keys[key], val)
		d.end(t, opPut, err)
		if err == nil {
			s.v.ack(key, val)
		}
	}
	return nil
}

func (s *cacheSystem) state() sysState {
	st := newState()
	s.rig.fill(&st)
	st.userBytes = s.user
	st.liveEntries = int64(s.sc.entries - s.cache.LocalLen())
	cs := s.cache.Stats()
	for name, v := range map[string]int64{
		"local_hits": cs.LocalHits, "remote_hits": cs.RemoteHits, "misses": cs.Misses,
		"evictions": cs.Evictions, "dropped": cs.Dropped, "prefetched": cs.Prefetched,
		"prefetch_hits": cs.PrefetchHits,
	} {
		st.counters["cache."+name] = v
	}
	// Donor bytes per parked user byte: compression and slab rounding.
	parkedUser := s.user - s.reg.Gauge("local_bytes").Value()
	st.gauges["cache.parked_per_user_byte"] = ratio(float64(st.storedBytes), float64(parkedUser))
	return st
}

func (s *cacheSystem) opsPerRound() int { return s.sc.ops }

func (s *cacheSystem) close() { s.rig.close() }
