package placement

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func candidates(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{Node: NodeID(i), FreeBytes: 1 << 20}
	}
	return out
}

func allBalancers() []Balancer {
	return []Balancer{
		NewRandom(1),
		NewRoundRobin(),
		NewWeightedRoundRobin(1),
		NewPowerOfTwo(1),
	}
}

func TestPickReturnsDistinctNodes(t *testing.T) {
	for _, b := range allBalancers() {
		t.Run(b.Name(), func(t *testing.T) {
			cands := candidates(8)
			for trial := 0; trial < 100; trial++ {
				got, err := b.Pick(cands, 3)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 3 {
					t.Fatalf("len = %d, want 3", len(got))
				}
				seen := map[NodeID]bool{}
				for _, id := range got {
					if seen[id] {
						t.Fatalf("duplicate node %d in %v", id, got)
					}
					seen[id] = true
					if id < 0 || int(id) >= len(cands) {
						t.Fatalf("node %d outside candidate set", id)
					}
				}
			}
		})
	}
}

func TestPickInsufficientCandidates(t *testing.T) {
	for _, b := range allBalancers() {
		t.Run(b.Name(), func(t *testing.T) {
			if _, err := b.Pick(candidates(2), 3); !errors.Is(err, ErrInsufficientCandidates) {
				t.Fatalf("err = %v, want ErrInsufficientCandidates", err)
			}
		})
	}
}

func TestPickRejectsNonPositiveN(t *testing.T) {
	for _, b := range allBalancers() {
		if _, err := b.Pick(candidates(3), 0); err == nil {
			t.Fatalf("%s: expected error for n=0", b.Name())
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	rr := NewRoundRobin()
	cands := candidates(4)
	var got []NodeID
	for i := 0; i < 8; i++ {
		ids, err := rr.Pick(cands, 1)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ids[0])
	}
	want := []NodeID{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinIgnoresCandidateOrder(t *testing.T) {
	rr := NewRoundRobin()
	shuffled := []Candidate{{Node: 3}, {Node: 1}, {Node: 0}, {Node: 2}}
	ids, err := rr.Pick(shuffled, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 1, 2, 3}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want sorted %v", ids, want)
		}
	}
}

func TestWeightedPrefersFreeMemory(t *testing.T) {
	w := NewWeightedRoundRobin(7)
	cands := []Candidate{
		{Node: 0, FreeBytes: 1},
		{Node: 1, FreeBytes: 1 << 30},
	}
	hits := map[NodeID]int{}
	for i := 0; i < 1000; i++ {
		ids, err := w.Pick(cands, 1)
		if err != nil {
			t.Fatal(err)
		}
		hits[ids[0]]++
	}
	if hits[1] < 990 {
		t.Fatalf("heavy node picked %d/1000, want nearly always", hits[1])
	}
}

// An all-full cluster must fail the pick, not hand back a node whose Put is
// guaranteed to fail: the load-sensitive balancers skip candidates with zero
// or negative free bytes even when that exhausts every sample.
func TestAllFullClusterFailsPick(t *testing.T) {
	full := []Candidate{{Node: 0}, {Node: 1, FreeBytes: -5}, {Node: 2}}
	for _, b := range []Balancer{NewWeightedRoundRobin(7), NewPowerOfTwo(7)} {
		t.Run(b.Name(), func(t *testing.T) {
			if _, err := b.Pick(full, 1); !errors.Is(err, ErrInsufficientCandidates) {
				t.Fatalf("err = %v, want ErrInsufficientCandidates", err)
			}
		})
	}
}

// With exactly one node still free, every pick lands on it regardless of how
// the samples fall.
func TestSkipsFullCandidates(t *testing.T) {
	cands := []Candidate{
		{Node: 0, FreeBytes: 0},
		{Node: 1, FreeBytes: 1 << 20},
		{Node: 2, FreeBytes: 0},
		{Node: 3, FreeBytes: -1},
	}
	for _, b := range []Balancer{NewWeightedRoundRobin(7), NewPowerOfTwo(7)} {
		t.Run(b.Name(), func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				ids, err := b.Pick(cands, 1)
				if err != nil {
					t.Fatal(err)
				}
				if ids[0] != 1 {
					t.Fatalf("picked full node %d", ids[0])
				}
			}
			if _, err := b.Pick(cands, 2); !errors.Is(err, ErrInsufficientCandidates) {
				t.Fatalf("want ErrInsufficientCandidates for n=2 with one free node")
			}
		})
	}
}

// WithinObjective keeps the donors at or under the objective (unknown
// counts as under), fills a shortfall with the lowest figures over it, and
// leaves a set with nothing over the objective untouched.
func TestWithinObjective(t *testing.T) {
	const obj = 4 * time.Millisecond
	ms := time.Millisecond
	cands := []Candidate{
		{Node: 1, Latency: ms},
		{Node: 2, Latency: 9 * ms},
		{Node: 3},                  // unknown: within
		{Node: 4, Latency: 5 * ms}, // over, fastest of the slow
		{Node: 5, Latency: obj},    // at the objective: within
		{Node: 6, Latency: 5 * ms}, // ties node 4, higher ID
	}
	for _, tc := range []struct {
		n       int
		want    []NodeID
		skipped int
	}{
		{n: 2, want: []NodeID{1, 3, 5}, skipped: 3},
		{n: 3, want: []NodeID{1, 3, 5}, skipped: 3},
		{n: 4, want: []NodeID{1, 3, 4, 5}, skipped: 2},
		{n: 5, want: []NodeID{1, 3, 4, 5, 6}, skipped: 1},
		{n: 6, want: []NodeID{1, 2, 3, 4, 5, 6}, skipped: 0},
	} {
		pool, skipped := WithinObjective(cands, obj, tc.n)
		var got []NodeID
		for _, c := range pool {
			got = append(got, c.Node)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || skipped != tc.skipped {
			t.Errorf("n=%d: pool %v skipped %d, want %v skipped %d", tc.n, got, skipped, tc.want, tc.skipped)
		}
	}
	for _, obj := range []time.Duration{10 * ms, 0} {
		pool, skipped := WithinObjective(cands, obj, 3)
		if len(pool) != len(cands) || &pool[0] != &cands[0] || skipped != 0 {
			t.Errorf("objective %v: pool %v skipped %d, want the candidates unchanged", obj, pool, skipped)
		}
	}
}

func TestPowerOfTwoBeatsRandomOnSkewedLoad(t *testing.T) {
	// Nodes start with equal free memory; each placement consumes capacity,
	// so the balancer sees its own feedback. Power-of-two should land
	// noticeably more balanced than load-blind random.
	run := func(b Balancer) float64 {
		free := make([]int64, 16)
		for i := range free {
			free[i] = 1000
		}
		loads := map[NodeID]int64{}
		for i := 0; i < 800; i++ {
			cands := make([]Candidate, len(free))
			for j := range free {
				cands[j] = Candidate{Node: NodeID(j), FreeBytes: free[j]}
			}
			ids, err := b.Pick(cands, 1)
			if err != nil {
				t.Fatal(err)
			}
			loads[ids[0]]++
			if free[ids[0]] > 0 {
				free[ids[0]]--
			}
		}
		return Imbalance(loads)
	}
	random := run(NewRandom(3))
	p2c := run(NewPowerOfTwo(3))
	if p2c >= random {
		t.Fatalf("power-of-two imbalance %.3f not better than random %.3f", p2c, random)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance(nil); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
	if got := Imbalance(map[NodeID]int64{0: 10, 1: 10}); got != 1 {
		t.Fatalf("balanced = %v, want 1", got)
	}
	if got := Imbalance(map[NodeID]int64{0: 30, 1: 10}); got != 1.5 {
		t.Fatalf("skewed = %v, want 1.5", got)
	}
	if got := Imbalance(map[NodeID]int64{0: 0, 1: 0}); got != 0 {
		t.Fatalf("zero loads = %v, want 0", got)
	}
}

func TestRandomDeterministicWithSeed(t *testing.T) {
	a := NewRandom(42)
	b := NewRandom(42)
	cands := candidates(10)
	for i := 0; i < 20; i++ {
		ga, _ := a.Pick(cands, 3)
		gb, _ := b.Pick(cands, 3)
		for j := range ga {
			if ga[j] != gb[j] {
				t.Fatalf("same seed diverged: %v vs %v", ga, gb)
			}
		}
	}
}

// Property: every balancer always returns n distinct in-range nodes for any
// candidate set large enough.
func TestPickProperty(t *testing.T) {
	for _, b := range allBalancers() {
		b := b
		f := func(sizes []uint8, nRaw uint8) bool {
			if len(sizes) < 3 {
				return true
			}
			cands := make([]Candidate, len(sizes))
			for i, s := range sizes {
				cands[i] = Candidate{Node: NodeID(i), FreeBytes: int64(s)}
			}
			n := int(nRaw)%3 + 1
			ids, err := b.Pick(cands, n)
			if err != nil {
				return false
			}
			seen := map[NodeID]bool{}
			for _, id := range ids {
				if seen[id] || int(id) >= len(cands) || id < 0 {
					return false
				}
				seen[id] = true
			}
			return len(ids) == n
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
	}
}

func BenchmarkPowerOfTwoPick(b *testing.B) {
	p := NewPowerOfTwo(1)
	cands := candidates(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Pick(cands, 3); err != nil {
			b.Fatal(err)
		}
	}
}
