package ec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stripeFetcher serves ReadInto from an in-memory stripe, with per-shard
// fault and delay injection. It records the shard indices fetched, in
// issue order.
type stripeFetcher struct {
	shards  [][]byte
	fail    map[int]bool
	delay   map[int]time.Duration
	fetches atomic.Int64

	mu    sync.Mutex
	order []int
}

func (f *stripeFetcher) fetch(ctx context.Context, idx int, dst []byte) error {
	f.fetches.Add(1)
	f.mu.Lock()
	f.order = append(f.order, idx)
	f.mu.Unlock()
	if d, ok := f.delay[idx]; ok {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if f.fail[idx] {
		return fmt.Errorf("shard %d: donor dead", idx)
	}
	copy(dst, f.shards[idx])
	return nil
}

func newStripeFetcher(t *testing.T, c *Code, data []byte) *stripeFetcher {
	t.Helper()
	return &stripeFetcher{
		shards: makeStripe(t, c, data),
		fail:   map[int]bool{},
		delay:  map[int]time.Duration{},
	}
}

func testPayload(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestReadIntoHealthy(t *testing.T) {
	for _, serial := range []bool{true, false} {
		for _, n := range []int{1, 5, 4096, 4097} {
			c, _ := New(4, 2)
			data := testPayload(n, int64(n))
			f := newStripeFetcher(t, c, data)
			dst := make([]byte, n)
			err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{Serial: serial})
			if err != nil {
				t.Fatalf("serial=%v n=%d: %v", serial, n, err)
			}
			if !bytes.Equal(dst, data) {
				t.Fatalf("serial=%v n=%d: payload differs", serial, n)
			}
		}
	}
}

func TestReadIntoDegraded(t *testing.T) {
	for _, serial := range []bool{true, false} {
		// Fail up to m donors in every combination of data/parity positions.
		for _, pattern := range erasurePatterns(6, 2) {
			c, _ := New(4, 2)
			data := testPayload(2000, 99)
			f := newStripeFetcher(t, c, data)
			for _, p := range pattern {
				f.fail[p] = true
			}
			degraded := false
			dst := make([]byte, len(data))
			err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{
				Serial:     serial,
				OnDegraded: func() { degraded = true },
			})
			failedData := 0
			for _, p := range pattern {
				if p < 4 {
					failedData++
				}
			}
			if err != nil {
				t.Fatalf("serial=%v fail=%v: %v", serial, pattern, err)
			}
			if !bytes.Equal(dst, data) {
				t.Fatalf("serial=%v fail=%v: payload differs", serial, pattern)
			}
			if failedData > 0 && !degraded {
				t.Fatalf("serial=%v fail=%v: data-shard loss did not report degraded", serial, pattern)
			}
		}
	}
}

func TestReadIntoTooManyFailures(t *testing.T) {
	for _, serial := range []bool{true, false} {
		c, _ := New(4, 2)
		data := testPayload(1024, 5)
		f := newStripeFetcher(t, c, data)
		f.fail[0], f.fail[2], f.fail[4] = true, true, true // 3 losses > m=2
		dst := make([]byte, len(data))
		err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{Serial: serial})
		if !errors.Is(err, ErrShortShards) {
			t.Fatalf("serial=%v: err = %v, want ErrShortShards", serial, err)
		}
	}
}

// TestReadIntoHedge: one data donor stalls far past the hedge timer; the
// read must complete from parity without waiting it out, and report both the
// hedge and the degraded reconstruction.
func TestReadIntoHedge(t *testing.T) {
	c, _ := New(4, 2)
	data := testPayload(8192, 11)
	f := newStripeFetcher(t, c, data)
	f.delay[1] = 30 * time.Second // stalled donor, cancelled on completion
	hedged, degraded := false, false
	dst := make([]byte, len(data))
	start := time.Now()
	err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{
		Hedge:      10 * time.Millisecond,
		OnHedge:    func() { hedged = true },
		OnDegraded: func() { degraded = true },
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("payload differs after hedged read")
	}
	if !hedged {
		t.Error("hedge timer did not fire")
	}
	if !degraded {
		t.Error("hedged read did not report degraded")
	}
	if elapsed > 5*time.Second {
		t.Errorf("hedged read took %v: waited for the stalled donor", elapsed)
	}
}

// TestReadIntoHedgeUnneeded: a hedge timer far above fetch latency never
// fires, and only the k data fetches are issued.
func TestReadIntoHedgeUnneeded(t *testing.T) {
	c, _ := New(4, 2)
	data := testPayload(4096, 13)
	f := newStripeFetcher(t, c, data)
	hedged := false
	dst := make([]byte, len(data))
	err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{
		Hedge:   30 * time.Second,
		OnHedge: func() { hedged = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if hedged {
		t.Error("hedge fired although all donors were fast")
	}
	if got := f.fetches.Load(); got != 4 {
		t.Errorf("issued %d fetches, want 4 (k) on the healthy path", got)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("payload differs")
	}
}

// TestReadIntoContextCancelled: a cancelled context fails the read rather
// than hanging on donors that will never answer.
func TestReadIntoContextCancelled(t *testing.T) {
	c, _ := New(2, 1)
	data := testPayload(512, 17)
	f := newStripeFetcher(t, c, data)
	f.delay[0], f.delay[1], f.delay[2] = time.Minute, time.Minute, time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	dst := make([]byte, len(data))
	err := c.ReadInto(ctx, dst, f.fetch, ReadOpts{Hedge: 5 * time.Millisecond})
	if err == nil {
		t.Fatal("read with all donors stalled succeeded")
	}
}

// fetched returns the shard indices fetched so far, in issue order, and
// forgets them.
func (f *stripeFetcher) fetched() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.order
	f.order = nil
	return out
}

// ms builds a per-shard latency estimate vector from milliseconds.
func ms(v ...int) []time.Duration {
	out := make([]time.Duration, len(v))
	for i, x := range v {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

// TestReadPlanSkipsSlowDataShard: a data shard whose donor's estimate is
// above twice the k-th lowest estimate is planned around — never fetched,
// reconstructed from the fastest parity shard — without the hedge firing.
func TestReadPlanSkipsSlowDataShard(t *testing.T) {
	c, _ := New(4, 2)
	data := testPayload(8192, 21)
	f := newStripeFetcher(t, c, data)
	hedged, degraded, planned := false, false, 0
	dst := make([]byte, len(data))
	// w = 100 ms, so shard 3 at 1 s is out of the plan and the hedge is
	// armed at 200 ms: far beyond an in-memory fetch.
	err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{
		Latency:    ms(100, 100, 100, 1000, 100, 90),
		OnHedge:    func() { hedged = true },
		OnPlan:     func(n int) { planned = n },
		OnDegraded: func() { degraded = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("payload differs after a planned reconstruction")
	}
	got := f.fetched()
	sort.Ints(got)
	if want := []int{0, 1, 2, 5}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fetched shards %v, want %v (the fastest parity replaces slow shard 3)", got, want)
	}
	if !degraded {
		t.Error("planned reconstruction did not report degraded")
	}
	if hedged {
		t.Error("hedge fired although every planned donor answered at once")
	}
	if planned != 1 {
		t.Errorf("OnPlan reported %d parity substitutions, want 1", planned)
	}
}

// TestReadPlanCloseEstimatesFetchData: equal, unknown or absent estimates —
// and any spread within the 2x margin — plan exactly the k data shards.
func TestReadPlanCloseEstimatesFetchData(t *testing.T) {
	for _, est := range [][]time.Duration{
		nil,
		ms(0, 0, 0, 0, 0, 0),
		ms(50, 50, 50, 50, 50, 50),
		ms(100, 190, 100, 200, 1, 1),
	} {
		c, _ := New(4, 2)
		data := testPayload(4096, 23)
		f := newStripeFetcher(t, c, data)
		dst := make([]byte, len(data))
		err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{
			Latency: est,
			OnPlan:  func(int) { t.Errorf("est %v: plan substituted parity", est) },
		})
		if err != nil {
			t.Fatalf("est %v: %v", est, err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatalf("est %v: payload differs", est)
		}
		got := f.fetched()
		sort.Ints(got)
		if want := []int{0, 1, 2, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("est %v: fetched shards %v, want the data shards %v", est, got, want)
		}
	}
}

// TestReadPlanSerialIgnoresLatency: the deterministic serial plan fetches
// the data shards in index order whatever the estimates say, so simulated
// runs and chaos replays keep their op sequence.
func TestReadPlanSerialIgnoresLatency(t *testing.T) {
	c, _ := New(4, 2)
	data := testPayload(4096, 25)
	f := newStripeFetcher(t, c, data)
	dst := make([]byte, len(data))
	err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{
		Serial:  true,
		Latency: ms(1000, 1000, 1, 1000, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("payload differs")
	}
	if got, want := f.fetched(), []int{0, 1, 2, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("serial read fetched %v, want %v", got, want)
	}
}

// TestReadPlanAllocs: planning from estimates adds no heap allocation — a
// steered read (one slow data shard planned around) allocates no more than
// an unsteered read of the same stripe. Both arm a hedge timer, as every
// policy read does (the get SLO is the fallback delay).
func TestReadPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c, _ := New(4, 2)
	data := testPayload(16384, 27)
	f := newStripeFetcher(t, c, data)
	dst := make([]byte, len(data))
	read := func(est []time.Duration) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{Latency: est, Hedge: time.Second}); err != nil {
				t.Fatal(err)
			}
			f.fetched()
		})
	}
	unsteered := read(nil)
	steered := read(ms(100, 100, 100, 1000, 100, 100))
	if steered > unsteered {
		t.Errorf("steered read allocates %.0f objects, unsteered %.0f", steered, unsteered)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("payload differs")
	}
}
