package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// opKind classifies a timed operation for the latency percentiles.
type opKind int

const (
	opGet   opKind = iota // a read: Get, or a page touch that reads the page back in
	opPut                 // a write: PutRemote/Put, or a page touch that writes a window out
	opOther               // counted toward goodput, no latency sample (a resident page touch)
)

// scale sizes one workload; the self-test runs the same code at a tiny scale.
type scale struct {
	entries int // preloaded entries, cache keys, or pages in the address space
	ops     int // operations (or trace iterations for swap) in one round
	size    int // payload bytes per entry
}

// spec builds a fresh, preloaded system for one round.
type spec struct {
	full, tiny scale
	// roundSeconds is the op time of one full-scale round on the reference
	// host (a 2-vCPU Xeon VM); it sets how many rounds a run makes.
	roundSeconds float64
	setup        func(ctx context.Context, sc scale, seed int64, pr *probe) (system, error)
}

// system is one round's fresh cluster, already preloaded.
type system interface {
	// opsPerRound is the length of the round's op script.
	opsPerRound() int
	// drive issues the round's fixed, seed-derived operation script,
	// timing each program call through d.
	drive(ctx context.Context, d *driver) error
	// state reports end-of-round space figures and cumulative counters.
	state() sysState
	close()
}

// sysState is a snapshot of the program's own figures.
type sysState struct {
	storedBytes int64 // donor receive-pool live bytes
	userBytes   int64 // live user bytes (the denominator of stored_bytes_per_byte)
	liveEntries int64 // entries the donors hold blocks for
	liveBlocks  int64
	regBytes    int64 // donor receive-pool registered bytes
	counters    map[string]int64
	gauges      map[string]float64 // per-round values that are not deltas
}

// segmentsPerRound splits each round's op script into equal segments. The
// latency and goodput figures are medians over segments, so a burst of host
// contention spoils one segment, not the run.
const segmentsPerRound = 5

// segment is one slice of a round's op script.
type segment struct {
	goodput                        float64
	getP50, getP95, putP50, putP95 float64
}

// driver times one round's program calls and tallies verification results.
type driver struct {
	pr        *probe // nil in untraced rounds
	get, put  []float64
	ok        int64 // successful ops
	attempted int64
	failed    int64
	wrong     int64 // reads that returned bytes other than the last acknowledged write
	opTime    time.Duration

	segSize  int64
	segStart struct {
		get, put  int
		ok        int64
		attempted int64
		opTime    time.Duration
	}
	segs []segment
}

// opTimer is the in-flight half of one timed call.
type opTimer struct {
	ctx   context.Context
	start time.Time
	root  rootSpan
}

// begin starts timing one program call. Use t.ctx for the call.
func (d *driver) begin(ctx context.Context) opTimer {
	if d.segSize > 0 && d.attempted-d.segStart.attempted >= d.segSize {
		d.closeSegment()
	}
	t := opTimer{ctx: ctx}
	if d.pr != nil {
		t.ctx, t.root = d.pr.startOp(ctx)
	}
	t.start = time.Now()
	return t
}

// end finishes timing and records the call; see stop and record.
func (d *driver) end(t opTimer, kind opKind, err error) {
	d.record(kind, d.stop(t), err)
}

// stop finishes timing one call and returns its wall time.
func (d *driver) stop(t opTimer) time.Duration {
	el := time.Since(t.start)
	d.opTime += el
	if d.pr != nil {
		d.pr.endOp(t.root)
	}
	return el
}

// record counts one call; a nil err counts a success with a latency sample.
func (d *driver) record(kind opKind, el time.Duration, err error) {
	d.attempted++
	if err != nil {
		d.failed++
		return
	}
	d.ok++
	switch kind {
	case opGet:
		d.get = append(d.get, float64(el.Nanoseconds())/1e3)
	case opPut:
		d.put = append(d.put, float64(el.Nanoseconds())/1e3)
	}
}

// reject turns a successful read into a failure: the bytes were missing or
// not the last acknowledged write. The op's latency sample is withdrawn.
func (d *driver) reject(kind opKind, wrong bool) {
	d.ok--
	d.failed++
	if wrong {
		d.wrong++
	}
	switch kind {
	case opGet:
		d.get = d.get[:len(d.get)-1]
	case opPut:
		d.put = d.put[:len(d.put)-1]
	}
}

// violated records a broken end-of-round invariant of the program's own
// state: the round's outputs are not correct.
func (d *driver) violated() { d.wrong++ }

// closeSegment summarises the ops since the last segment boundary.
func (d *driver) closeSegment() {
	s := &d.segStart
	if d.attempted == s.attempted {
		return
	}
	get := sortedCopy(d.get[s.get:])
	put := sortedCopy(d.put[s.put:])
	d.segs = append(d.segs, segment{
		goodput: ratio(float64(d.ok-s.ok), (d.opTime - s.opTime).Seconds()),
		getP50:  quantile(get, 0.50), getP95: quantile(get, 0.95),
		putP50: quantile(put, 0.50), putP95: quantile(put, 0.95),
	})
	s.get, s.put, s.ok, s.attempted, s.opTime = len(d.get), len(d.put), d.ok, d.attempted, d.opTime
}

// roundResult is what one round leaves for aggregation.
type roundResult struct {
	traced     bool
	setup      time.Duration
	d          *driver
	allocBytes uint64
	before     sysState
	after      sysState
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Rounds per run: enough set-ups for a median, and in a traced run at least
// two traced and two untraced rounds. maxWall keeps a slowed-down program
// inside the 180 s limit.
const (
	minRounds       = 3
	minTracedRounds = 4
	maxWall         = 120 * time.Second
)

// rounds is how many rounds a run of seconds makes: enough that their op
// time adds up to about seconds on the reference host, and an even number in
// a traced run. The count depends on seconds alone, not on measured time, so
// every run of a seed issues the same operations and reports the same
// attempted and failed counts.
func (w *spec) rounds(seconds float64, traced bool) int {
	n := max(minRounds, int(math.Ceil(seconds/w.roundSeconds)))
	if traced {
		n = max(minTracedRounds, n+n%2)
	}
	return n
}

// run measures workload w over n fresh rounds. In a traced run, odd rounds
// are traced and even ones are not, so the tracing overhead is measured in
// the same process.
func run(w *spec, seed int64, n int, traced bool, sc scale) (*result, error) {
	var rounds []roundResult
	begin := time.Now()
	for r := 0; r < n; r++ {
		rr, err := runRound(w, sc, seed, traced && r%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, rr)
		if time.Since(begin) > maxWall {
			break
		}
	}
	res := &result{Correct: true}
	for _, rr := range rounds {
		res.Attempted += rr.d.attempted
		res.Failed += rr.d.failed
		if rr.d.wrong > 0 {
			res.Correct = false
		}
	}
	if traced {
		res.Metrics = layerMetrics(rounds)
	} else {
		res.Metrics = endToEnd(rounds)
	}
	return res, nil
}

// runRound builds a fresh system, drives the op script once and tears down.
// Memory is returned to the OS between rounds so each round's peak is its own.
func runRound(w *spec, sc scale, seed int64, traced bool) (roundResult, error) {
	runtime.GC()
	debug.FreeOSMemory()
	rr := roundResult{traced: traced, d: &driver{}}
	ctx := context.Background()
	if traced {
		rr.d.pr = newProbe()
		ctx = rr.d.pr.context(ctx)
	}
	t0 := time.Now()
	sys, err := w.setup(ctx, sc, seed, rr.d.pr)
	rr.setup = time.Since(t0)
	if err != nil {
		return rr, fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	rr.before = sys.state()
	if rr.d.pr != nil {
		rr.d.pr.reset()
	}
	rr.d.segSize = int64(max(1, sys.opsPerRound()/segmentsPerRound))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	if err := sys.drive(ctx, rr.d); err != nil {
		return rr, err
	}
	runtime.ReadMemStats(&ms)
	rr.allocBytes = ms.TotalAlloc - alloc0
	rr.d.closeSegment()
	rr.after = sys.state()
	return rr, nil
}

// endToEnd assembles the user-visible metrics from untraced rounds.
func endToEnd(rounds []roundResult) map[string]metric {
	var setups, stored []float64
	var segs []segment
	var attempted int64
	var alloc uint64
	for _, rr := range rounds {
		if rr.traced {
			continue
		}
		segs = append(segs, rr.d.segs...)
		setups = append(setups, rr.setup.Seconds())
		stored = append(stored, ratio(float64(rr.after.storedBytes), float64(rr.after.userBytes)))
		attempted += rr.d.attempted
		alloc += rr.allocBytes
	}
	segMedian := func(f func(segment) float64) float64 {
		var xs []float64
		for _, s := range segs {
			if v := f(s); v > 0 {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	return map[string]metric{
		"goodput_ops_s":         {segMedian(func(s segment) float64 { return s.goodput }), "1/s"},
		"get_p50_us":            {segMedian(func(s segment) float64 { return s.getP50 }), "us"},
		"get_p95_us":            {segMedian(func(s segment) float64 { return s.getP95 }), "us"},
		"put_p50_us":            {segMedian(func(s segment) float64 { return s.putP50 }), "us"},
		"put_p95_us":            {segMedian(func(s segment) float64 { return s.putP95 }), "us"},
		"stored_bytes_per_byte": {median(stored), "B/B"},
		"alloc_bytes_per_op":    {ratio(float64(alloc), float64(attempted)), "B/op"},
		"peak_rss_mib":          {peakRSSMiB(), "MiB"},
		"setup_s":               {median(setups), "s"},
	}
}

// quantile is the nearest-rank quantile of sorted xs (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
