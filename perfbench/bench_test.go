package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsPrintEveryMetric runs every workload at its tiny scale, once
// untraced and once traced, and checks that each metric BENCHMARK.json
// names is printed with its unit — and nothing else.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(w, 1, w.rounds(0, traced), traced, w.tiny)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", wl.Name, traced, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", wl.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedPayloadCountsAsFailed runs the real drive loop of a
// VirtualServer workload and of the cache workload at their tiny scale,
// once as set up and once with the verifier's expected version of the
// hottest key bumped by one. Every read of that key before its next
// overwrite then returns bytes that are not the last acknowledged write, and
// drive must count each as failed and wrong and withdraw its latency sample.
func TestCorruptedPayloadCountsAsFailed(t *testing.T) {
	for _, name := range []string{"page-rf3", "cache-zipf"} {
		base := driveTiny(t, workloads[name], false)
		bumped := driveTiny(t, workloads[name], true)
		for _, d := range []*driver{base, bumped} {
			if d.ok+d.failed != d.attempted || int64(len(d.get)+len(d.put)) != d.ok {
				t.Errorf("%s: attempted=%d ok=%d failed=%d samples=%d: ops not accounted for",
					name, d.attempted, d.ok, d.failed, len(d.get)+len(d.put))
			}
		}
		t.Logf("%s: as set up failed=%d; bumped failed=%d wrong=%d", name, base.failed, bumped.failed, bumped.wrong)
		if base.wrong != 0 {
			t.Errorf("%s as set up: %d reads returned wrong bytes, want 0", name, base.wrong)
		}
		if bumped.wrong == 0 || bumped.failed < base.failed+bumped.wrong {
			t.Errorf("%s with a bumped version: failed=%d wrong=%d, as set up failed=%d; want wrong > 0 and failed grown by wrong",
				name, bumped.failed, bumped.wrong, base.failed)
		}
	}
}

// driveTiny sets up w at its tiny scale, optionally bumps the verifier's
// expected version of key 0 (the Zipf-hottest), and drives one round.
func driveTiny(t *testing.T, w *spec, bump bool) *driver {
	t.Helper()
	ctx := context.Background()
	sys, err := w.setup(ctx, w.tiny, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	var v *verifier
	switch s := sys.(type) {
	case *vsSystem:
		v = s.v
	case *cacheSystem:
		v = s.v
	default:
		t.Fatalf("%T has no verifier", sys)
	}
	if bump {
		st := v.want[0]
		st.version++
		v.want[0] = st
	}
	d := &driver{}
	if err := sys.drive(ctx, d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestVerifierCheck feeds the verifier reads that are not the last
// acknowledged write.
func TestVerifierCheck(t *testing.T) {
	v := newVerifier()
	ack := make([]byte, 4096)
	fillPayload(ack, 7, 3)
	v.ack(7, ack)
	if !v.check(7, ack) {
		t.Fatal("the acknowledged payload itself does not verify")
	}
	stale := make([]byte, 4096)
	fillPayload(stale, 7, 2)
	other := make([]byte, 4096)
	fillPayload(other, 8, 3)
	corrupt := append([]byte(nil), ack...)
	corrupt[3000] ^= 1
	for name, got := range map[string][]byte{"corrupt": corrupt, "stale": stale, "other key": other, "short": ack[:8]} {
		if v.check(7, got) {
			t.Errorf("%s read verified", name)
		}
	}
	if v.check(9, ack) {
		t.Error("a read of a never-written key verified")
	}
}
