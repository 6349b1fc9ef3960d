package tcpnet

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"godm/internal/transport"
)

// benchPair creates two endpoints on loopback that know each other, for use
// from both tests and benchmarks.
func benchPair(tb testing.TB) (*Endpoint, *Endpoint) {
	tb.Helper()
	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	b, err := Listen(2, "127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		tb.Fatal(err)
	}
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	tb.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

const benchPayload = 4096

// BenchmarkTCPNetSerialCall measures stop-and-wait round trips: one goroutine
// issuing control-plane calls back to back.
func BenchmarkTCPNetSerialCall(b *testing.B) {
	a, peer := benchPair(b)
	peer.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return payload, nil
	})
	msg := bytes.Repeat([]byte{0xAB}, benchPayload)
	ctx := context.Background()
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call(ctx, 2, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPNetPipelinedCall measures many goroutines issuing calls to the
// same peer concurrently — the case the multiplexed transport pipelines over
// one connection instead of serializing.
func BenchmarkTCPNetPipelinedCall(b *testing.B) {
	a, peer := benchPair(b)
	peer.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return payload, nil
	})
	msg := bytes.Repeat([]byte{0xAB}, benchPayload)
	b.SetBytes(benchPayload)
	b.SetParallelism(8) // 8 concurrent callers regardless of GOMAXPROCS
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			if _, err := a.Call(ctx, 2, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCPNetSerialRead measures one goroutine issuing one-sided reads.
func BenchmarkTCPNetSerialRead(b *testing.B) {
	benchRead(b, 1)
}

// BenchmarkTCPNetParallelRead measures 8 concurrent one-sided readers against
// a single peer — the acceptance benchmark for the multiplexed transport.
func BenchmarkTCPNetParallelRead(b *testing.B) {
	benchRead(b, 8)
}

func benchRead(b *testing.B, workers int) {
	a, peer := benchPair(b)
	if _, err := peer.RegisterRegion(1, 1<<20); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	seed := bytes.Repeat([]byte{0x5A}, benchPayload)
	if err := a.WriteRegion(ctx, 2, 1, 0, seed); err != nil {
		b.Fatal(err)
	}
	// Requests round-robin across lanes, each dialled on first use: open
	// every lane now, so the timed loop does not pay for connection set-up
	// and its 64 KiB read buffers on both ends.
	for i := 0; i < a.lanes; i++ {
		if _, err := a.ReadRegion(ctx, 2, 1, 0, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / workers
	extra := b.N % workers
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := a.ReadRegion(ctx, 2, 1, 0, benchPayload); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// BenchmarkTCPNetParallelWrite measures 8 concurrent one-sided writers to
// disjoint offsets of a single peer region.
func BenchmarkTCPNetParallelWrite(b *testing.B) {
	const workers = 8
	a, peer := benchPair(b)
	if _, err := peer.RegisterRegion(1, workers*benchPayload); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	msg := bytes.Repeat([]byte{0xC3}, benchPayload)
	b.SetBytes(benchPayload)
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / workers
	extra := b.N % workers
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			off := int64(w * benchPayload)
			for i := 0; i < n; i++ {
				if err := a.WriteRegion(ctx, 2, 1, off, msg); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}
