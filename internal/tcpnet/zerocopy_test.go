package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
)

// TestVectoredFrameGolden pins the wire format of the vectored write path: a
// WriteRegionV frame captured off a raw TCP listener must be byte-identical
// to the frame the reference codec (writeRequest) assembles from the
// pre-concatenated payload. This is what makes the writev rewrite invisible
// to peers running the sequential framing.
func TestVectoredFrameGolden(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type serverResult struct {
		captured []byte
		req      request
		err      error
	}
	done := make(chan serverResult, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- serverResult{err: err}
			return
		}
		defer conn.Close()
		var captured bytes.Buffer
		br := bufio.NewReader(io.TeeReader(conn, &captured))
		req, err := readRequest(br)
		if err != nil {
			done <- serverResult{err: err}
			return
		}
		bw := bufio.NewWriter(conn)
		if err := writeResponse(bw, req.id, statusOK, nil); err != nil {
			done <- serverResult{err: err}
			return
		}
		if err := bw.Flush(); err != nil {
			done <- serverResult{err: err}
			return
		}
		// Keep the payload: the comparison below reads it. It is pooled, but a
		// test process leaking one pool entry is fine.
		done <- serverResult{captured: append([]byte(nil), captured.Bytes()...), req: req}
	}()

	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer(2, ln.Addr().String())

	parts := [][]byte{
		bytes.Repeat([]byte{0xA1}, 300),
		{},
		bytes.Repeat([]byte{0xB2}, 4096),
		{0xC3, 0xC4, 0xC5},
	}
	var flat []byte
	for _, p := range parts {
		flat = append(flat, p...)
	}
	if err := a.WriteRegionV(context.Background(), 2, 9, 1234, parts); err != nil {
		t.Fatalf("WriteRegionV: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("server side: %v", res.err)
	}
	if res.req.op != opWrite || res.req.region != 9 || res.req.offset != 1234 {
		t.Fatalf("decoded frame = op %d region %d offset %d", res.req.op, res.req.region, res.req.offset)
	}
	if !bytes.Equal(res.req.payload, flat) {
		t.Fatal("vectored payload did not arrive as the concatenation of the iovec")
	}

	var ref bytes.Buffer
	w := bufio.NewWriter(&ref)
	if err := writeRequest(w, res.req.op, res.req.id, 1, res.req.region, res.req.offset, res.req.n, flat); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.captured, ref.Bytes()) {
		t.Errorf("vectored frame differs from reference codec assembly:\n got %d bytes %x...\nwant %d bytes %x...",
			len(res.captured), res.captured[:min(48, len(res.captured))],
			ref.Len(), ref.Bytes()[:min(48, ref.Len())])
	}
}

// TestReadIntoZeroAlloc pins the tentpole's allocation contract: a
// steady-state one-sided read that scatters into a caller buffer allocates
// nothing on either side of the loopback pair — pooled request headers,
// pooled result channels, pooled server-side response staging, and a
// response payload that lands directly in dst.
func TestReadIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	a, b := pairUp(t)
	if _, err := b.RegisterRegion(1, 1<<20); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seed := bytes.Repeat([]byte{0x5A}, 4096)
	if err := a.WriteRegion(ctx, 2, 1, 0, seed); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4096)
	for i := 0; i < 16; i++ { // warm every pool on both endpoints
		if err := a.ReadRegionInto(ctx, 2, 1, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.ReadRegionInto(ctx, 2, 1, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("ReadRegionInto allocates %.1f objects/op in steady state, want 0", allocs)
	}
	if !bytes.Equal(dst, seed) {
		t.Fatal("scatter read returned wrong bytes")
	}
}

// BenchmarkTCPNetReadInto is BenchmarkTCPNetParallelRead with the scatter
// verb: 8 readers, each with its own destination buffer, no per-op payload
// allocation.
func BenchmarkTCPNetReadInto(b *testing.B) {
	const workers = 8
	a, peer := benchPair(b)
	if _, err := peer.RegisterRegion(1, 1<<20); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	seed := bytes.Repeat([]byte{0x5A}, benchPayload)
	if err := a.WriteRegion(ctx, 2, 1, 0, seed); err != nil {
		b.Fatal(err)
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
			dst := make([]byte, benchPayload)
			for i := 0; i < n; i++ {
				if err := a.ReadRegionInto(ctx, 2, 1, 0, dst); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// TestWriteRegionThenRefill reuses one payload buffer across one-sided
// writes, refilling it as soon as each WriteRegion returns — what a caller
// may do once its write is acknowledged. Under -race this pins the flush
// path's happens-before edge: syscall.Write annotates its read of the buffer
// only after the syscall returns, by which time the peer's ack can already
// have released the caller, so the flush must not hand caller memory to it.
func TestWriteRegionThenRefill(t *testing.T) {
	a, b := pairUp(t)
	region, err := b.RegisterRegion(1, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	buf := make([]byte, 4096)
	for i := 0; i < 500; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		off := int64(i%16) * 4096
		if err := a.WriteRegion(ctx, 2, 1, off, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(region[off:off+4096], buf) {
			t.Fatalf("write %d landed wrong bytes", i)
		}
	}
}
