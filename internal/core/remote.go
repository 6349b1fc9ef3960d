package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"godm/internal/ec"
	"godm/internal/replication"
	"godm/internal/trace"
	"godm/internal/transport"
)

// remoteStore adapts the transport verbs to replication.Store: the control
// plane (two-sided Call) reserves and releases blocks in remote receive
// pools, while the data plane moves payloads with one-sided RDMA writes and
// reads (§IV.G: "one-sided RDMA write/read operations for data plane
// activities and RDMA send/receive operations for control plane
// activities"). It times every verb it issues into a per-donor latency
// estimate, which steers striped reads and placement.
type remoteStore struct {
	node *Node
	lat  peerLatency

	mu sync.Mutex
	// handles is the client half of the disaggregated memory map: where each
	// of our keys lives inside each remote node's receive region.
	handles map[remoteKey]remoteHandle
	// classes records the size class to request per key (set by the caller
	// before a replicated write fans out).
	classes sync.Map // uint64 -> int
}

// peerLatency is the owner's first-hand timing of every verb it issues to
// each donor, on the trace.Now clock (simulated time under the DES). A
// one-sided read never reaches the donor's CPU, so only the owner can time
// it.
type peerLatency struct {
	mu    sync.Mutex
	peers map[transport.NodeID]*peerTimes
}

// peerTimes holds two figures per donor. est, the read plan's estimate, is
// an EWMA (weight 1/8) of every verb; a verb that fails or is cancelled
// only raises it, so a straggler the hedge cancels still shows as slow and
// a dead donor that fails fast never looks fast. ok holds the latest
// successful verbs, for placement: a donor is slow only when every one of
// them took longer than the objective, so one delayed or torn verb never
// moves a stripe (an EWMA raised by one failed 4 ms verb can sit just over
// a 4 ms objective on one fabric and just under it on another).
type peerTimes struct {
	est time.Duration
	at  time.Duration // end of the latest verb
	ok  [placeWindow]time.Duration
	n   int // successful verbs seen; ok is a ring indexed by n
}

// placeWindow is how many successful verbs in a row must each exceed the
// get objective before placement skips a donor.
const placeWindow = 4

// staleAfter is how long a donor's timings steer placement without a fresh
// verb. Placement stops issuing verbs to a donor it measured slow, so
// without aging a donor that recovered would never be timed again; past
// staleAfter it reads as unknown and the next pick may use it.
const staleAfter = time.Second

// observe folds one verb issued at start and finished at end into to's
// timings.
func (l *peerLatency) observe(to transport.NodeID, start, end time.Duration, err error) {
	elapsed := end - start
	l.mu.Lock()
	p := l.peers[to]
	if p == nil {
		p = &peerTimes{}
		l.peers[to] = p
	}
	switch {
	case err != nil:
		p.est = max(p.est, elapsed)
	case p.est == 0:
		p.est = elapsed
	default:
		p.est += (elapsed - p.est) / 8
	}
	if err == nil {
		p.ok[p.n%placeWindow] = elapsed
		p.n++
	}
	p.at = end
	l.mu.Unlock()
}

// latency implements ec.LatencyFunc: the donor's estimate, zero when none
// was measured.
func (s *remoteStore) latency(node replication.NodeID) time.Duration {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	if p := s.lat.peers[transport.NodeID(node)]; p != nil {
		return p.est
	}
	return 0
}

// floor is the donor's latency as placement sees it at now: the fastest of
// its latest placeWindow successful verbs. It is zero (unknown) until that
// many verbs succeeded and once no verb has reached the donor for
// staleAfter.
func (s *remoteStore) floor(node transport.NodeID, now time.Duration) time.Duration {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	p := s.lat.peers[node]
	if p == nil || p.n < placeWindow || now-p.at > staleAfter {
		return 0
	}
	return slices.Min(p.ok[:])
}

// call issues a control-plane Call to a donor and times it.
func (s *remoteStore) call(ctx context.Context, to transport.NodeID, req []byte) ([]byte, error) {
	start := trace.Now(ctx)
	resp, err := s.node.ep.Call(ctx, to, req)
	s.lat.observe(to, start, trace.Now(ctx), err)
	return resp, err
}

// readInto issues a one-sided read from a donor's receive region and times it.
func (s *remoteStore) readInto(ctx context.Context, to transport.NodeID, offset int64, dst []byte) error {
	start := trace.Now(ctx)
	err := transport.ReadRegionInto(ctx, s.node.ep, to, RecvRegionID, offset, dst)
	s.lat.observe(to, start, trace.Now(ctx), err)
	if err != nil {
		return fmt.Errorf("core: one-sided read from node %d: %w", to, err)
	}
	return nil
}

type remoteKey struct {
	node transport.NodeID
	key  uint64
}

type remoteHandle struct {
	offset  int64
	class   int
	dataLen int
}

// setClass records the allocation class for key before a Write fans out.
func (s *remoteStore) setClass(key uint64, class int) {
	s.classes.Store(key, class)
}

func (s *remoteStore) classFor(key uint64, dataLen int) int {
	if v, ok := s.classes.Load(key); ok {
		return v.(int)
	}
	return dataLen
}

var _ replication.Store = (*remoteStore)(nil)

// Put implements replication.Store: reserve remotely, then one-sided write.
func (s *remoteStore) Put(ctx context.Context, node replication.NodeID, id replication.EntryID, data []byte) error {
	key := uint64(id)
	class := s.classFor(key, len(data))
	return s.place(ctx, transport.NodeID(node), key, class, encodeAllocReq(allocReq{Key: key, Class: int32(class)}), data)
}

// place sends the alloc request req to node to, one-sided writes data into
// the reserved block and records its handle: the one placement path of
// replicas and shards.
func (s *remoteStore) place(ctx context.Context, to transport.NodeID, key uint64, class int, req, data []byte) error {
	resp, err := s.call(ctx, to, req)
	if err != nil {
		return fmt.Errorf("core: alloc on node %d: %w", to, err)
	}
	alloc, err := decodeAllocResp(resp)
	if err != nil {
		return err
	}
	start := trace.Now(ctx)
	err = s.node.ep.WriteRegion(ctx, to, RecvRegionID, alloc.Offset, data)
	s.lat.observe(to, start, trace.Now(ctx), err)
	if err != nil {
		// Release the reservation so a half-finished put strands no remote
		// bytes; best-effort on a detached context (the write failure may be
		// the caller's context dying), and the remote's eviction path is the
		// backstop if the free itself is lost.
		fctx, cancel := detached(ctx)
		defer cancel()
		_, _ = s.call(fctx, to, encodeFreeReq(freeReq{Key: key, Offset: alloc.Offset}))
		return fmt.Errorf("core: one-sided write to node %d: %w", to, err)
	}
	s.mu.Lock()
	s.handles[remoteKey{node: to, key: key}] = remoteHandle{
		offset:  alloc.Offset,
		class:   class,
		dataLen: len(data),
	}
	s.mu.Unlock()
	return nil
}

// Get implements replication.Store: one-sided read at the recorded offset.
func (s *remoteStore) Get(ctx context.Context, node replication.NodeID, id replication.EntryID) ([]byte, error) {
	to := transport.NodeID(node)
	s.mu.Lock()
	h, ok := s.handles[remoteKey{node: to, key: uint64(id)}]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no handle for entry %d on node %d", id, to)
	}
	data := make([]byte, h.dataLen)
	if err := s.readInto(ctx, to, h.offset, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Delete implements replication.Store: release the remote reservation.
func (s *remoteStore) Delete(ctx context.Context, node replication.NodeID, id replication.EntryID) error {
	to := transport.NodeID(node)
	key := uint64(id)
	s.mu.Lock()
	h, ok := s.handles[remoteKey{node: to, key: key}]
	if ok {
		delete(s.handles, remoteKey{node: to, key: key})
	}
	s.mu.Unlock()
	if !ok {
		return nil // absent: idempotent
	}
	resp, err := s.call(ctx, to, encodeFreeReq(freeReq{Key: key, Offset: h.offset}))
	if err != nil {
		// The remote is unreachable; its eviction path reclaims the block.
		return nil
	}
	return checkOKResp(resp)
}

var (
	_ replication.RangeStore   = (*remoteStore)(nil)
	_ replication.ScatterStore = (*remoteStore)(nil)
	_ ec.ShardStore            = (*remoteStore)(nil)
)

// GetAt implements replication.RangeStore: a one-sided read of n bytes at
// offset off within the payload stored on one node. Failover across the
// replica or shard set is the policy's job.
func (s *remoteStore) GetAt(ctx context.Context, node replication.NodeID, id replication.EntryID, off, n int) ([]byte, error) {
	to := transport.NodeID(node)
	s.mu.Lock()
	h, ok := s.handles[remoteKey{node: to, key: uint64(id)}]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no handle for entry %d on node %d", id, to)
	}
	if off < 0 || n < 0 || off+n > h.dataLen {
		return nil, fmt.Errorf("core: range [%d,%d) exceeds payload %d", off, off+n, h.dataLen)
	}
	data := make([]byte, n)
	if err := s.readInto(ctx, to, h.offset+int64(off), data); err != nil {
		return nil, err
	}
	return data, nil
}

// GetInto implements replication.ScatterStore: a one-sided read of the whole
// payload directly into dst — the striped read path lands each shard in its
// slice of the result buffer with no copy in between.
func (s *remoteStore) GetInto(ctx context.Context, node replication.NodeID, id replication.EntryID, dst []byte) error {
	to := transport.NodeID(node)
	s.mu.Lock()
	h, ok := s.handles[remoteKey{node: to, key: uint64(id)}]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no handle for entry %d on node %d", id, to)
	}
	if len(dst) != h.dataLen {
		return fmt.Errorf("core: dst is %d bytes, entry %d stores %d", len(dst), id, h.dataLen)
	}
	return s.readInto(ctx, to, h.offset, dst)
}

// PutShard implements ec.ShardStore: reserve a shard block remotely —
// carrying the stripe coordinates so the donor can refuse a sibling shard
// and answer opShardStat — then one-sided write, like Put.
func (s *remoteStore) PutShard(ctx context.Context, node replication.NodeID, id replication.EntryID, idx, k, m int, data []byte) error {
	key := uint64(id)
	class := s.classFor(key, len(data))
	return s.place(ctx, transport.NodeID(node), key, class, encodeAllocShardReq(allocShardReq{
		Key: key, Class: int32(class), Idx: uint8(idx), K: uint8(k), M: uint8(m),
	}), data)
}

// rehome repoints the handle for key from old to new after a decommission
// migration (opMoved): the payload bytes now live at newOffset inside new's
// receive region. Returns false when no handle for (old, key) was tracked.
func (s *remoteStore) rehome(old, new transport.NodeID, key uint64, newOffset int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handles[remoteKey{node: old, key: key}]
	if !ok {
		return false
	}
	delete(s.handles, remoteKey{node: old, key: key})
	h.offset = newOffset
	s.handles[remoteKey{node: new, key: key}] = h
	return true
}

// drop forgets the local handle for key on node (used when the remote tells
// us it evicted the block).
func (s *remoteStore) drop(node transport.NodeID, key uint64) {
	s.mu.Lock()
	delete(s.handles, remoteKey{node: node, key: key})
	s.mu.Unlock()
}

// handleCount reports how many remote blocks this node tracks (tests).
func (s *remoteStore) handleCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.handles)
}
