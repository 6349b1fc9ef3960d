package core

import (
	"bytes"
	"context"
	"testing"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/faulty"
	"godm/internal/pagetable"
	"godm/internal/simnet"
	"godm/internal/transport"
)

// overwritePolicies are the durability policies every overwrite test covers,
// with the donor blocks one entry occupies under each.
var overwritePolicies = []struct {
	durability string
	width      int
}{
	{"rf1", 1},
	{"rf2", 2},
	{"rf3", 3},
	{"rs4.2", 6},
}

// TestOverwriteReleasesOldGeneration is the overwrite regression test for
// every policy: write entries 0..N-1, overwrite each once, and read all of
// them back. With 6 donors the new replica or shard set overlaps the old one
// on most entries, which is exactly where old and new copies used to share
// one (owner, key): the owner's handle map aliased them and releasing the
// old copy freed the new one. Afterwards the donors must hold exactly
// width×N live blocks — no leaked old generation — and a delete of every
// entry must leave none.
func TestOverwriteReleasesOldGeneration(t *testing.T) {
	const entries = 64
	for _, pc := range overwritePolicies {
		t.Run(pc.durability, func(t *testing.T) {
			tc := newTestCluster(t, 7, func(id transport.NodeID) Config {
				cfg := smallConfig(id)
				cfg.Durability = pc.durability
				return cfg
			})
			owner := tc.nodes[0]
			vs, _ := owner.AddServer("vm0", 4096)
			tc.run(t, func(ctx context.Context, p *des.Proc) {
				for round := int64(0); round < 2; round++ {
					for id := pagetable.EntryID(0); id < entries; id++ {
						if err := vs.PutRemote(ctx, id, ecPayload(4096, round*entries+int64(id)), 4096, 4096); err != nil {
							t.Errorf("round %d PutRemote %d: %v", round, id, err)
							return
						}
					}
				}
				lost := 0
				for id := pagetable.EntryID(0); id < entries; id++ {
					got, _, err := vs.Get(ctx, id)
					if err != nil || !bytes.Equal(got, ecPayload(4096, entries+int64(id))) {
						lost++
					}
				}
				if lost != 0 {
					t.Errorf("%d of %d overwritten entries unreadable or stale", lost, entries)
				}
				if live := donorLiveBlocks(tc.nodes); live != pc.width*entries {
					t.Errorf("%d live donor blocks after overwrite, want %d×%d (old generation leaked)", live, pc.width, entries)
				}
				for id := pagetable.EntryID(0); id < entries; id++ {
					if err := vs.Delete(ctx, id); err != nil {
						t.Errorf("Delete %d: %v", id, err)
					}
				}
			})
			if live := donorLiveBlocks(tc.nodes); live != 0 {
				t.Errorf("%d live donor blocks after deleting every entry", live)
			}
		})
	}
}

// TestOverwriteFailureKeepsOldValue closes the durability gap: an overwrite
// whose scatter fails partway (the fault injector drops every one-sided
// write to the last donor) must return an error, leave the old value
// readable from its old generation, and strand no block of the new one.
func TestOverwriteFailureKeepsOldValue(t *testing.T) {
	for _, pc := range overwritePolicies[2:] {
		t.Run(pc.durability, func(t *testing.T) {
			// width donors plus the owner: every pick takes every donor, so
			// the blocked one is always in the new set.
			nodeCount := pc.width + 1
			env := des.NewEnv()
			fabric := simnet.New(env, simnet.DefaultParams())
			dir, err := cluster.NewDirectory(cluster.Config{GroupSize: nodeCount, HeartbeatTimeout: 3})
			if err != nil {
				t.Fatal(err)
			}
			inj := faulty.New(1)
			inj.SetEnabled(false)
			var nodes []*Node
			for i := 1; i <= nodeCount; i++ {
				id := transport.NodeID(i)
				ep, err := fabric.Attach(id)
				if err != nil {
					t.Fatal(err)
				}
				var v transport.Endpoint = ep
				if i == 1 {
					v = inj.Wrap(ep)
				}
				cfg := smallConfig(id)
				cfg.Durability = pc.durability
				n, err := NewNode(cfg, v, dir)
				if err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, n)
			}
			owner := nodes[0]
			vs, _ := owner.AddServer("vm0", 4096)
			first, second := ecPayload(4096, 41), ecPayload(4096, 42)
			env.Go("test", func(p *des.Proc) {
				ctx := des.NewContext(context.Background(), p)
				if err := vs.PutRemote(ctx, 1, first, 4096, 4096); err != nil {
					t.Errorf("first PutRemote: %v", err)
					return
				}
				oldKey := vs.WireKey(1)
				inj.AddRule(faulty.Rule{
					Kind: faulty.KindDrop, Verb: faulty.VerbWrite,
					From: faulty.AnyNode, To: transport.NodeID(nodeCount), Pct: 100,
				})
				inj.SetEnabled(true)
				err := vs.PutRemote(ctx, 1, second, 4096, 4096)
				inj.SetEnabled(false)
				if err == nil {
					t.Error("overwrite with a dead scatter target succeeded")
					return
				}
				got, _, gerr := vs.Get(ctx, 1)
				if gerr != nil || !bytes.Equal(got, first) {
					t.Errorf("old value after failed overwrite: %v (equal=%v)", gerr, bytes.Equal(got, first))
				}
				if vs.WireKey(1) != oldKey {
					t.Error("failed overwrite changed the entry's generation")
				}
				for _, n := range nodes[1:] {
					if n.HostsRemoteKey(owner.ID(), oldKey^KeyGenBit) {
						t.Errorf("node %d hosts a block of the aborted generation", n.ID())
					}
				}
				if live := donorLiveBlocks(nodes); live != pc.width {
					t.Errorf("%d live donor blocks after the aborted overwrite, want %d", live, pc.width)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEntryIDOutOfRange: an entry ID wider than the wire key's entry bits
// would alias another entry's key, so both put paths refuse it.
func TestEntryIDOutOfRange(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	page := make([]byte, 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		for _, id := range []pagetable.EntryID{1 << keyEntryBits, 1<<keyEntryBits | 5, ^pagetable.EntryID(0)} {
			if err := vs.PutShared(id, page, 4096, 4096); err == nil {
				t.Errorf("PutShared accepted entry %#x", uint64(id))
			}
			if err := vs.PutRemote(ctx, id, page, 4096, 4096); err == nil {
				t.Errorf("PutRemote accepted entry %#x", uint64(id))
			}
			if _, err := vs.Location(id); err == nil {
				t.Errorf("rejected entry %#x has a location", uint64(id))
			}
		}
		// The largest entry that fits still round-trips.
		top := pagetable.EntryID(keyEntryMask)
		if err := vs.PutRemote(ctx, top, page, 4096, 4096); err != nil {
			t.Errorf("PutRemote of the top entry: %v", err)
		}
		if _, _, err := vs.Get(ctx, top); err != nil {
			t.Errorf("Get of the top entry: %v", err)
		}
	})
}

// donorLiveBlocks sums the live receive-pool blocks of every node but the
// first (the owner).
func donorLiveBlocks(nodes []*Node) int {
	live := 0
	for _, n := range nodes[1:] {
		live += n.RecvPool().Stats().LiveBlocks
	}
	return live
}
