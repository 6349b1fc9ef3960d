package main

import (
	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/placement"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

// tcpRig is a set of godm nodes on loopback TCP inside this process, every
// endpoint peered with every other. No delay is injected unless a workload
// wraps an endpoint with the faulty injector.
type tcpRig struct {
	eps    map[transport.NodeID]*tcpnet.Endpoint
	donors []*core.Node
}

// listen opens one loopback endpoint per id and peers them all.
func listen(ids ...transport.NodeID) (*tcpRig, error) {
	r := &tcpRig{eps: map[transport.NodeID]*tcpnet.Endpoint{}}
	for _, id := range ids {
		ep, err := tcpnet.Listen(id, "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.eps[id] = ep
	}
	for _, ep := range r.eps {
		for id, peer := range r.eps {
			if id != ep.ID() {
				ep.AddPeer(id, peer.Addr())
			}
		}
	}
	return r, nil
}

// nodeConfig is the node shape every workload uses: small shared and send
// pools, 1 MiB slabs, recv bytes donated to the cluster.
func nodeConfig(id transport.NodeID, recv int64, durability string, pr *probe) core.Config {
	return core.Config{
		ID:                id,
		SharedPoolBytes:   1 << 20,
		SendPoolBytes:     1 << 20,
		RecvPoolBytes:     recv,
		SlabSize:          1 << 20,
		ReplicationFactor: 1,
		Durability:        durability,
		// The program's default balancer, named so the traced run can wrap it.
		Balancer: pr.balancer(placement.NewPowerOfTwo(int64(id) + 1)),
	}
}

// addNode starts a core node on endpoint id. Its directory lists every
// member with its donation, as heartbeats would after one round.
func (r *tcpRig) addNode(cfg core.Config, ep transport.Endpoint, members map[transport.NodeID]int64) (*core.Node, error) {
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: len(members), HeartbeatTimeout: 3})
	if err != nil {
		return nil, err
	}
	for id, free := range members {
		dir.Join(cluster.NodeID(id), free)
	}
	return core.NewNode(cfg, ep, dir)
}

// fill adds the donors' receive-pool figures and the endpoints' counters
// to st.
func (r *tcpRig) fill(st *sysState) {
	poolState(r.donors, st)
	for _, ep := range r.eps {
		st.counters["tcp.bytes_tx"] += ep.Metrics().Counter("bytes_tx").Value()
		st.counters["tcp.reconnects"] += ep.Metrics().Counter("reconnect_attempts").Value()
	}
}

// poolState sums the receive pools of nodes into st.
func poolState(nodes []*core.Node, st *sysState) {
	for _, n := range nodes {
		ps := n.RecvPool().Stats()
		st.storedBytes += ps.LiveBytes
		st.liveBlocks += int64(ps.LiveBlocks)
		st.regBytes += ps.RegisteredBytes
	}
}

func (r *tcpRig) close() {
	for _, ep := range r.eps {
		_ = ep.Close()
	}
}

func newState() sysState {
	return sysState{counters: map[string]int64{}, gauges: map[string]float64{}}
}
