// Command dmctl talks to running dmnode daemons: it queries free
// disaggregated memory, and parks/retrieves data entries in a node's
// donated receive pool over the verbs protocol.
//
//	dmctl -node 1=localhost:7401 stats
//	dmctl -node 1=localhost:7401 top           # cluster-wide digest view
//	dmctl -node 1=localhost:7401 -q p99 -op get stats
//	dmctl -node 1=localhost:7401 put 42 "hello disaggregated world"
//	dmctl -node 1=localhost:7401 getput 42    # put then read back
//	dmctl -node 1=localhost:7401 -batch put 1=alpha 2=beta 3=gamma
//	dmctl -node 1=localhost:7401 -batch getput 1 2 3
//	dmctl -node 1=localhost:7401 epoch        # epoch-versioned memory map
//	dmctl -node 3=localhost:7403 shard 1 42   # which stripe shard does node 3 host?
//	dmctl -node 2=localhost:7402 decommission # drain node 2 gracefully
//	dmctl -node 2=localhost:7402 harvest 1048576 # claw back 1 MiB of donated pool
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"godm/internal/core"
	"godm/internal/metrics"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dmctl", flag.ContinueOnError)
	var (
		nodeFlag = fs.String("node", "", "target node as id=host:port")
		myID     = fs.Int("id", 1000, "this client's node id")
		timeout  = fs.Duration("timeout", 10*time.Second, "overall deadline for the command (0 = none)")
		batch    = fs.Bool("batch", false, "windowed data plane: put takes KEY=DATA pairs, getput takes keys; one alloc RPC, coalesced writes")
		compress = fs.Bool("compress", false, "compress entries at or above the default threshold before they hit the wire")
		quantQ   = fs.String("q", "", "with stats: print one figure of the cluster latency digest (p50|p90|p99|p999|mean|max|count)")
		opFam    = fs.String("op", "get", "with stats -q: op family the figure is computed for (e.g. get, put)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodeFlag == "" || fs.NArg() < 1 {
		return fmt.Errorf("usage: dmctl -node id=host:port [-batch] [-compress] <stats|top|put KEY DATA|getput KEY|shard OWNER KEY|epoch|decommission|harvest BYTES>")
	}
	idStr, addr, ok := strings.Cut(*nodeFlag, "=")
	if !ok {
		return fmt.Errorf("bad -node %q, want id=host:port", *nodeFlag)
	}
	targetID, err := strconv.Atoi(idStr)
	if err != nil {
		return fmt.Errorf("bad node id: %v", err)
	}
	target := transport.NodeID(targetID)

	ep, err := tcpnet.Listen(transport.NodeID(*myID), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ep.Close()
	ep.AddPeer(target, addr)
	var copts []core.ClientOption
	if *compress {
		copts = append(copts, core.WithCompression(0))
	}
	client := core.NewClient(ep, copts...)
	ctx := context.Background()
	if *timeout > 0 {
		// The transport honors deadlines mid-RPC, so a hung daemon fails the
		// command promptly instead of wedging it.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	switch fs.Arg(0) {
	case "top":
		// One control-plane RPC returns the queried node's folded digest
		// store; asked of the tree root, that is the whole cluster.
		view, err := client.ClusterView(ctx, target)
		if err != nil {
			return err
		}
		return metrics.RenderClusterView(os.Stdout, view)
	case "stats":
		if *quantQ != "" {
			// Scriptable single-figure mode, riding the same digest decoding
			// as top: aggregate the view, pick the op family, print one value.
			view, err := client.ClusterView(ctx, target)
			if err != nil {
				return err
			}
			agg, err := metrics.Aggregate(view)
			if err != nil {
				return err
			}
			h, ok := agg.OpFamilyHistogram(*opFam)
			if !ok {
				return fmt.Errorf("no latency digest for op family %q (known: %v)", *opFam, agg.OpFamilies())
			}
			fig, err := digestFigure(h, *quantQ)
			if err != nil {
				return err
			}
			fmt.Println(fig)
			return nil
		}
		free, err := client.Stats(ctx, target)
		if err != nil {
			return err
		}
		fmt.Printf("node %d free receive-pool bytes: %d (%.1f MiB)\n", target, free, float64(free)/(1<<20))
		// The instrumentation tree rides a separate control-plane op; a
		// daemon predating it still answers the free-memory query above.
		tree, err := client.Metrics(ctx, target)
		if err != nil {
			fmt.Printf("(metrics tree unavailable: %v)\n", err)
			return nil
		}
		fmt.Print(tree)
		return nil
	case "put":
		if *batch {
			if fs.NArg() < 2 {
				return fmt.Errorf("usage: -batch put KEY=DATA [KEY=DATA ...]")
			}
			entries := make([]core.Entry, 0, fs.NArg()-1)
			total := 0
			for _, arg := range fs.Args()[1:] {
				keyStr, data, ok := strings.Cut(arg, "=")
				if !ok {
					return fmt.Errorf("bad entry %q, want KEY=DATA", arg)
				}
				key, err := strconv.ParseUint(keyStr, 10, 64)
				if err != nil {
					return fmt.Errorf("bad key in %q: %v", arg, err)
				}
				entries = append(entries, core.Entry{Key: key, Data: []byte(data)})
				total += len(data)
			}
			if err := client.PutAll(ctx, target, entries); err != nil {
				return err
			}
			fmt.Printf("parked %d entries (%d bytes) on node %d in one batch\n", len(entries), total, target)
			return nil
		}
		if fs.NArg() < 3 {
			return fmt.Errorf("usage: put KEY DATA")
		}
		key, err := strconv.ParseUint(fs.Arg(1), 10, 64)
		if err != nil {
			return fmt.Errorf("bad key: %v", err)
		}
		if err := client.Put(ctx, target, key, []byte(fs.Arg(2))); err != nil {
			return err
		}
		fmt.Printf("parked %d bytes under key %d on node %d\n", len(fs.Arg(2)), key, target)
		return nil
	case "getput":
		if fs.NArg() < 2 {
			return fmt.Errorf("usage: getput KEY [KEY ...]")
		}
		if *batch {
			keys := make([]uint64, 0, fs.NArg()-1)
			entries := make([]core.Entry, 0, fs.NArg()-1)
			for _, arg := range fs.Args()[1:] {
				key, err := strconv.ParseUint(arg, 10, 64)
				if err != nil {
					return fmt.Errorf("bad key %q: %v", arg, err)
				}
				keys = append(keys, key)
				entries = append(entries, core.Entry{Key: key, Data: []byte(fmt.Sprintf("probe-entry-%d", key))})
			}
			if err := client.PutAll(ctx, target, entries); err != nil {
				return err
			}
			got, err := client.GetAll(ctx, target, keys)
			if err != nil {
				return err
			}
			for _, e := range entries {
				if string(got[e.Key]) != string(e.Data) {
					return fmt.Errorf("key %d: read back %q, wrote %q", e.Key, got[e.Key], e.Data)
				}
			}
			fmt.Printf("batched round trip ok: %d entries\n", len(entries))
			return client.DeleteAll(ctx, target, keys)
		}
		key, err := strconv.ParseUint(fs.Arg(1), 10, 64)
		if err != nil {
			return fmt.Errorf("bad key: %v", err)
		}
		payload := []byte(fmt.Sprintf("probe-entry-%d", key))
		if err := client.Put(ctx, target, key, payload); err != nil {
			return err
		}
		got, err := client.Get(ctx, target, key)
		if err != nil {
			return err
		}
		fmt.Printf("round trip ok: %q\n", got)
		return client.Delete(ctx, target, key)
	case "epoch":
		// Two syncs prove the delta path end to end: the first is a cold
		// snapshot, the second asks for deltas past the received epoch.
		if err := client.SyncMap(ctx, target); err != nil {
			return err
		}
		if err := client.SyncMap(ctx, target); err != nil {
			return err
		}
		m := client.Map()
		fmt.Println(m)
		snap := m.Snapshot()
		for _, s := range snap.Nodes {
			state := "down"
			if s.Alive {
				state = "alive"
			}
			fmt.Printf("  node %d: %s group=%d free=%d\n", s.ID, state, s.Group, s.FreeBytes)
		}
		for _, gl := range snap.Leaders {
			fmt.Printf("  group %d leader: node %d\n", gl.Group, gl.Leader)
		}
		if snap.RootOK {
			fmt.Printf("  root: node %d\n", snap.Root)
		}
		return nil
	case "shard":
		// Stripe-placement probe for erasure-coded entries: asks the target
		// donor which shard of OWNER's stripe under KEY (a wire key) it hosts.
		if fs.NArg() < 3 {
			return fmt.Errorf("usage: shard OWNER KEY (KEY is the owner's wire key; bit 47 is the entry's write generation)")
		}
		ownerID, err := strconv.Atoi(fs.Arg(1))
		if err != nil {
			return fmt.Errorf("bad owner id: %v", err)
		}
		key, err := strconv.ParseUint(fs.Arg(2), 10, 64)
		if err != nil {
			return fmt.Errorf("bad key: %v", err)
		}
		hosted, idx, k, m, err := client.ShardStat(ctx, target, transport.NodeID(ownerID), key)
		if err != nil {
			return err
		}
		if !hosted {
			fmt.Printf("node %d hosts no shard of owner %d key %d\n", target, ownerID, key)
			return nil
		}
		kind := "data"
		if idx >= k {
			kind = "parity"
		}
		fmt.Printf("node %d hosts shard %d/%d (%s) of owner %d key %d under rs%d.%d\n",
			target, idx, k+m, kind, ownerID, key, k, m)
		return nil
	case "decommission":
		moved, err := client.Decommission(ctx, target)
		if err != nil {
			return err
		}
		fmt.Printf("node %d drained: %d blocks migrated; stale readers get redirects\n", target, moved)
		return nil
	case "harvest":
		if fs.NArg() < 2 {
			return fmt.Errorf("usage: harvest BYTES")
		}
		want, err := strconv.ParseInt(fs.Arg(1), 10, 64)
		if err != nil {
			return fmt.Errorf("bad byte count: %v", err)
		}
		reclaimed, moved, err := client.Harvest(ctx, target, want)
		if err != nil {
			return err
		}
		fmt.Printf("node %d harvested %d of %d bytes (%d blocks migrated); node stays in service\n",
			target, reclaimed, want, moved)
		return nil
	default:
		return fmt.Errorf("unknown command %q", fs.Arg(0))
	}
}

// digestFigure extracts one named figure from an op family's merged latency
// histogram.
func digestFigure(h metrics.HistogramSnapshot, q string) (string, error) {
	switch q {
	case "p50":
		return h.Quantile(0.50).String(), nil
	case "p90":
		return h.Quantile(0.90).String(), nil
	case "p99":
		return h.Quantile(0.99).String(), nil
	case "p999":
		return h.Quantile(0.999).String(), nil
	case "mean":
		if h.Count == 0 {
			return time.Duration(0).String(), nil
		}
		return (h.Sum / time.Duration(h.Count)).String(), nil
	case "max":
		return h.Max.String(), nil
	case "count":
		return strconv.FormatInt(h.Count, 10), nil
	default:
		return "", fmt.Errorf("unknown figure %q, want p50|p90|p99|p999|mean|max|count", q)
	}
}
