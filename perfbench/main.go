// Command perfbench is godm's end-to-end benchmark. One invocation runs one
// workload from a seed for a given number of seconds, checks every read it
// makes against the last acknowledged write, and prints one JSON object as
// its last line of output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures (always from untraced
// rounds); with -trace 1 they are the per-layer figures of a traced run,
// folded from the program's own spans and counters plus the timing seams the
// benchmark installs (see layers.go). NOTES.md records what each workload
// covers and what it leaves out.
//
//	bash perfbench/run.sh --workload page-rf3 --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workloads are the benchmark's inputs; NOTES.md says why each was chosen.
// full is the size every run uses; tiny is the self-test's.
var workloads = map[string]*spec{
	"page-rf3": {
		full:         scale{entries: 8192, ops: 72000, size: 4096},
		roundSeconds: 5.5,
		tiny:         scale{entries: 64, ops: 200, size: 4096},
		setup:        setupVS(pageRF3),
	},
	"stripe-rs42": {
		full:         scale{entries: 256, ops: 600, size: 64 << 10},
		roundSeconds: 5.8,
		tiny:         scale{entries: 16, ops: 40, size: 64 << 10},
		setup:        setupVS(stripeRS42),
	},
	"cache-zipf": {
		// size is the largest value; see cache.go.
		full:         scale{entries: 16384, ops: 110000, size: 4096},
		roundSeconds: 6,
		tiny:         scale{entries: 256, ops: 400, size: 4096},
		setup:        setupCache,
	},
	"swap-pagerank": {
		// entries is the address space in pages; ops is trace iterations.
		full:         scale{entries: 16384, ops: 8, size: 4096},
		roundSeconds: 2,
		tiny:         scale{entries: 512, ops: 2, size: 4096},
		setup:        setupSwap,
	},
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measured seconds: op time on the reference host, set-up excluded")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// Go sizes GOMAXPROCS from the CPU affinity mask and ignores a
	// container's CPU quota; pin it to nproc so every run says what it used.
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := captureEnv(*workload, *seed, *seconds, *traced == 1)
	envLine, _ := json.Marshal(env)
	fmt.Println(string(envLine))

	res, err := run(w, *seed, w.rounds(float64(*seconds), *traced == 1), *traced == 1, w.full)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
