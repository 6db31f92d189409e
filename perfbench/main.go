// Command perfbench is the repository's benchmark: it generates a
// seeded DBLP corpus, sets the database up the way timber-load and
// timber-serve do, drives one closed-loop workload through the engine
// facade (PrepareCached → Execute → Serialize, and InsertDocument),
// checks every result against an oracle, and prints every metric by
// name with its unit. The last line of standard output is the JSON
// result. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sec6-groupby --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	articles int    // base corpus size (the smoke test uses a tiny one)
	setups   int    // set-ups timed for setup_s (the last one is used)
	dir      string // scratch directory for the run's databases
	outDir   string // where reports, traces and counter baselines go
	// corruptFirst damages the first checked result (smoke test only).
	corruptFirst bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sec6-groupby, author-lookup or ingest-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the corpus, the name stream and the ingest documents")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.articles, cfg.setups, cfg.outDir = 40_000, 3, filepath.Join(".bench_build", "perfbench")
	if _, ok := findWorkload(cfg.workload); !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sec6-groupby|author-lookup|ingest-mixed, --trace 0|1 and positive --seconds")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.dir = dir
	rep, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
