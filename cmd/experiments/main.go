// Command experiments regenerates the paper's Section 6 evaluation:
// the group-by-author query (E1, titles) and its count variant (E2)
// executed with the direct plan and the GROUPBY plan over a
// synthetic DBLP-Journals database.
//
// Usage:
//
//	experiments [-articles N] [-poolmb M] [-exp e1|e2|all|none] [-seed S] [-v]
//
// The defaults run a laptop-scale database (40,000 articles ≈ 420k
// nodes) with the paper's 32 MB buffer pool and 8 KB pages. Pass
// -articles 440000 to approximate the paper's 4.6M-node dataset.
//
// -eventsfile measures the event-journal overhead: the same database
// is built with the journal off and on, E1 runs -eventsreps times on
// each through the full engine path, and the wall-time medians, delta
// and result-hash equality land in the named JSON report (e.g.
// BENCH_events.json).
//
// -twigfile compares the binary structural-join cascade against the
// holistic twig-join matcher on chain and branch patterns over a
// corpus where most documents cannot satisfy the deep chain: postings
// scanned, intermediate bindings and wall time per matcher land in the
// named JSON report (e.g. BENCH_twig.json), and the run fails unless
// the twig matcher wins both access counters on the deep chain.
//
// -calibrate summarizes the planner's estimation accuracy from
// plan_estimate journal events: pass a journal dump (a crash dump or
// /debug/events capture) to read operator data, or "self" to build a
// synthetic database and generate the events in-process. Per-quantity
// relative-error summaries and suggested cost-constant scales print as
// a table; -calibratefile also writes them as JSON.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"timber/internal/bench"
	"timber/internal/dblpgen"
	"timber/internal/pagestore"
)

func main() {
	articles := flag.Int("articles", 40_000, "number of synthetic DBLP articles (440000 ≈ the paper's 4.6M nodes)")
	poolMB := flag.Int("poolmb", 32, "buffer pool size in MiB (paper: 32)")
	expSel := flag.String("exp", "all", "which experiment to run: e1 (titles), e2 (count), all, none")
	seed := flag.Int64("seed", 2002, "generator seed")
	parFile := flag.String("parfile", "", "also sweep E1 groupby over parallelism 1,2,4,8 and write the JSON scaling report here (e.g. BENCH_parallel.json)")
	traceFile := flag.String("tracefile", "", "run each strategy under a verified per-operator tracer and write the JSON trace report here (e.g. BENCH_traces.json)")
	streamFile := flag.String("streamfile", "", "compare the streaming iterator executor against the materializing plans (pool fetches + peak heap) and write the JSON report here (e.g. BENCH_streaming.json)")
	eventsFile := flag.String("eventsfile", "", "measure the event-journal overhead (E1 wall time with the journal off vs on) and write the JSON report here (e.g. BENCH_events.json)")
	eventsReps := flag.Int("eventsreps", 5, "timed repetitions per variant in the -eventsfile run")
	twigFile := flag.String("twigfile", "", "compare the binary and holistic twig matchers on chain/branch patterns and write the JSON report here (e.g. BENCH_twig.json)")
	twigDocs := flag.Int("twigdocs", 16, "documents in the -twigfile corpus (the deep chain appears in one of eight)")
	twigArticles := flag.Int("twigarticles", 200, "articles per document in the -twigfile corpus")
	twigReps := flag.Int("twigreps", 3, "timed repetitions per matcher in the -twigfile run")
	calibrate := flag.String("calibrate", "", "summarize planner estimation accuracy from plan_estimate events: a journal-dump path, or 'self' to generate events in-process")
	calibrateFile := flag.String("calibratefile", "", "also write the -calibrate report as JSON to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	verbose := flag.Bool("v", false, "print loading progress")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
			}
		}()
	}
	if *expSel != "none" || *parFile != "" || *traceFile != "" || *streamFile != "" {
		// run owns the database lifecycle; the deferred Close runs (and
		// its error propagates) before any exit here.
		if err := run(*articles, *poolMB, *expSel, *seed, *parFile, *traceFile, *streamFile, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *eventsFile != "" {
		if err := runEventsOverhead(*articles, *eventsReps, *poolMB, *seed, *eventsFile); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *twigFile != "" {
		if err := runTwigComparison(*twigDocs, *twigArticles, *twigReps, *poolMB, *seed, *twigFile); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *calibrate != "" {
		if err := runCalibration(*calibrate, *calibrateFile, *articles, *poolMB, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// runTwigComparison measures both matchers on the chain/branch
// patterns, writes the report, and enforces the deep-chain win.
func runTwigComparison(docs, articlesPerDoc, reps, poolMB int, seed int64, path string) error {
	fmt.Println("pattern matchers (binary cascade vs holistic twig join):")
	rep, err := bench.RunTwigComparison(docs, articlesPerDoc, reps, poolMB, seed, func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	})
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(path); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if err := rep.AssertTwigWins(); err != nil {
		return err
	}
	fmt.Println("deep chain: twig wins postings scanned and intermediate bindings: ok")
	return nil
}

// runCalibration summarizes planner estimation accuracy from a journal
// dump (or a self-generated one) and prints the per-quantity table.
func runCalibration(source, jsonPath string, articles, poolMB int, seed int64) error {
	var rep *bench.CalibrationReport
	var err error
	if source == "self" {
		fmt.Println("planner calibration (self-generated plan_estimate events):")
		rep, err = bench.RunSelfCalibration(articles, poolMB, seed, func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		})
	} else {
		fmt.Printf("planner calibration (journal dump %s):\n", source)
		rep, err = bench.ReadCalibrationFile(source)
	}
	if err != nil {
		return err
	}
	fmt.Printf("  %d plan_estimate events over %d journal lines\n", rep.Events, rep.Lines)
	fmt.Print(bench.CalibrationTable(rep))
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	return nil
}

// runEventsOverhead measures the journal-on vs journal-off E1 delta
// and writes its report.
func runEventsOverhead(articles, reps, poolMB int, seed int64, path string) error {
	fmt.Println("event-journal overhead (E1, journal off vs on):")
	rep, err := bench.RunEventsOverhead(articles, reps, poolMB, seed, func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	})
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(path); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func run(articles, poolMB int, expSel string, seed int64, parFile, traceFile, streamFile string, verbose bool) (err error) {
	poolPages := poolMB * 1024 * 1024 / pagestore.DefaultPageSize
	db, err := bench.SetupDB(poolPages)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	start := time.Now()
	stats, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: articles, Seed: seed})
	if err != nil {
		return err
	}
	if verbose {
		fmt.Printf("loaded %v in %v (%d pages of %d KiB; pool %d MiB)\n\n",
			stats, time.Since(start).Round(time.Millisecond),
			dbPages(db), pagestore.DefaultPageSize/1024, poolMB)
	} else {
		fmt.Printf("database: %v; pool %d MiB\n\n", stats, poolMB)
	}

	experiments := []struct {
		id, title, text, headline string
	}{
		{"e1", "E1 — Sec. 6 titles query (paper: direct 323.966s vs groupby 178.607s, 1.81x)",
			bench.Query1Text,
			"paper band: groupby wins by ~1.5–2x when titles are materialized"},
		{"e2", "E2 — Sec. 6 count query (paper: direct 155.564s vs groupby 23.033s, 6.75x)",
			bench.QueryCountText,
			"paper band: groupby wins by several-fold when only counts are produced"},
	}
	var traces bench.TraceReport
	traces.Articles = articles
	for _, e := range experiments {
		if expSel != "all" && expSel != e.id {
			continue
		}
		fmt.Println(e.title)
		q, err := bench.BuildQuery(e.text)
		if err != nil {
			return err
		}
		var ms []bench.Measurement
		if traceFile != "" {
			// Traced runs: both plans execute under a tracer whose span
			// deltas are verified against the global counters, and each
			// gets its per-operator breakdown inlined into the output.
			ms, err = bench.RunExperimentTraced(db, q)
		} else {
			ms, err = bench.RunExperiment(db, q)
		}
		if err != nil {
			return err
		}
		fmt.Print(bench.Table(ms, bench.StratDirectNaive))
		if traceFile != "" {
			traces.AddMeasurements(e.id, ms)
			for _, m := range ms {
				fmt.Printf("per-operator breakdown — %s:\n", m.Name)
				fmt.Print(m.Trace.Text())
			}
		}
		fmt.Println(e.headline)
		fmt.Println()
	}
	if traceFile != "" {
		if err := traces.WriteJSON(traceFile); err != nil {
			return err
		}
		fmt.Println("wrote", traceFile)
	}

	if parFile != "" {
		q, err := bench.BuildQuery(bench.Query1Text)
		if err != nil {
			return err
		}
		rep, err := bench.RunParallelScaling(db, q, []int{1, 2, 4, 8}, 3)
		if err != nil {
			return err
		}
		rep.Articles = articles
		if err := rep.WriteJSON(parFile); err != nil {
			return err
		}
		fmt.Printf("parallel scaling (E1 groupby titles, best of %d):\n", rep.Reps)
		for _, pt := range rep.Points {
			fmt.Printf("  p=%d  %10v  %.2fx  (%d fetches)\n",
				pt.Parallelism, time.Duration(pt.WallNS).Round(time.Microsecond), pt.Speedup, pt.Fetches)
		}
		if rep.Note != "" {
			fmt.Println("  note:", rep.Note)
		}
		fmt.Println("wrote", parFile)
	}

	if streamFile != "" {
		rep, err := bench.RunStreamExperiment(db, articles, poolMB*1024*1024/pagestore.DefaultPageSize)
		if err != nil {
			return err
		}
		if err := rep.WriteJSONFile(streamFile); err != nil {
			return err
		}
		fmt.Println("streaming executor vs materializing plans:")
		fmt.Print(bench.StreamTable(rep))
		fmt.Println("wrote", streamFile)
	}
	return nil
}

// dbPages reports the database size in pages via the pool counters'
// allocation count (every page is allocated exactly once).
func dbPages(db interface{ Stats() pagestore.Stats }) uint64 {
	return db.Stats().Allocations
}
