// Benchmarks regenerating the paper's evaluation (Sec. 6) and the
// design-choice ablations DESIGN.md calls out. One benchmark exists per
// experiment row:
//
//	E1 (titles query):  BenchmarkE1DirectTitles (paper: 323.966s)
//	                    BenchmarkE1GroupByTitles (paper: 178.607s)
//	E2 (count query):   BenchmarkE2DirectCount (paper: 155.564s)
//	                    BenchmarkE2GroupByCount (paper: 23.033s)
//
// plus ablations (buffer pool size sweep, bulk vs incremental index
// loading, structural-join algorithms — the last in internal/sjoin).
// Absolute times are incomparable to the paper's Pentium III; the
// reproduced quantity is the *shape*: the groupby plan wins both
// experiments, and wins the count experiment by a much larger factor.
// Per-iteration buffer-pool fetch counts are reported as "fetches/op"
// — they are deterministic and machine-independent.
//
// The benchmark database defaults to 20,000 articles (~190k nodes) with
// a pool scaled to keep the paper's roughly 1:3 pool:data ratio. Set
// TIMBER_BENCH_ARTICLES to scale (440000 reproduces the paper's 4.6M
// nodes; expect a long setup).
package timber_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"timber/internal/bench"
	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/storage"
)

const defaultBenchArticles = 20_000

// benchPoolPages keeps pool:data near the paper's 32MB:100MB.
func benchPoolPages(articles int) int {
	// ~10.5 nodes/article, ~55 bytes/record => ~14 articles per 8 KiB
	// data page; a third of that in pool pages.
	pages := articles / 14 / 3
	if pages < 64 {
		pages = 64
	}
	return pages
}

func benchArticles() int {
	if s := os.Getenv("TIMBER_BENCH_ARTICLES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return defaultBenchArticles
}

var (
	benchOnce   sync.Once
	benchDB     *storage.DB
	benchErr    error
	benchTitles *bench.Query
	benchCount  *bench.Query
)

func setupBench(b *testing.B) (*storage.DB, *bench.Query, *bench.Query) {
	b.Helper()
	benchOnce.Do(func() {
		articles := benchArticles()
		benchDB, benchErr = bench.SetupDB(benchPoolPages(articles))
		if benchErr != nil {
			return
		}
		if _, benchErr = dblpgen.GenerateToDB(benchDB, dblpgen.Config{Articles: articles, Seed: 2002}); benchErr != nil {
			return
		}
		if benchTitles, benchErr = bench.BuildQuery(bench.Query1Text); benchErr != nil {
			return
		}
		benchCount, benchErr = bench.BuildQuery(bench.QueryCountText)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDB, benchTitles, benchCount
}

// runPlan benchmarks one physical strategy with a cold pool per
// iteration, reporting deterministic fetch counts alongside time.
func runPlan(b *testing.B, q *bench.Query, strat exec.Strategy, o exec.Options) {
	db, _, _ := setupBench(b)
	spec := q.Spec
	spec.Strategy = strat
	b.ReportAllocs()
	b.ResetTimer()
	var fetches uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := db.DropCache(); err != nil {
			b.Fatal(err)
		}
		db.ResetStats()
		b.StartTimer()
		res, err := exec.Run(db, spec, o)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Groups == 0 {
			b.Fatal("no groups")
		}
		fetches += db.Stats().Fetches
	}
	b.ReportMetric(float64(fetches)/float64(b.N), "fetches/op")
}

// --- E1: the Sec. 6 titles query -----------------------------------

func BenchmarkE1DirectTitles(b *testing.B) {
	_, titles, _ := setupBench(b)
	runPlan(b, titles, exec.StrategyDirect, exec.Options{})
}

func BenchmarkE1GroupByTitles(b *testing.B) {
	_, titles, _ := setupBench(b)
	runPlan(b, titles, exec.StrategyGroupBy, exec.Options{})
}

// BenchmarkE1GroupByTitlesParallel sweeps the executor's worker bound
// over the titles groupby plan. Results are byte-identical at every
// setting; only wall time moves (and only on multi-core hosts — the
// fetch counts stay constant everywhere).
func BenchmarkE1GroupByTitlesParallel(b *testing.B) {
	_, titles, _ := setupBench(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			runPlan(b, titles, exec.StrategyGroupBy, exec.Options{Parallelism: p})
		})
	}
}

// --- E2: the Sec. 6 count query -------------------------------------

func BenchmarkE2DirectCount(b *testing.B) {
	_, _, count := setupBench(b)
	runPlan(b, count, exec.StrategyDirect, exec.Options{})
}

func BenchmarkE2GroupByCount(b *testing.B) {
	_, _, count := setupBench(b)
	runPlan(b, count, exec.StrategyGroupBy, exec.Options{})
}

// --- A2: buffer pool size sensitivity -------------------------------

// BenchmarkAblationPoolSize runs the groupby titles plan against the
// same data with pools from badly undersized to whole-database: the
// knee in fetch latency shows where the working set stops fitting.
func BenchmarkAblationPoolSize(b *testing.B) {
	const articles = 8000
	for _, poolMB := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("pool=%dMB", poolMB), func(b *testing.B) {
			db, err := bench.SetupDB(poolMB * 1024 * 1024 / 8192)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: articles, Seed: 7}); err != nil {
				b.Fatal(err)
			}
			q, err := bench.BuildQuery(bench.Query1Text)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var reads uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := db.DropCache(); err != nil {
					b.Fatal(err)
				}
				db.ResetStats()
				b.StartTimer()
				if _, err := exec.Run(db, q.Spec, exec.Options{}); err != nil {
					b.Fatal(err)
				}
				reads += db.Stats().PhysicalReads
			}
			b.ReportMetric(float64(reads)/float64(b.N), "physreads/op")
		})
	}
}

// --- A4: bulk vs incremental index construction ----------------------

func BenchmarkLoadBulk(b *testing.B) {
	root, _ := dblpgen.Generate(dblpgen.Config{Articles: 2000, Seed: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := storage.CreateTemp(storage.Options{PageSize: 8192, PoolPages: 2048})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.LoadDocument("d", root.Clone()); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

func BenchmarkLoadIncremental(b *testing.B) {
	root, _ := dblpgen.Generate(dblpgen.Config{Articles: 2000, Seed: 3})
	tiny, _ := dblpgen.Generate(dblpgen.Config{Articles: 1, Seed: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := storage.CreateTemp(storage.Options{PageSize: 8192, PoolPages: 2048})
		if err != nil {
			b.Fatal(err)
		}
		// A first tiny document forces the second load down the
		// incremental insert path.
		if _, err := db.LoadDocument("tiny", tiny.Clone()); err != nil {
			b.Fatal(err)
		}
		if _, err := db.LoadDocument("d", root.Clone()); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}
