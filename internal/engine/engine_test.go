package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

const query1 = `
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
  {$a}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $a = $b/author
    RETURN $b/title
  }
</authorpubs>`

// nonGrouping is translatable but not a grouping idiom: no rewrite.
const nonGrouping = `FOR $a IN distinct-values(document("bib.xml")//author) RETURN <r>{$a}</r>`

func sampleEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	return New(db, opts)
}

func TestPrepareCachesPlans(t *testing.T) {
	e := sampleEngine(t, Options{})
	p1, cached, err := e.PrepareCached(query1)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first Prepare reported a cache hit")
	}
	if !p1.Applied {
		t.Error("query1 should trigger the GROUPBY rewrite")
	}
	p2, cached, err := e.PrepareCached(query1)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || p2 != p1 {
		t.Error("second Prepare should return the cached plan (parse+optimize skipped)")
	}
	st := e.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 miss, size 1", st)
	}
}

func TestPrepareRejectsGarbage(t *testing.T) {
	e := sampleEngine(t, Options{})
	if _, err := e.Prepare("this is not xquery"); err == nil {
		t.Error("garbage query should fail to prepare")
	}
	if st := e.CacheStats(); st.Size != 0 {
		t.Errorf("failed prepare must not be cached; size = %d", st.Size)
	}
}

// TestCacheEvictionLRU: capacity 2, recency decides the victim.
func TestCacheEvictionLRU(t *testing.T) {
	e := sampleEngine(t, Options{CacheSize: 2})
	q := func(i int) string { return query1 + strings.Repeat("\n", i+1) }
	for i := 0; i < 2; i++ {
		if _, err := e.Prepare(q(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch q0 so q1 becomes least recently used, then overflow.
	if _, cached, _ := e.PrepareCached(q(0)); !cached {
		t.Fatal("q0 should be cached")
	}
	if _, err := e.Prepare(q(2)); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("cache stats = %+v, want 1 eviction at size 2", st)
	}
	// Probe q0 before q1: probing the evicted q1 re-inserts it, which
	// would evict q0 in turn.
	if _, cached, _ := e.PrepareCached(q(0)); !cached {
		t.Error("q0 should have survived (recently used)")
	}
	if _, cached, _ := e.PrepareCached(q(1)); cached {
		t.Error("q1 should have been evicted (least recently used)")
	}
}

// TestCacheHitRatio: a zipf-ish re-prepare loop must show the expected
// exact hit/miss split.
func TestCacheHitRatio(t *testing.T) {
	e := sampleEngine(t, Options{CacheSize: 4})
	q := func(i int) string { return query1 + strings.Repeat("\n", i+1) }
	const distinct, rounds = 3, 10
	for r := 0; r < rounds; r++ {
		for i := 0; i < distinct; i++ {
			if _, err := e.Prepare(q(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := e.CacheStats()
	if st.Misses != distinct || st.Hits != int64(distinct*(rounds-1)) {
		t.Errorf("cache stats = %+v, want %d misses and %d hits", st, distinct, distinct*(rounds-1))
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d under capacity", st.Evictions)
	}
}

func TestCacheDisabled(t *testing.T) {
	e := sampleEngine(t, Options{CacheSize: -1})
	p1, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	p2, cached, err := e.PrepareCached(query1)
	if err != nil {
		t.Fatal(err)
	}
	if cached || p1 == p2 {
		t.Error("disabled cache should recompile every time")
	}
}

// groupRows flattens each result tree to "tag=content;..." and sorts,
// so strategies with different (but each deterministic) group orders
// compare as multisets.
func groupRows(res *Result) []string {
	var out []string
	for _, tr := range res.Trees {
		var b strings.Builder
		for _, c := range tr.Children {
			b.WriteString(c.Tag + "=" + c.Content + ";")
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

// TestExecuteStrategiesAgree: every strategy the facade accepts
// produces the logical reference answer as a group multiset (group
// order is strategy-defined: first-occurrence for the direct plan, sorted
// by grouping value for groupby plans).
func TestExecuteStrategiesAgree(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	logical, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyLogical})
	if err != nil {
		t.Fatal(err)
	}
	if len(logical.Trees) == 0 {
		t.Fatal("logical evaluation produced no trees")
	}
	want := groupRows(logical)
	for _, strat := range []exec.Strategy{
		exec.StrategyPhysical, exec.StrategyGroupBy, exec.StrategyGroupByMat,
		exec.StrategyDirect,
	} {
		res, err := pq.Execute(ctx, ExecOptions{Strategy: strat})
		if err != nil {
			t.Fatalf("Execute(%v): %v", strat, err)
		}
		if got := groupRows(res); !reflect.DeepEqual(got, want) {
			t.Errorf("Execute(%v) groups = %v, want %v", strat, got, want)
		}
		if res.Strategy != strat {
			t.Errorf("Execute(%v) ran %v", strat, res.Strategy)
		}
	}
}

// TestExecuteFallsBackWithoutRewrite: Spec-level strategies degrade to
// the generic physical plan when the grouping idiom is absent, so the
// facade's zero-value options work for every translatable query.
func TestExecuteFallsBackWithoutRewrite(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(nonGrouping)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Applied {
		t.Fatal("nonGrouping should not rewrite")
	}
	res, err := pq.Execute(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != exec.StrategyPhysical {
		t.Errorf("fallback strategy = %v, want physical", res.Strategy)
	}
	logical, err := pq.Execute(context.Background(), ExecOptions{Strategy: exec.StrategyLogical})
	if err != nil {
		t.Fatal(err)
	}
	if res.Serialize() != logical.Serialize() {
		t.Error("fallback result differs from logical reference")
	}
}

// TestEngineConcurrentHammer: 16 goroutines share one Engine and one
// cached plan, across strategies and parallelism settings, under the
// race detector when CI runs with -race. Every execution must be
// byte-identical to the solo baseline of its strategy.
func TestEngineConcurrentHammer(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 200, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	e := New(db, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	strats := []exec.Strategy{
		exec.StrategyGroupBy, exec.StrategyGroupByMat, exec.StrategyDirect,
		exec.StrategyPhysical,
	}
	baseline := map[exec.Strategy]string{}
	for _, s := range strats {
		res, err := pq.Execute(context.Background(), ExecOptions{Strategy: s})
		if err != nil {
			t.Fatalf("baseline %v: %v", s, err)
		}
		baseline[s] = res.Serialize()
	}

	const goroutines, iters = 16, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				strat := strats[(g+i)%len(strats)]
				p, err := e.Prepare(query1)
				if err != nil {
					errs <- err
					return
				}
				res, err := p.Execute(context.Background(), ExecOptions{Strategy: strat, Parallelism: 1 + g%4})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d (%v): %w", g, i, strat, err)
					return
				}
				if got := res.Serialize(); got != baseline[strat] {
					errs <- fmt.Errorf("goroutine %d iter %d (%v): result bytes differ from solo baseline", g, i, strat)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.CacheStats()
	if st.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (every goroutine reused the prepared plan)", st.Misses)
	}
	if st.Hits < goroutines*iters {
		t.Errorf("cache hits = %d, want >= %d", st.Hits, goroutines*iters)
	}
}

// TestExecuteCancelled: a cancelled context returns promptly with
// ctx.Err(), and the buffer pool stays coherent — a traced solo run
// afterwards still satisfies the counter-exactness invariant.
func TestExecuteCancelled(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []exec.Strategy{exec.StrategyGroupBy, exec.StrategyDirect, exec.StrategyPhysical} {
		for _, p := range []int{1, 4} {
			res, err := pq.Execute(ctx, ExecOptions{Strategy: strat, Parallelism: p})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Execute(%v p=%d) err = %v, want context.Canceled", strat, p, err)
			}
			if res != nil {
				t.Errorf("Execute(%v p=%d) returned a result after cancellation", strat, p)
			}
		}
	}

	// Counter exactness after cancellation: reset, trace one run, and
	// verify the span deltas telescope to the global counters.
	db := e.DB()
	db.ResetStats()
	tr := db.NewTracer("post-cancel")
	if _, err := pq.Execute(context.Background(), ExecOptions{Strategy: exec.StrategyGroupBy, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Finish().Verify(db.TraceCounters()); err != nil {
		t.Errorf("exactness invariant violated after cancellation: %v", err)
	}
}

// TestExecuteDeadlineExceeded: an already-expired deadline surfaces as
// context.DeadlineExceeded — the error timber-serve maps to 504.
func TestExecuteDeadlineExceeded(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := pq.Execute(ctx, ExecOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}
