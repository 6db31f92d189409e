package exec

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// The streaming iterator executor must be invisible: for every corpus
// query, every parallelism and every batch size, groupByExec produces
// byte-identical trees and identical ExecStats to the materializing
// reference executor it replaced (groupByMaterialized, strategy
// "groupby-mat"). These tests pin that equivalence, including under
// sort spilling and the materialization budget.

// streamCorpus is every groupby query shape the package tests cover:
// titles, count, ascending and descending ordering lists.
var streamCorpus = []struct {
	name string
	src  string
}{
	{"titles", query1Src},
	{"count", queryCountSrc},
	{"ordered-desc", queryOrderedSrc},
	{"ordered-year", queryOrderedByYearSrc},
}

func assertStreamEqual(t *testing.T, db *storage.DB, spec Spec, label string) {
	t.Helper()
	want, err := groupByMaterialized(db, spec, Options{})
	if err != nil {
		t.Fatalf("%s: materialized: %v", label, err)
	}
	wantBytes := serializeTrees(want.Trees)
	for _, p := range []int{1, 4} {
		for _, bs := range []int{0, 1, 3} {
			got, err := groupByExec(db, spec, Options{Parallelism: p, BatchSize: bs})
			if err != nil {
				t.Fatalf("%s p=%d bs=%d: %v", label, p, bs, err)
			}
			if gotBytes := serializeTrees(got.Trees); gotBytes != wantBytes {
				t.Errorf("%s p=%d bs=%d: trees differ\ngot  %s\nwant %s", label, p, bs, gotBytes, wantBytes)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s p=%d bs=%d: stats = %+v, want %+v", label, p, bs, got.Stats, want.Stats)
			}
		}
	}
}

func TestStreamingMatchesMaterializedCorpus(t *testing.T) {
	db := multiDocDB(t, 7, 11, 13)
	for _, q := range streamCorpus {
		_, _, spec := plansFor(t, q.src)
		assertStreamEqual(t, db, spec, q.name)
	}
}

func TestStreamingMatchesMaterializedDescendant(t *testing.T) {
	_, _, spec := plansFor(t, queryDescSrc)
	for seed := int64(1); seed <= 4; seed++ {
		db, _ := deepDB(t, seed)
		assertStreamEqual(t, db, spec, fmt.Sprintf("descendant seed=%d", seed))
		db.Close()
	}
}

func TestStreamingMatchesMaterializedTwoStepPath(t *testing.T) {
	src := `
FOR $i IN distinct-values(document("bib.xml")//institution)
RETURN
<instpubs>
  {$i}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $i = $b/author/institution
    RETURN $b/title
  }
</instpubs>`
	_, _, spec := plansFor(t, src)
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e, el := xmltree.E, xmltree.Elem
	root := e("doc_root",
		e("article", e("author", el("institution", "UM")).Text("Jack"), el("title", "T1")),
		e("article", e("author", el("institution", "UBC")).Text("Jill"), el("title", "T2")),
		e("article", e("author", el("institution", "UM")).Text("Jag"), el("title", "T3")),
	)
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	assertStreamEqual(t, db, spec, "institution")
}

// TestStreamingSpillEquivalence is the blocking-operator spill
// regression: a GROUPBY over a collection larger than the buffer pool,
// with a sort budget small enough to force many spilled runs, must be
// byte-identical to the in-memory sort and to the materializing
// executor — and must give every temporary page back.
func TestStreamingSpillEquivalence(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 4; i++ {
		root, _ := dblpgen.Generate(dblpgen.Config{Articles: 60, Seed: int64(100 + i)})
		if _, err := db.LoadDocument(fmt.Sprintf("dblp-%d.xml", i), root); err != nil {
			t.Fatal(err)
		}
	}
	if pages, pool := db.NumPages(), uint32(32); pages <= pool {
		t.Fatalf("collection (%d pages) does not exceed the pool (%d pages)", pages, pool)
	}
	for _, q := range streamCorpus {
		_, _, spec := plansFor(t, q.src)
		want, err := groupByMaterialized(db, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		inMem, err := groupByExec(db, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := db.NumPages()
		// Each spilled run pins one pool frame during the k-way merge,
		// so the budget is chosen to yield a handful of runs, not one
		// per few rows.
		spilled, err := groupByExec(db, spec, Options{SortMemRows: 64, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if after := db.NumPages(); after != before {
			t.Errorf("%s: spill leaked pages: %d -> %d", q.name, before, after)
		}
		wantBytes := serializeTrees(want.Trees)
		if got := serializeTrees(inMem.Trees); got != wantBytes {
			t.Errorf("%s: in-memory streaming differs from materialized", q.name)
		}
		if got := serializeTrees(spilled.Trees); got != wantBytes {
			t.Errorf("%s: spilled streaming differs from materialized", q.name)
		}
		if inMem.Stats != want.Stats || spilled.Stats != want.Stats {
			t.Errorf("%s: stats diverge: mat=%+v mem=%+v spill=%+v", q.name, want.Stats, inMem.Stats, spilled.Stats)
		}
	}
}

// TestStreamingSpillCascade: a sort budget that spills more runs than
// the 32-frame pool has frames must still merge — the sort cascades
// runs so no merge pins more frames than a pool shard holds — with
// trees and ExecStats identical to the unspilled sort, every temporary
// page returned, no spool run leaked and no frame left pinned.
func TestStreamingSpillCascade(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 4096, PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	// The sort drains its input in 256-row batches and spills at batch
	// boundaries: about 9,600 author-article rows yield 37 runs.
	root, _ := dblpgen.Generate(dblpgen.Config{Articles: 4000, Seed: 2002})
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	for _, q := range streamCorpus {
		_, _, spec := plansFor(t, q.src)
		want, err := groupByExec(db, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		before, runs := db.NumPages(), db.IngestCounters().SpoolRuns
		got, err := groupByExec(db, spec, Options{SortMemRows: 4, BatchSize: 16})
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if n := db.IngestCounters().SpoolRuns - runs; n <= 32 {
			t.Fatalf("%s: %d spilled runs, want more than the pool's 32 frames", q.name, n)
		}
		if after := db.NumPages(); after != before {
			t.Errorf("%s: spill leaked pages: %d -> %d", q.name, before, after)
		}
		if serializeTrees(got.Trees) != serializeTrees(want.Trees) {
			t.Errorf("%s: cascaded spill differs from the in-memory sort", q.name)
		}
		if got.Stats != want.Stats {
			t.Errorf("%s: stats = %+v, want %+v", q.name, got.Stats, want.Stats)
		}
	}
	runtime.GC()
	if n := db.IngestCounters().SpoolRunsLeaked; n != 0 {
		t.Errorf("spool_runs_leaked = %d", n)
	}
	// Close fails while any frame is still pinned.
	if err := db.Close(); err != nil {
		t.Errorf("close after the spills: %v", err)
	}
}

// TestMaterializeLimit pins the -maxmem backend: a budget too small
// for the output fails with ErrMaterializeLimit and no result; a
// sufficient budget changes nothing; and a count query fits in a
// budget far below its title volume because it never materializes
// title values.
func TestMaterializeLimit(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	res, err := groupByExec(db, spec, Options{MaxMaterializeBytes: 1})
	if !errors.Is(err, ErrMaterializeLimit) {
		t.Fatalf("limit 1: err = %v, want ErrMaterializeLimit", err)
	}
	if res != nil {
		t.Fatalf("limit 1: partial result returned: %+v", res)
	}
	unlimited, err := groupByExec(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := groupByExec(db, spec, Options{MaxMaterializeBytes: 1 << 20})
	if err != nil {
		t.Fatalf("generous limit: %v", err)
	}
	if serializeTrees(capped.Trees) != serializeTrees(unlimited.Trees) {
		t.Error("generous limit changed the result")
	}

	// The count query's only materialized bytes are the three author
	// keys — a budget far below the title volume suffices.
	_, _, countSpec := plansFor(t, queryCountSrc)
	if _, err := groupByExec(db, countSpec, Options{MaxMaterializeBytes: 16}); err != nil {
		t.Errorf("count under tight budget: %v", err)
	}
}

func TestGroupByMatStrategy(t *testing.T) {
	s, err := ParseStrategy("groupby-mat")
	if err != nil || s != StrategyGroupByMat {
		t.Fatalf("ParseStrategy = %v, %v", s, err)
	}
	if s.String() != "groupby-mat" {
		t.Errorf("String = %q", s.String())
	}
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	spec.Strategy = StrategyGroupByMat
	res, err := Run(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) != 3 {
		t.Errorf("groups = %d, want 3", len(res.Trees))
	}
}
