package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"timber/internal/dblpgen"
	"timber/internal/match"
	"timber/internal/obs"
	"timber/internal/opt"
	"timber/internal/paperdata"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xmltree"
	"timber/internal/xq"
)

func TestExecPhysicalMatchesLogicalQuery1(t *testing.T) {
	db := sampleDB(t)
	naive, rewritten, _ := plansFor(t, query1Src)
	for name, op := range map[string]plan.Op{"naive": naive, "rewritten": rewritten} {
		logical, err := ExecLogical(db, op)
		if err != nil {
			t.Fatal(err)
		}
		physical, err := ExecPhysical(db, op, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(physical.Strings(), logical.Strings()) {
			t.Errorf("%s plan: physical != logical:\nphys %v\nlog  %v",
				name, physical.Strings(), logical.Strings())
		}
	}
}

func TestExecPhysicalNonGroupingQuery(t *testing.T) {
	// A query the rewrite does not apply to: distinct authors only.
	// ExecPhysical must still run it via the index path.
	db := sampleDB(t)
	src := `FOR $a IN distinct-values(document("bib.xml")//author) RETURN <who>{$a}</who>`
	naive, err := plan.Translate(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecPhysical(db, naive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`who[author:"Jack"]`,
		`who[author:"John"]`,
		`who[author:"Jill"]`,
	}
	if !reflect.DeepEqual(out.Strings(), want) {
		t.Errorf("physical = %v, want %v", out.Strings(), want)
	}
}

func TestExecPhysicalAvoidsFullLoadForLeafSelect(t *testing.T) {
	// The index path must fetch far fewer records than materializing
	// the whole document: compare buffer fetches against ExecLogical on
	// a database where the selection touches a small fraction of nodes.
	db, err := storage.CreateTemp(storage.Options{PageSize: 4096, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	root := xmltree.E("doc_root")
	for i := 0; i < 500; i++ {
		root.Append(xmltree.E("article",
			xmltree.Elem("author", fmt.Sprintf("A%d", i%40)),
			xmltree.Elem("title", fmt.Sprintf("T%d", i)),
			xmltree.Elem("year", "2001"),
			xmltree.Elem("journal", "J"),
			xmltree.Elem("pages", "1-2"),
		))
	}
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	src := `FOR $a IN distinct-values(document("bib.xml")//author) RETURN <who>{$a}</who>`
	naive, err := plan.Translate(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if _, err := ExecPhysical(db, naive, Options{}); err != nil {
		t.Fatal(err)
	}
	phys := db.Stats().Fetches
	db.ResetStats()
	if _, err := ExecLogical(db, naive); err != nil {
		t.Fatal(err)
	}
	logical := db.Stats().Fetches
	if phys >= logical {
		t.Errorf("physical fetches (%d) should undercut logical/full-load fetches (%d)", phys, logical)
	}
}

// TestExecPhysicalProperty: on random databases and all query variants,
// the generic physical evaluator equals the logical reference.
func TestExecPhysicalProperty(t *testing.T) {
	queries := []string{query1Src, queryCountSrc, queryOrderedSrc}
	var plans []plan.Op
	for _, src := range queries {
		naive, err := plan.Translate(xq.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, naive)
		rw, applied, err := opt.Rewrite(naive)
		if err != nil || !applied {
			t.Fatal(err)
		}
		plans = append(plans, rw)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, _ := randomBibDB(t, rng)
		defer db.Close()
		for _, p := range plans {
			logical, err := ExecLogical(db, p)
			if err != nil {
				return false
			}
			physical, err := ExecPhysical(db, p, Options{})
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(physical.Strings(), logical.Strings()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// withAuthorFilter turns one of the unfiltered Query 1 forms into its
// single-author lookup: WHERE $a = "name" on the outer FOR.
func withAuthorFilter(src, name string) string {
	return strings.Replace(src, "\nRETURN", fmt.Sprintf("\nWHERE $a = %q\nRETURN", name), 1)
}

// longAuthor is a 600-byte author name: over the value index's
// indexable length, so equality on it is answered from tag postings.
var longAuthor = strings.Repeat("L", 600)

// joinEdgeDB holds the sample database, one generated document and a
// document of join edge cases: multi-author articles, an author listed
// twice in one article, an empty author and a 600-byte author, each
// also appearing in a later document.
func joinEdgeDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{PageSize: 1024, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	art := func(title string, authors ...string) *xmltree.Node {
		a := xmltree.E("article")
		for _, au := range authors {
			a.Append(xmltree.Elem("author", au))
		}
		if title != "" {
			a.Append(xmltree.Elem("title", title))
		}
		return a
	}
	edge := xmltree.E("doc_root",
		art("E1", "Ann", "Bob"),
		art("E2", "Ann", "Ann"),
		art("E3", ""),
		art("E4", longAuthor, "Bob"),
		art("", "Cy"),
		art("E5", "Jack", "Bob", "Ann"),
	)
	if _, err := db.LoadDocument("edge.xml", edge); err != nil {
		t.Fatal(err)
	}
	gen, _ := dblpgen.Generate(dblpgen.Config{Articles: 25, Seed: 5})
	if _, err := db.LoadDocument("gen.xml", gen); err != nil {
		t.Fatal(err)
	}
	more := xmltree.E("doc_root", art("M1", "Bob", ""), art("M2", longAuthor), art("M3", "Ann", "Jill"))
	if _, err := db.LoadDocument("more.xml", more); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExecPhysicalJoinMatchesLogical: the value-index semi-join is
// byte-identical to the reference join over the loaded documents for
// single-author lookups (present, absent, listed twice in one article,
// on multi-author articles, the empty literal, a literal too long for
// the value index) and for the unfiltered Query 1, count and ORDER BY
// forms — with either matcher, at parallelism 1 and 4.
func TestExecPhysicalJoinMatchesLogical(t *testing.T) {
	db := joinEdgeDB(t)
	names := []string{"Jack", "Nobody", "Ann", "Bob", "", longAuthor}
	for _, form := range []struct{ name, src string }{
		{"query1", query1Src}, {"count", queryCountSrc}, {"ordered", queryOrderedSrc},
	} {
		srcs := map[string]string{"unfiltered": form.src}
		for _, n := range names {
			label := n
			if len(label) > 8 {
				label = label[:8] + "..."
			}
			srcs[fmt.Sprintf("lookup %q", label)] = withAuthorFilter(form.src, n)
		}
		for case_, src := range srcs {
			naive, err := plan.Translate(xq.MustParse(src))
			if err != nil {
				t.Fatalf("%s %s: %v", form.name, case_, err)
			}
			logical, err := ExecLogical(db, naive)
			if err != nil {
				t.Fatal(err)
			}
			want := serializeTrees(logical.Trees)
			for _, m := range []match.MatcherKind{match.MatcherBinary, match.MatcherTwig} {
				for _, p := range []int{1, 4} {
					got, err := ExecPhysical(db, naive, Options{Matcher: m, Parallelism: p})
					if err != nil {
						t.Fatalf("%s %s %s p=%d: %v", form.name, case_, m, p, err)
					}
					if g := serializeTrees(got.Trees); g != want {
						t.Errorf("%s %s %s p=%d: physical differs from logical\ngot  %s\nwant %s", form.name, case_, m, p, g, want)
					}
				}
			}
		}
	}
}

// TestExecPhysicalAvoidsFullLoadForJoin: a single-author lookup reads
// only the outer selection's witnesses and the joined articles, never
// the whole database. The counters are deterministic: a present
// author costs under a tenth of the full-load fetches, identically at
// parallelism 1 and 4, and an absent one does no join work at all.
func TestExecPhysicalAvoidsFullLoadForJoin(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 4096, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// 500 two-author articles over 125 authors: a lookup joins with
	// about 8 articles, under 2 % of the database.
	root := xmltree.E("doc_root")
	for i := 0; i < 500; i++ {
		root.Append(xmltree.E("article",
			xmltree.Elem("author", fmt.Sprintf("A%d", i%125)),
			xmltree.Elem("author", fmt.Sprintf("A%d", (i*7+3)%125)),
			xmltree.Elem("title", fmt.Sprintf("T%d", i)),
			xmltree.Elem("year", "2001"),
			xmltree.Elem("journal", "J"),
			xmltree.Elem("pages", "1-2"),
		))
	}
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	naiveFor := func(name string) plan.Op {
		op, err := plan.Translate(xq.MustParse(withAuthorFilter(query1Src, name)))
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	present, absent := naiveFor("A7"), naiveFor("Nobody")

	db.ResetStats()
	if _, err := ExecLogical(db, present); err != nil {
		t.Fatal(err)
	}
	logical := db.Stats().Fetches
	var fetches [2]uint64
	for i, p := range []int{1, 4} {
		db.ResetStats()
		out, err := ExecPhysical(db, present, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 1 {
			t.Fatalf("p=%d: %d result trees, want 1", p, out.Len())
		}
		fetches[i] = db.Stats().Fetches
	}
	if fetches[0] != fetches[1] {
		t.Errorf("present-author fetches differ: p=1 %d, p=4 %d", fetches[0], fetches[1])
	}
	if fetches[0]*10 >= logical {
		t.Errorf("present-author lookup fetched %d pages, want under 10%% of the full load's %d", fetches[0], logical)
	}

	tr := db.NewTracer("absent")
	if _, err := ExecPhysical(db, absent, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var join *obs.SpanData
	for _, c := range tr.Finish().Children {
		if c.Name == "join: value-index semi-join" {
			join = c
		}
	}
	if join == nil {
		t.Fatal("no semi-join span in the absent-author trace")
	}
	if join.Delta.Fetches != 0 || join.Ops["left_values"] != 0 || len(join.Children) != 0 {
		t.Errorf("absent-author join did right-side work: %d fetches, ops %v, %d sub-phases",
			join.Delta.Fetches, join.Ops, len(join.Children))
	}
}

func TestExecPhysicalSharedGroupBySubplan(t *testing.T) {
	// The rewritten plan's two parts share one GroupBy; the substituted
	// plan must keep sharing it (pointer equality after substitution).
	db := sampleDB(t)
	_, rewritten, _ := plansFor(t, query1Src)
	sub, err := substituteLeaves(db, rewritten, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sub.(*plan.Stitch)
	find := func(op plan.Op) *plan.GroupBy {
		for op != nil {
			if g, ok := op.(*plan.GroupBy); ok {
				return g
			}
			ins := op.Inputs()
			if len(ins) == 0 {
				return nil
			}
			op = ins[0]
		}
		return nil
	}
	g0, g1 := find(st.Parts[0].Op), find(st.Parts[1].Op)
	if g0 == nil || g0 != g1 {
		t.Errorf("GroupBy sharing lost: %p vs %p", g0, g1)
	}
}

func TestExecPhysicalUnknownOp(t *testing.T) {
	db := sampleDB(t)
	type bogus struct{ plan.Op }
	if _, err := ExecPhysical(db, bogus{}, Options{}); err == nil {
		t.Error("unknown op should error")
	}
}

func BenchmarkExecPhysicalVsLogical(b *testing.B) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 8192, PoolPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	root := xmltree.E("doc_root")
	for i := 0; i < 2000; i++ {
		root.Append(xmltree.E("article",
			xmltree.Elem("author", fmt.Sprintf("A%d", i%200)),
			xmltree.Elem("title", fmt.Sprintf("T%d", i)),
		))
	}
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		b.Fatal(err)
	}
	src := `FOR $a IN distinct-values(document("bib.xml")//author) RETURN <who>{$a}</who>`
	naive, err := plan.Translate(xq.MustParse(src))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("physical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecPhysical(db, naive, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("logical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecLogical(db, naive); err != nil {
				b.Fatal(err)
			}
		}
	})
}
