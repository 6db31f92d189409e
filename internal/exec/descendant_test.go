package exec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"timber/internal/storage"
	"timber/internal/xmltree"
)

// The descendant-axis variant of Query 1: authors correlate at any
// depth under the article ($b//author), and titles likewise.
const queryDescSrc = `
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
  {$a}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $a = $b//author
    RETURN $b//title
  }
</authorpubs>`

// deepDB builds articles whose authors and titles nest at varying
// depths (inside section/front-matter wrappers), so child-axis plans
// would miss them.
func deepDB(t testing.TB, seed int64) (*storage.DB, *xmltree.Node) {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	e, el := xmltree.E, xmltree.Elem
	root := e("doc_root")
	names := []string{"A", "B", "C"}
	for i := 0; i < rng.Intn(8)+2; i++ {
		au := el("author", names[rng.Intn(len(names))])
		ti := el("title", "T"+string(rune('0'+i)))
		art := e("article")
		switch rng.Intn(3) {
		case 0: // both direct children
			art.Append(au, ti)
		case 1: // author nested in front matter
			art.Append(e("front", e("byline", au)), ti)
		default: // both nested in a section
			art.Append(e("section", au, e("head", ti)))
		}
		root.Append(art)
	}
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	return db, root
}

func TestDescendantAxisSpec(t *testing.T) {
	_, _, spec := plansFor(t, queryDescSrc)
	if len(spec.JoinPath) != 1 || !spec.JoinPath[0].Descendant {
		t.Errorf("join path = %v, want one descendant step", spec.JoinPath)
	}
	if len(spec.ValuePath) != 1 || !spec.ValuePath[0].Descendant {
		t.Errorf("value path = %v, want one descendant step", spec.ValuePath)
	}
	if spec.JoinPath.String() != "//author" {
		t.Errorf("join path string = %s", spec.JoinPath)
	}
}

// TestDescendantAxisAllPlansAgree: every physical plan handles the //
// correlation identically to the logical reference, on data where the
// authors really do nest at depth.
func TestDescendantAxisAllPlansAgree(t *testing.T) {
	naive, rewritten, spec := plansFor(t, queryDescSrc)
	prop := func(seed int64) bool {
		db, _ := deepDB(t, seed)
		defer db.Close()
		ln, err := ExecLogical(db, naive)
		if err != nil {
			return false
		}
		lr, err := ExecLogical(db, rewritten)
		if err != nil {
			return false
		}
		nRows := rows(ln.Trees)
		if !reflect.DeepEqual(sorted(rows(lr.Trees)), sorted(nRows)) {
			return false
		}
		for _, strat := range []Strategy{
			StrategyDirect, StrategyGroupBy, StrategyGroupByMat,
		} {
			spec := spec
			spec.Strategy = strat
			res, err := Run(db, spec, Options{})
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(sorted(rows(res.Trees)), sorted(nRows)) {
				return false
			}
		}
		phys, err := ExecPhysical(db, rewritten, Options{})
		if err != nil {
			return false
		}
		return reflect.DeepEqual(sorted(rows(phys.Trees)), sorted(nRows))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDescendantAxisGolden(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e, el := xmltree.E, xmltree.Elem
	root := e("doc_root",
		e("article", e("front", el("author", "Deep")), e("body", e("head", el("title", "Hidden")))),
		e("article", el("author", "Flat"), el("title", "Plain")),
	)
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	_, _, spec := plansFor(t, queryDescSrc)
	res, err := groupByExec(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Deep:Hidden", "Flat:Plain"}
	if got := rows(res.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("deep grouping = %v, want %v", got, want)
	}
	// The child-axis query must NOT see the nested pair.
	_, _, childSpec := plansFor(t, query1Src)
	res2, err := groupByExec(db, childSpec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(res2.Trees); !reflect.DeepEqual(got, []string{"Flat:Plain"}) {
		t.Errorf("child-axis grouping = %v, want only the flat pair", got)
	}
}
