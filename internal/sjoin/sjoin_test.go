package sjoin

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"timber/internal/xmltree"
)

// intervalsOf collects the intervals of all nodes with the given tag, in
// document order (the tag-index order).
func intervalsOf(roots []*xmltree.Node, tag string) []xmltree.Interval {
	var out []xmltree.Interval
	for _, r := range roots {
		for _, n := range r.Find(tag) {
			out = append(out, n.Interval)
		}
	}
	return out
}

func sampleDoc() *xmltree.Node {
	root := xmltree.E("doc_root",
		xmltree.E("article",
			xmltree.Elem("author", "Jack"),
			xmltree.Elem("author", "John"),
			xmltree.Elem("title", "Querying XML"),
		),
		xmltree.E("article",
			xmltree.E("section",
				xmltree.Elem("author", "Deep"),
			),
			xmltree.Elem("title", "Nested"),
		),
	)
	xmltree.Number(root, 1)
	return root
}

func TestStackTreeAncestorDescendant(t *testing.T) {
	root := sampleDoc()
	arts := intervalsOf([]*xmltree.Node{root}, "article")
	authors := intervalsOf([]*xmltree.Node{root}, "author")
	pairs := StackTree(arts, authors, AncestorDescendant, nil)
	// Every author is inside exactly one article here.
	want := []Pair{{A: 0, D: 0}, {A: 0, D: 1}, {A: 1, D: 2}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestStackTreeParentChild(t *testing.T) {
	root := sampleDoc()
	arts := intervalsOf([]*xmltree.Node{root}, "article")
	authors := intervalsOf([]*xmltree.Node{root}, "author")
	pairs := StackTree(arts, authors, ParentChild, nil)
	// The "Deep" author is a grandchild of article 2, so only the two
	// direct authors survive.
	want := []Pair{{A: 0, D: 0}, {A: 0, D: 1}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pc pairs = %v, want %v", pairs, want)
	}
}

func TestStackTreeNestedAncestors(t *testing.T) {
	// section inside section: a descendant pairs with both, outermost
	// first.
	root := xmltree.E("r",
		xmltree.E("section",
			xmltree.E("section",
				xmltree.Elem("p", "x"),
			),
		),
	)
	xmltree.Number(root, 1)
	secs := intervalsOf([]*xmltree.Node{root}, "section")
	ps := intervalsOf([]*xmltree.Node{root}, "p")
	pairs := StackTree(secs, ps, AncestorDescendant, nil)
	want := []Pair{{A: 0, D: 0}, {A: 1, D: 0}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("nested pairs = %v, want %v", pairs, want)
	}
}

func TestStackTreeSelfJoinExcludesSelf(t *testing.T) {
	root := xmltree.E("a", xmltree.E("a", xmltree.E("a")))
	xmltree.Number(root, 1)
	as := intervalsOf([]*xmltree.Node{root}, "a")
	pairs := StackTree(as, as, AncestorDescendant, nil)
	// outer-mid, outer-inner, mid-inner; never (x, x).
	if len(pairs) != 3 {
		t.Fatalf("self join pairs = %v", pairs)
	}
	for _, p := range pairs {
		if p.A == p.D {
			t.Errorf("self pair %v", p)
		}
	}
}

func TestStackTreeAcrossDocuments(t *testing.T) {
	r1 := xmltree.E("r", xmltree.E("article", xmltree.Elem("author", "A")))
	r2 := xmltree.E("r", xmltree.E("article", xmltree.Elem("author", "B")))
	xmltree.Number(r1, 1)
	xmltree.Number(r2, 2)
	roots := []*xmltree.Node{r1, r2}
	arts := intervalsOf(roots, "article")
	auths := intervalsOf(roots, "author")
	pairs := StackTree(arts, auths, AncestorDescendant, nil)
	want := []Pair{{A: 0, D: 0}, {A: 1, D: 1}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("cross-doc pairs = %v, want %v", pairs, want)
	}
}

func TestEmptyInputs(t *testing.T) {
	root := sampleDoc()
	arts := intervalsOf([]*xmltree.Node{root}, "article")
	if got := StackTree(nil, arts, AncestorDescendant, nil); len(got) != 0 {
		t.Errorf("nil ancestors: %v", got)
	}
	if got := StackTree(arts, nil, AncestorDescendant, nil); len(got) != 0 {
		t.Errorf("nil descendants: %v", got)
	}
	if got := NestedLoop(nil, nil, ParentChild); len(got) != 0 {
		t.Errorf("nested loop empty: %v", got)
	}
}

// randomForest builds a few random documents and returns interval lists
// for two synthetic "tags" drawn from the node population.
func randomForest(rng *rand.Rand) (alist, dlist []xmltree.Interval) {
	docs := rng.Intn(3) + 1
	for doc := 1; doc <= docs; doc++ {
		n := rng.Intn(40) + 2
		root := xmltree.E("r")
		nodes := []*xmltree.Node{root}
		for i := 1; i < n; i++ {
			parent := nodes[rng.Intn(len(nodes))]
			child := xmltree.E("n")
			parent.Append(child)
			nodes = append(nodes, child)
		}
		xmltree.Number(root, xmltree.DocID(doc))
		// Collect in document order: both join inputs must be sorted by
		// (doc, start), as the tag index guarantees in real use.
		root.Walk(func(nd *xmltree.Node) bool {
			if rng.Intn(3) == 0 {
				alist = append(alist, nd.Interval)
			}
			if rng.Intn(3) == 0 {
				dlist = append(dlist, nd.Interval)
			}
			return true
		})
	}
	return alist, dlist
}

// TestStackTreeMatchesNestedLoopProperty is the central correctness
// property: on random inputs the single-pass join produces exactly the
// nested-loop result, pairs and order both, for both axes.
func TestStackTreeMatchesNestedLoopProperty(t *testing.T) {
	prop := func(seed int64, pc bool) bool {
		rng := rand.New(rand.NewSource(seed))
		alist, dlist := randomForest(rng)
		axis := AncestorDescendant
		if pc {
			axis = ParentChild
		}
		got := StackTree(alist, dlist, axis, nil)
		want := NestedLoop(alist, dlist, axis)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStackTreeJoin(b *testing.B) {
	alist, dlist := benchLists()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StackTree(alist, dlist, AncestorDescendant, nil)
	}
}

func BenchmarkNestedLoopJoin(b *testing.B) {
	alist, dlist := benchLists()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NestedLoop(alist, dlist, AncestorDescendant)
	}
}

// benchLists builds a wide two-level document: 1000 articles with 3
// authors each — the shape of the DBLP join in the paper's experiments.
func benchLists() (arts, authors []xmltree.Interval) {
	root := xmltree.E("doc_root")
	for i := 0; i < 1000; i++ {
		root.Append(xmltree.E("article",
			xmltree.Elem("author", "a"),
			xmltree.Elem("author", "b"),
			xmltree.Elem("author", "c"),
		))
	}
	xmltree.Number(root, 1)
	return intervalsOf([]*xmltree.Node{root}, "article"),
		intervalsOf([]*xmltree.Node{root}, "author")
}

// TestStackTreeParMatchesSequentialProperty: the per-document parallel
// join must return exactly the sequential pairs, in the same order, and
// record the same metrics, for any worker count — compare element-wise
// (the parallel path returns an empty non-nil slice where the
// sequential returns nil).
func TestStackTreeParMatchesSequentialProperty(t *testing.T) {
	prop := func(seed int64, pc bool, workers uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alist, dlist := randomForest(rng)
		axis := AncestorDescendant
		if pc {
			axis = ParentChild
		}
		var wm, gm Metrics
		want := StackTree(alist, dlist, axis, &wm)
		got, err := StackTreePar(nil, alist, dlist, axis, int(workers%8)+1, &gm)
		if err != nil {
			return false
		}
		if wm.Joins.Load() != gm.Joins.Load() || wm.Ancestors.Load() != gm.Ancestors.Load() ||
			wm.Descendants.Load() != gm.Descendants.Load() || wm.Pairs.Load() != gm.Pairs.Load() {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestStackTreeParCancelled: an already-cancelled context must yield
// ctx.Err() and no pairs on both the single-worker fallback and the
// pooled path, and must record nothing into its metrics.
func TestStackTreeParCancelled(t *testing.T) {
	arts, authors := benchLists()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var m Metrics
	for _, workers := range []int{1, 4} {
		pairs, err := StackTreePar(ctx, arts, authors, AncestorDescendant, workers, &m)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		if pairs != nil {
			t.Fatalf("workers=%d: cancelled join returned %d pairs, want none", workers, len(pairs))
		}
	}
	if m.Joins.Load() != 0 || m.Pairs.Load() != 0 {
		t.Fatalf("cancelled join recorded metrics: joins=%d pairs=%d", m.Joins.Load(), m.Pairs.Load())
	}
}
