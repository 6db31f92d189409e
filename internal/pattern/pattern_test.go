package pattern

import (
	"strings"
	"testing"
)

// fakeFields is a test double for a data node.
type fakeFields struct {
	tag     string
	content string
	attrs   map[string]string
}

func (f fakeFields) Tag() string     { return f.tag }
func (f fakeFields) Content() string { return f.content }
func (f fakeFields) Attr(name string) (string, bool) {
	v, ok := f.attrs[name]
	return v, ok
}

// figure1 builds the paper's Figure 1 pattern: $1 article with pc
// children $2 title (content ~ *Transaction*) and $3 author.
func figure1() *Tree {
	root := NewNode("$1", TagEq{Tag: "article"})
	root.AddChild(Child, NewNode("$2", TagEq{Tag: "title"}, ContentGlob{Pattern: "*Transaction*"}))
	root.AddChild(Child, NewNode("$3", TagEq{Tag: "author"}))
	return MustTree(root)
}

func TestTreeConstruction(t *testing.T) {
	pt := figure1()
	if pt.Size() != 3 {
		t.Errorf("Size = %d", pt.Size())
	}
	if got := pt.NodeByLabel("$2").TagConstraint(); got != "title" {
		t.Errorf("$2 tag constraint = %q", got)
	}
	if pt.NodeByLabel("$9") != nil {
		t.Error("bogus label should be nil")
	}
	labels := pt.Labels()
	if len(labels) != 3 || labels[0] != "$1" || labels[1] != "$2" || labels[2] != "$3" {
		t.Errorf("labels = %v", labels)
	}
	if pt.NodeByLabel("$2").Parent != pt.Root {
		t.Error("parent pointer not set")
	}
}

func TestNewTreeRejectsDuplicates(t *testing.T) {
	root := NewNode("$1")
	root.AddChild(Child, NewNode("$1"))
	if _, err := NewTree(root); err == nil {
		t.Error("duplicate labels should be rejected")
	}
	if _, err := NewTree(NewNode("")); err == nil {
		t.Error("empty label should be rejected")
	}
}

func TestMustTreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTree should panic on invalid tree")
		}
	}()
	root := NewNode("$1")
	root.AddChild(Child, NewNode("$1"))
	MustTree(root)
}

func TestNodeMatches(t *testing.T) {
	n := NewNode("$2", TagEq{Tag: "title"}, ContentGlob{Pattern: "*Transaction*"})
	if !n.NodeMatches(fakeFields{tag: "title", content: "Overview of Transaction Mng"}) {
		t.Error("matching node rejected")
	}
	if n.NodeMatches(fakeFields{tag: "title", content: "Principles of DBMS"}) {
		t.Error("non-matching content accepted")
	}
	if n.NodeMatches(fakeFields{tag: "author", content: "Transaction"}) {
		t.Error("wrong tag accepted")
	}
}

func TestPredicates(t *testing.T) {
	f := fakeFields{tag: "year", content: "1999", attrs: map[string]string{"id": "a1"}}
	cases := []struct {
		name string
		p    Predicate
		want bool
	}{
		{"tag eq hit", TagEq{Tag: "year"}, true},
		{"tag eq miss", TagEq{Tag: "month"}, false},
		{"content eq hit", ContentEq{Value: "1999"}, true},
		{"content eq miss", ContentEq{Value: "2000"}, false},
		{"glob exact", ContentGlob{Pattern: "1999"}, true},
		{"glob star", ContentGlob{Pattern: "19*"}, true},
		{"glob middle", ContentGlob{Pattern: "*99*"}, true},
		{"glob miss", ContentGlob{Pattern: "*2000*"}, false},
		{"cmp lt numeric", ContentCmp{Op: Lt, Value: "2000"}, true},
		{"cmp gt numeric", ContentCmp{Op: Gt, Value: "1990"}, true},
		{"cmp ge equal", ContentCmp{Op: Ge, Value: "1999"}, true},
		{"cmp le equal", ContentCmp{Op: Le, Value: "1999"}, true},
		{"cmp ne equal", ContentCmp{Op: Ne, Value: "1999"}, false},
		{"cmp numeric not lexicographic", ContentCmp{Op: Gt, Value: "234"}, true}, // 1999 > 234 numerically, "1999" < "234" lexically
		{"attr eq hit", AttrEq{Name: "id", Value: "a1"}, true},
		{"attr eq wrong value", AttrEq{Name: "id", Value: "a2"}, false},
		{"attr eq missing", AttrEq{Name: "nope", Value: "x"}, false},
		{"attr exists hit", AttrExists{Name: "id"}, true},
		{"attr exists miss", AttrExists{Name: "nope"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Matches(f); got != tc.want {
				t.Errorf("%s on %+v = %v, want %v", tc.p, f, got, tc.want)
			}
			if tc.p.String() == "" {
				t.Error("empty predicate String")
			}
		})
	}
}

// TestContentIn: the set predicate keeps its distinct members in
// first-appearance order, matches exactly them, and compares equal
// only to itself — the identity remaining() and PredsImply rely on.
func TestContentIn(t *testing.T) {
	in := NewContentIn([]string{"b", "a", "b", ""})
	if got := strings.Join(in.Values(), ","); got != "b,a," {
		t.Errorf("Values = %q, want b,a, (distinct, first appearance)", got)
	}
	for content, want := range map[string]bool{"a": true, "b": true, "": true, "c": false} {
		if got := in.Matches(fakeFields{content: content}); got != want {
			t.Errorf("Matches(%q) = %v, want %v", content, got, want)
		}
	}
	var p, q Predicate = in, in
	if p != q {
		t.Error("a ContentIn must equal itself")
	}
	if p == Predicate(NewContentIn([]string{"b", "a", ""})) {
		t.Error("ContentIn values from different constructions must differ")
	}
	if s := in.String(); s != "content in {3 values}" {
		t.Errorf("String = %s", s)
	}
}

func TestContentCmpLexicographic(t *testing.T) {
	f := fakeFields{content: "banana"}
	if !(ContentCmp{Op: Gt, Value: "apple"}).Matches(f) {
		t.Error("banana > apple lexicographically")
	}
	if (ContentCmp{Op: Lt, Value: "apple"}).Matches(f) {
		t.Error("banana < apple should be false")
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"a*b", "ab", true},
		{"a*b", "aXXb", true},
		{"a*b", "aXXbY", false},
		{"*x*y*", "wxvyz", true},
		{"*x*y*", "wyvxz", false},
		{"a**b", "ab", true},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"*abc", "xxabc", true},
		{"abc*", "abcxx", true},
		{"*aa*", "aa", true},
		{"a*a", "a", false}, // the two a's must not overlap
	}
	for _, tc := range cases {
		if got := globMatch(tc.pattern, tc.s); got != tc.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", tc.pattern, tc.s, got, tc.want)
		}
	}
}

func TestPredsImply(t *testing.T) {
	a := []Predicate{TagEq{Tag: "author"}, ContentEq{Value: "Jack"}}
	b := []Predicate{TagEq{Tag: "author"}}
	if !PredsImply(a, b) {
		t.Error("stronger conjunction should imply weaker")
	}
	if PredsImply(b, a) {
		t.Error("weaker conjunction must not imply stronger")
	}
	if !PredsImply(a, nil) {
		t.Error("anything implies the empty conjunction")
	}
}

func TestCloneIndependent(t *testing.T) {
	pt := figure1()
	cp := pt.Clone()
	if cp.String() != pt.String() {
		t.Errorf("clone differs:\n%s\n%s", cp, pt)
	}
	cp.NodeByLabel("$2").Preds = nil
	if len(pt.NodeByLabel("$2").Preds) != 2 {
		t.Error("mutating clone affected original")
	}
}

func TestString(t *testing.T) {
	s := figure1().String()
	for _, want := range []string{"$1 [tag=article]", "pc $2", `content~"*Transaction*"`, "pc $3 [tag=author]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// outerQ1 is the Figure 4.a outer pattern of Query 1: doc_root with an
// ad-descendant author.
func outerQ1() *Tree {
	root := NewNode("$1", TagEq{Tag: "doc_root"})
	root.AddChild(Descendant, NewNode("$2", TagEq{Tag: "author"}))
	return MustTree(root)
}

// innerQ1 is the right ("inner") part of the Figure 4.b join-plan
// pattern: doc_root with ad article with pc author.
func innerQ1() *Tree {
	root := NewNode("$4", TagEq{Tag: "doc_root"})
	art := root.AddChild(Descendant, NewNode("$5", TagEq{Tag: "article"}))
	art.AddChild(Child, NewNode("$6", TagEq{Tag: "author"}))
	return MustTree(root)
}

func TestSubsetQuery1(t *testing.T) {
	m, ok := Subset(outerQ1(), innerQ1())
	if !ok {
		t.Fatal("Query 1 outer pattern should be a subset of the inner pattern")
	}
	if m["$1"] != "$4" || m["$2"] != "$6" {
		t.Errorf("mapping = %v, want $1->$4 $2->$6", m)
	}
}

func TestSubsetAxisRules(t *testing.T) {
	// sub: a -pc-> b. super: a -ad-> b. pc is NOT satisfied by ad.
	subRoot := NewNode("s1", TagEq{Tag: "a"})
	subRoot.AddChild(Child, NewNode("s2", TagEq{Tag: "b"}))
	sub := MustTree(subRoot)

	superRoot := NewNode("t1", TagEq{Tag: "a"})
	superRoot.AddChild(Descendant, NewNode("t2", TagEq{Tag: "b"}))
	super := MustTree(superRoot)

	if _, ok := Subset(sub, super); ok {
		t.Error("pc requirement must not be satisfied by an ad edge (ad ⊄ pc)")
	}
	// The reverse direction is fine: ad requirement, pc edge.
	if _, ok := Subset(super, sub); !ok {
		t.Error("ad requirement should be satisfied by a pc edge (pc ⊆ ad)")
	}
}

func TestSubsetClosureEdge(t *testing.T) {
	// sub: a -ad-> c. super: a -pc-> b -pc-> c. The closure edge a->c
	// (derived, thus ad-marked) satisfies the ad requirement.
	subRoot := NewNode("s1", TagEq{Tag: "a"})
	subRoot.AddChild(Descendant, NewNode("s2", TagEq{Tag: "c"}))
	sub := MustTree(subRoot)

	superRoot := NewNode("t1", TagEq{Tag: "a"})
	b := superRoot.AddChild(Child, NewNode("t2", TagEq{Tag: "b"}))
	b.AddChild(Child, NewNode("t3", TagEq{Tag: "c"}))
	super := MustTree(superRoot)

	m, ok := Subset(sub, super)
	if !ok {
		t.Fatal("closure edge should satisfy ad requirement")
	}
	if m["s2"] != "t3" {
		t.Errorf("mapping = %v", m)
	}

	// But a pc requirement over the same two-step path must fail.
	subRoot2 := NewNode("s1", TagEq{Tag: "a"})
	subRoot2.AddChild(Child, NewNode("s2", TagEq{Tag: "c"}))
	if _, ok := Subset(MustTree(subRoot2), super); ok {
		t.Error("pc requirement must not be satisfied by a two-edge path")
	}
}

func TestSubsetPredicateStrength(t *testing.T) {
	// sub requires content="Jack"; super has no content predicate, so
	// super does not imply sub.
	subRoot := NewNode("s1", TagEq{Tag: "author"}, ContentEq{Value: "Jack"})
	sub := MustTree(subRoot)
	superRoot := NewNode("t1", TagEq{Tag: "author"})
	super := MustTree(superRoot)
	if _, ok := Subset(sub, super); ok {
		t.Error("weaker super node must not satisfy stronger sub node")
	}
	if _, ok := Subset(super, sub); !ok {
		t.Error("stronger super node satisfies weaker sub node")
	}
}

func TestSubsetInjective(t *testing.T) {
	// sub: root with two author children. super: root with ONE author.
	// The two sub authors cannot map to the same super node.
	subRoot := NewNode("s1", TagEq{Tag: "r"})
	subRoot.AddChild(Descendant, NewNode("s2", TagEq{Tag: "author"}))
	subRoot.AddChild(Descendant, NewNode("s3", TagEq{Tag: "author"}))
	sub := MustTree(subRoot)

	superRoot := NewNode("t1", TagEq{Tag: "r"})
	superRoot.AddChild(Descendant, NewNode("t2", TagEq{Tag: "author"}))
	super := MustTree(superRoot)

	if _, ok := Subset(sub, super); ok {
		t.Error("mapping must be injective")
	}
}

func TestSubsetBacktracking(t *testing.T) {
	// super: root with two children, first author (no content pred),
	// second author with content pred. sub needs the content pred, so a
	// greedy first assignment must backtrack.
	subRoot := NewNode("s1", TagEq{Tag: "r"})
	subRoot.AddChild(Descendant, NewNode("s2", TagEq{Tag: "author"}, ContentEq{Value: "J"}))
	sub := MustTree(subRoot)

	superRoot := NewNode("t1", TagEq{Tag: "r"})
	superRoot.AddChild(Descendant, NewNode("t2", TagEq{Tag: "author"}))
	superRoot.AddChild(Descendant, NewNode("t3", TagEq{Tag: "author"}, ContentEq{Value: "J"}))
	super := MustTree(superRoot)

	m, ok := Subset(sub, super)
	if !ok || m["s2"] != "t3" {
		t.Errorf("subset = %v, %v; want s2->t3", m, ok)
	}
}
