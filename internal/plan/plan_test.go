package plan

import (
	"reflect"
	"strings"
	"testing"

	"timber/internal/paperdata"
	"timber/internal/pattern"
	"timber/internal/tax"
	"timber/internal/xq"
)

// The paper's queries, used across this package and opt/exec tests.
const (
	Query1Src = `
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

	Query2Src = `
FOR $a IN distinct-values(document("bib.xml")//author)
LET $t := document("bib.xml")//article[author = $a]/title
RETURN
<authorpubs>
  {$a} {$t}
</authorpubs>`

	QueryCountSrc = `
FOR $a IN distinct-values(document("bib.xml")//author)
LET $t := document("bib.xml")//article[author = $a]/title
RETURN
<authorpubs>
  {$a} {count($t)}
</authorpubs>`
)

func sampleBase() tax.Collection {
	return tax.NewCollection(paperdata.SampleDatabase())
}

func translateSrc(t *testing.T, src string) Op {
	t.Helper()
	op, err := Translate(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// queryResult evaluates a plan over the Figure 6 sample database and
// flattens each authorpubs tree to "author: title, title" form.
func queryResult(t *testing.T, op Op) []string {
	t.Helper()
	out, err := Eval(sampleBase(), op)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, tr := range out.Trees {
		var sb strings.Builder
		if au := tr.Child("author"); au != nil {
			sb.WriteString(au.Content)
		}
		sb.WriteString(":")
		for _, c := range tr.Children {
			switch c.Tag {
			case "title":
				sb.WriteString(" " + c.Content)
			case "count":
				sb.WriteString(" #" + c.Content)
			}
		}
		rows = append(rows, sb.String())
	}
	return rows
}

// wantQuery1 is Query 1's result on the Figure 6 database: for each
// author (in first-occurrence order), that author's article titles in
// document order.
var wantQuery1 = []string{
	"Jack: Querying XML XML and the Web",
	"John: Querying XML Hack HTML",
	"Jill: XML and the Web",
}

func TestNaiveQuery1(t *testing.T) {
	op := translateSrc(t, Query1Src)
	if got := queryResult(t, op); !reflect.DeepEqual(got, wantQuery1) {
		t.Errorf("Query 1 = %v, want %v", got, wantQuery1)
	}
}

func TestNaiveQuery2EquivalentToQuery1(t *testing.T) {
	op1 := translateSrc(t, Query1Src)
	op2 := translateSrc(t, Query2Src)
	r1 := queryResult(t, op1)
	r2 := queryResult(t, op2)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("Query 1 and Query 2 disagree:\n q1 %v\n q2 %v", r1, r2)
	}
	if !reflect.DeepEqual(r1, wantQuery1) {
		t.Errorf("Query 2 = %v, want %v", r1, wantQuery1)
	}
}

func TestNaiveCountQuery(t *testing.T) {
	op := translateSrc(t, QueryCountSrc)
	want := []string{"Jack: #2", "John: #2", "Jill: #1"}
	if got := queryResult(t, op); !reflect.DeepEqual(got, want) {
		t.Errorf("count query = %v, want %v", got, want)
	}
}

func TestNaiveCountOfNestedFLWR(t *testing.T) {
	src := `
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
  {$a}
  {count(FOR $b IN document("bib.xml")//article WHERE $a = $b/author RETURN $b/title)}
</authorpubs>`
	op := translateSrc(t, src)
	want := []string{"Jack: #2", "John: #2", "Jill: #1"}
	if got := queryResult(t, op); !reflect.DeepEqual(got, want) {
		t.Errorf("count(FLWR) = %v, want %v", got, want)
	}
}

// TestFigure4NaivePatternTrees checks that the naive translation of
// Query 1 generates the pattern trees of Figure 4: the outer pattern
// (doc_root with descendant author), the join-plan's inner pattern
// (doc_root, article, author), and the inner projection pattern
// reaching the title.
func TestFigure4NaivePatternTrees(t *testing.T) {
	op := translateSrc(t, Query1Src)
	st, ok := op.(*Stitch)
	if !ok || st.Tag != "authorpubs" || len(st.Parts) != 2 {
		t.Fatalf("top = %T %v", op, op)
	}

	// Part 1: {$a} — Project(Select(outer)).
	proj, ok := st.Parts[0].Op.(*Project)
	if !ok {
		t.Fatalf("part 1 = %T", st.Parts[0].Op)
	}
	sel, ok := proj.In.(*Select)
	if !ok {
		t.Fatalf("part 1 input = %T", proj.In)
	}
	dup, ok := sel.In.(*DupElimContent)
	if !ok {
		t.Fatalf("{$a} should read the deduplicated outer result, got %T", sel.In)
	}
	outerProj := dup.In.(*Project)
	outerSel := outerProj.In.(*Select)
	if _, ok := outerSel.In.(*DBScan); !ok {
		t.Fatal("outer selection must scan the database")
	}
	// Figure 4.a: outer pattern doc_root -ad-> author (ad in the
	// selection; pc in the post-selection projection, per footnote 5).
	outerPat := outerSel.Pattern
	if outerPat.Root.TagConstraint() != DocRootTag {
		t.Errorf("outer root = %s", outerPat.Root.TagConstraint())
	}
	au := outerPat.Root.Children[0]
	if au.TagConstraint() != "author" || au.Axis != pattern.Descendant {
		t.Errorf("outer author node = %s axis %v", au.TagConstraint(), au.Axis)
	}
	if outerProj.Pattern.Root.Children[0].Axis != pattern.Child {
		t.Error("projection pattern should have pc edges (footnote 5)")
	}

	// Part 2: nested FLWR — ProjectPerTree(DedupChildren(Join)).
	ppt, ok := st.Parts[1].Op.(*ProjectPerTree)
	if !ok {
		t.Fatalf("part 2 = %T", st.Parts[1].Op)
	}
	dd, ok := ppt.In.(*DedupChildren)
	if !ok {
		t.Fatalf("part 2 input = %T", ppt.In)
	}
	join, ok := dd.In.(*LeftOuterJoin)
	if !ok {
		t.Fatalf("dedup input = %T", dd.In)
	}
	if _, ok := join.Right.(*DBScan); !ok {
		t.Error("join right side must be the database")
	}
	// Figure 4.b inner pattern: doc_root -ad-> article -pc-> author.
	rp := join.Spec.RightPattern
	if rp.Root.TagConstraint() != DocRootTag {
		t.Errorf("inner root = %s", rp.Root.TagConstraint())
	}
	art := rp.Root.Children[0]
	if art.TagConstraint() != "article" || art.Axis != pattern.Descendant {
		t.Errorf("inner article = %s axis %v", art.TagConstraint(), art.Axis)
	}
	auInner := art.Children[0]
	if auInner.TagConstraint() != "author" || auInner.Axis != pattern.Child {
		t.Errorf("inner author = %s axis %v", auInner.TagConstraint(), auInner.Axis)
	}
	if join.Spec.RightLabel != auInner.Label {
		t.Errorf("join value label = %s, want %s", join.Spec.RightLabel, auInner.Label)
	}
	// SL is the starred article.
	if len(join.Spec.SL) != 1 || !join.Spec.SL[0].Star || join.Spec.SL[0].Label != art.Label {
		t.Errorf("join SL = %v", join.Spec.SL)
	}
	// Figure 4.c: title projection pattern under the product root.
	if ppt.Pattern.Root.TagConstraint() != tax.ProdRootTag {
		t.Errorf("projection root = %s", ppt.Pattern.Root.TagConstraint())
	}
	titleNode := ppt.Pattern.Root.Children[0].Children[0]
	if titleNode.TagConstraint() != "title" {
		t.Errorf("projection leaf = %s", titleNode.TagConstraint())
	}
}

func TestTranslateInstitutionQuery(t *testing.T) {
	// The introduction's group-by-institution query: correlation path
	// author/institution, two steps deep.
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
	op := translateSrc(t, src)
	st := op.(*Stitch)
	join := st.Parts[1].Op.(*ProjectPerTree).In.(*DedupChildren).In.(*LeftOuterJoin)
	rp := join.Spec.RightPattern
	// doc_root -> article -> author -> institution.
	art := rp.Root.Children[0]
	au := art.Children[0]
	inst := au.Children[0]
	if au.TagConstraint() != "author" || inst.TagConstraint() != "institution" {
		t.Errorf("correlation chain = %s/%s", au.TagConstraint(), inst.TagConstraint())
	}
	if join.Spec.RightLabel != inst.Label {
		t.Errorf("join label = %s", join.Spec.RightLabel)
	}
	// (Institution data is exercised end-to-end in the examples; here
	// the plan shape is what matters.)
}

func TestTranslateWhereReversedOperands(t *testing.T) {
	src := `
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
  {$a}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $b/author = $a
    RETURN $b/title
  }
</authorpubs>`
	op := translateSrc(t, src)
	if got := queryResult(t, op); !reflect.DeepEqual(got, wantQuery1) {
		t.Errorf("reversed operands = %v", got)
	}
}

func TestTranslateWithoutDistinct(t *testing.T) {
	// Without distinct-values, every author occurrence produces a
	// result tree (Jack and John twice).
	src := `
FOR $a IN document("bib.xml")//author
RETURN
<authorpubs>
  {$a}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $a = $b/author
    RETURN $b/title
  }
</authorpubs>`
	op := translateSrc(t, src)
	got := queryResult(t, op)
	if len(got) != 5 {
		t.Errorf("without distinct: %d rows, want 5: %v", len(got), got)
	}
}

func TestOuterWhereFilter(t *testing.T) {
	src := `
FOR $a IN distinct-values(document("bib.xml")//author)
WHERE $a = "Jack"
RETURN
<authorpubs>
  {$a}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $a = $b/author
    RETURN $b/title
  }
</authorpubs>`
	op := translateSrc(t, src)
	want := []string{"Jack: Querying XML XML and the Web"}
	if got := queryResult(t, op); !reflect.DeepEqual(got, want) {
		t.Errorf("filtered query = %v, want %v", got, want)
	}
}

func TestOuterWhereReversedAndComparison(t *testing.T) {
	// Literal on the left, and a range operator.
	src := `
FOR $b IN document("bib.xml")//article
WHERE "2000" <= $b/year
RETURN
<late>
  {$b/title}
</late>`
	e, err := xq.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// This query has no correlated part; the translator handles the
	// outer filter but the RETURN part is a path on the outer var,
	// which the part translator does not support — so expect a clean
	// error rather than silent misbehaviour.
	if _, err := Translate(e); err == nil {
		t.Skip("path-typed RETURN parts became supported; extend this test")
	}

	// The supported form: filter the outer variable itself.
	src2 := `
FOR $a IN distinct-values(document("bib.xml")//author)
WHERE "Jill" <= $a
RETURN
<who>
  {$a}
</who>`
	op := translateSrc(t, src2)
	got := queryResult(t, op)
	// Jill and John pass the filter ("Jack" < "Jill").
	want := []string{"John:", "Jill:"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("range-filtered = %v, want %v", got, want)
	}
}

func TestTranslateErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"not flwr", `<a>{$x}</a>`},
		{"let first", `LET $t := document("d")//x RETURN <a>{$t}</a>`},
		{"outer where on two vars", `FOR $a IN document("d")//x WHERE $a = $a RETURN <a>{$a}</a>`},
		{"non-ctor return", `FOR $a IN document("d")//x RETURN $a`},
		{"unbound var", `FOR $a IN document("d")//x RETURN <a>{$z}</a>`},
		{"two fors", `FOR $a IN document("d")//x, $b IN document("d")//y RETURN <a>{$a}</a>`},
		{"nested without where", `FOR $a IN document("d")//x RETURN <a>{FOR $b IN document("d")//y RETURN $b/z}</a>`},
		{"nested bad return", `FOR $a IN document("d")//x RETURN <a>{FOR $b IN document("d")//y WHERE $a = $b/k RETURN <q>{$b}</q>}</a>`},
		{"count of string", `FOR $a IN document("d")//x RETURN <a>{count("zzz")}</a>`},
		{"var path source", `FOR $a IN $q//x RETURN <a>{$a}</a>`},
		{"doc without steps", `FOR $a IN document("d") RETURN <a>{$a}</a>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := xq.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse should succeed here: %v", err)
			}
			if _, err := Translate(e); err == nil {
				t.Errorf("Translate(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestFormatPlan(t *testing.T) {
	op := translateSrc(t, Query1Src)
	s := Format(op)
	for _, want := range []string{"Stitch <authorpubs>", "LeftOuterJoin", "DBScan", "DupElim", "tag=article"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q:\n%s", want, s)
		}
	}
}

func TestEvalUnknownOp(t *testing.T) {
	type bogus struct{ Op }
	if _, err := Eval(sampleBase(), bogus{}); err == nil {
		t.Error("unknown op should error")
	}
}

func TestProjectPerTreeBareRoot(t *testing.T) {
	// A tree with no witnesses yields a bare root, keeping alignment.
	c := tax.NewCollection(
		paperdata.SampleDatabase(),
	)
	pt := pattern.MustTree(func() *pattern.Node {
		r := pattern.NewNode("$1", pattern.TagEq{Tag: "doc_root"})
		r.AddChild(pattern.Descendant, pattern.NewNode("$2", pattern.TagEq{Tag: "nonexistent"}))
		return r
	}())
	out := evalProjectPerTree(c, pt, []tax.Item{tax.LS("$2")})
	if out.Len() != 1 {
		t.Fatalf("len = %d", out.Len())
	}
	if len(out.Trees[0].Children) != 0 || out.Trees[0].Tag != "doc_root" {
		t.Errorf("bare root = %s", out.Trees[0])
	}
}

// TestBreakersNaivePlan pins that the naive translated plan of Query 1
// has no pipeline breakers — no grouping or ordering sort; it is pure
// selection/projection/stitching. The breakers appear only after the
// GROUPBY rewrite.
func TestBreakersNaivePlan(t *testing.T) {
	naive, err := Translate(xq.MustParse(Query1Src))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Op]bool{}
	var walk func(Op)
	walk = func(op Op) {
		if op == nil || seen[op] {
			return
		}
		seen[op] = true
		switch op.(type) {
		case *GroupBy, *SortChildrenByPath:
			t.Errorf("naive plan has breaker %s", op.Describe())
		}
		for _, in := range op.Inputs() {
			walk(in)
		}
	}
	walk(naive)
}
