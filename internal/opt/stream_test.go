package opt

import (
	"testing"

	"timber/internal/plan"
	"timber/internal/xq"
)

// TestRewriteIntroducesSingleBreaker pins the streaming shape of the
// rewritten plan: the GROUPBY rewrite introduces exactly one pipeline
// breaker (the grouping sort) — every other operator of the rewritten
// tree lowers to a streaming iterator.
func TestRewriteIntroducesSingleBreaker(t *testing.T) {
	const src = `
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
	naive, err := plan.Translate(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	rewritten, applied, err := Rewrite(naive)
	if err != nil || !applied {
		t.Fatalf("rewrite: applied=%v err=%v", applied, err)
	}
	// Plans are DAGs (stitch parts share their grouped input), so each
	// operator is counted once.
	groupBys := 0
	seen := map[plan.Op]bool{}
	var walk func(plan.Op)
	walk = func(op plan.Op) {
		if op == nil || seen[op] {
			return
		}
		seen[op] = true
		switch op.(type) {
		case *plan.GroupBy:
			groupBys++
		case *plan.SortChildrenByPath:
			t.Errorf("rewritten plan has an ordering sort %s", op.Describe())
		}
		for _, in := range op.Inputs() {
			walk(in)
		}
	}
	walk(rewritten)
	if groupBys != 1 {
		t.Errorf("rewritten plan has %d GroupBy operators, want 1", groupBys)
	}
}
