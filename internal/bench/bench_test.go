package bench

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/xmltree"
)

func TestBuildQuery(t *testing.T) {
	q, err := BuildQuery(Query1Text)
	if err != nil {
		t.Fatal(err)
	}
	if q.Spec.Mode != exec.Titles || q.Spec.MemberTag != "article" {
		t.Errorf("spec = %+v", q.Spec)
	}
	qc, err := BuildQuery(QueryCountText)
	if err != nil {
		t.Fatal(err)
	}
	if qc.Spec.Mode != exec.Count {
		t.Errorf("count spec = %+v", qc.Spec)
	}
	if _, err := BuildQuery("not a query"); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := BuildQuery(`FOR $a IN distinct-values(document("d")//x) RETURN <r>{$a}</r>`); err == nil {
		t.Error("non-grouping query should fail to build (no rewrite)")
	}
}

func TestRunExperimentAllStrategiesAgree(t *testing.T) {
	db, err := SetupDB(256)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 400, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{Query1Text, QueryCountText} {
		q, err := BuildQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := RunExperiment(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 2 {
			t.Fatalf("measurements = %d", len(ms))
		}
		// Every strategy reports the same number of groups.
		for _, m := range ms[1:] {
			if m.Groups != ms[0].Groups {
				t.Errorf("%s groups = %d, %s groups = %d", ms[0].Name, ms[0].Groups, m.Name, m.Groups)
			}
		}
		if ms[0].Groups == 0 {
			t.Error("no groups produced")
		}
		// Cold-cache runs must have performed physical reads.
		for _, m := range ms {
			if m.Pool.PhysicalReads == 0 {
				t.Errorf("%s: no physical reads on a cold cache", m.Name)
			}
		}
		// The identifier plan does strictly fewer value look-ups than
		// the naive materialized plan.
		byName := map[string]Measurement{}
		for _, m := range ms {
			byName[m.Name] = m
		}
		if byName[StratGroupBy].Exec.ValueLookups >= byName[StratDirectNaive].Exec.ValueLookups {
			t.Error("identifier plan should populate fewer values than the naive materialized plan")
		}
	}
}

func TestResultsMatchAcrossStrategies(t *testing.T) {
	db, err := SetupDB(256)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 150, Seed: 21}); err != nil {
		t.Fatal(err)
	}
	q, err := BuildQuery(Query1Text)
	if err != nil {
		t.Fatal(err)
	}
	// The plans order groups differently, so compare the sorted row
	// multiset.
	render := func(trees []*xmltree.Node) []string {
		var out []string
		for _, tr := range trees {
			var b strings.Builder
			for _, c := range tr.Children {
				b.WriteString(c.Tag + "=" + c.Content + ";")
			}
			out = append(out, b.String())
		}
		sort.Strings(out)
		return out
	}
	ref, err := exec.ExecLogical(db, q.Naive)
	if err != nil {
		t.Fatal(err)
	}
	want := render(ref.Trees)
	if len(want) == 0 {
		t.Fatal("logical reference produced no groups")
	}
	for _, strat := range []exec.Strategy{exec.StrategyDirect, exec.StrategyGroupBy} {
		spec := q.Spec
		spec.Strategy = strat
		res, err := exec.Run(db, spec, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := render(res.Trees); !reflect.DeepEqual(got, want) {
			t.Errorf("%v result differs from the logical reference", strat)
		}
	}
}

func TestTable(t *testing.T) {
	db, err := SetupDB(128)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 50, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	q, err := BuildQuery(Query1Text)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RunExperiment(db, q)
	if err != nil {
		t.Fatal(err)
	}
	s := Table(ms, StratDirectNaive)
	if !strings.Contains(s, StratGroupBy) || !strings.Contains(s, "1.00x") {
		t.Errorf("table:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 {
		t.Errorf("table rows = %d", len(lines))
	}
}

func TestMeasureColdCache(t *testing.T) {
	db, err := SetupDB(128)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 100, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	q, err := BuildQuery(Query1Text)
	if err != nil {
		t.Fatal(err)
	}
	// Warm everything.
	if _, err := exec.Run(db, q.Spec, exec.Options{}); err != nil {
		t.Fatal(err)
	}
	m, err := Measure(db, "x", func() (*exec.Result, error) { return exec.Run(db, q.Spec, exec.Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	if m.Pool.PhysicalReads == 0 {
		t.Error("Measure should start from a cold cache")
	}
	if m.Wall <= 0 {
		t.Error("no wall time recorded")
	}
}
