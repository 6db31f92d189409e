package exec

import (
	"bytes"
	"testing"

	"timber/internal/obs"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// serializeAll renders result trees to one byte slice, so equality
// checks are byte-exact rather than structural.
func serializeAll(t *testing.T, trees []*xmltree.Node) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range trees {
		if err := xmltree.Serialize(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestTracingPreservesResults is the observability layer's core
// property: attaching a tracer must not change what any executor
// computes — byte-identical output at parallelism 1 and 4 — and the
// finished trace must satisfy the exactness invariant (span deltas
// telescope to the database's global counters).
func TestTracingPreservesResults(t *testing.T) {
	db := sampleDB(t)
	executors := []struct {
		name string
		fn   func(storage.Reader, Spec, Options) (*Result, error)
	}{
		{"groupby", groupByExec},
		{"direct-materialized", directMaterialized},
	}
	for _, src := range []string{query1Src, queryCountSrc} {
		_, _, spec := plansFor(t, src)
		for _, ex := range executors {
			for _, p := range []int{1, 4} {
				base, err := ex.fn(db, spec, Options{Parallelism: p})
				if err != nil {
					t.Fatalf("%s p=%d untraced: %v", ex.name, p, err)
				}
				want := serializeAll(t, base.Trees)

				db.ResetStats()
				tr := db.NewTracer("test")
				traced, err := ex.fn(db, spec, Options{Parallelism: p, Tracer: tr})
				if err != nil {
					t.Fatalf("%s p=%d traced: %v", ex.name, p, err)
				}
				got := serializeAll(t, traced.Trees)
				if !bytes.Equal(want, got) {
					t.Errorf("%s p=%d: traced output differs from untraced", ex.name, p)
				}
				if base.Stats != traced.Stats {
					t.Errorf("%s p=%d: stats differ: %+v vs %+v", ex.name, p, base.Stats, traced.Stats)
				}
				data := tr.Finish()
				if err := data.Verify(db.TraceCounters()); err != nil {
					t.Errorf("%s p=%d: exactness invariant: %v", ex.name, p, err)
				}
				if len(data.Children) == 0 {
					t.Errorf("%s p=%d: trace has no executor span", ex.name, p)
				}
			}
		}
	}
}

// TestTracingPreservesPhysicalEval covers the generic physical path:
// a traced ExecPhysical must match the untraced run byte for byte and
// produce a verifiable trace.
func TestTracingPreservesPhysicalEval(t *testing.T) {
	db := sampleDB(t)
	_, rewritten, _ := plansFor(t, query1Src)
	for _, p := range []int{1, 4} {
		base, err := ExecPhysical(db, rewritten, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		want := serializeAll(t, base.Trees)

		db.ResetStats()
		tr := db.NewTracer("physical")
		traced, err := ExecPhysical(db, rewritten, Options{Parallelism: p, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if got := serializeAll(t, traced.Trees); !bytes.Equal(want, got) {
			t.Errorf("p=%d: traced physical output differs from untraced", p)
		}
		data := tr.Finish()
		if err := data.Verify(db.TraceCounters()); err != nil {
			t.Errorf("p=%d: exactness invariant: %v", p, err)
		}
	}
}

// TestNilTracerOptionsAreInert pins the zero-cost-when-disabled
// contract at the Options level: a nil Tracer must produce nil spans
// everywhere.
func TestNilTracerOptionsAreInert(t *testing.T) {
	var o Options
	if sp := o.trace("anything"); sp != nil {
		t.Fatalf("nil-tracer options produced span %v", sp)
	}
	var tr *obs.Tracer
	if tr.Finish() != nil {
		t.Fatal("nil tracer finished to non-nil data")
	}
}
