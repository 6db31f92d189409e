package exec

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestParseStrategyRoundTrip: every Strategy's String() parses back to
// itself, and unknown spellings are rejected with a helpful message.
func TestParseStrategyRoundTrip(t *testing.T) {
	all := []Strategy{
		StrategyAuto, StrategyGroupBy, StrategyGroupByMat, StrategyDirect,
		StrategyLogical, StrategyPhysical,
	}
	for _, s := range all {
		got, err := ParseStrategy(s.String())
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("ParseStrategy(%q) = %v, want %v", s.String(), got, s)
		}
	}
	// The error must name the bad input and enumerate every valid
	// spelling.
	_, err := ParseStrategy("turbo")
	if err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Errorf("ParseStrategy(turbo) err = %v, want mention of the bad name", err)
	}
	for _, name := range StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseStrategy error %q does not list %q", err, name)
		}
	}
	if len(StrategyNames()) != len(all) {
		t.Errorf("StrategyNames() has %d entries, want %d", len(StrategyNames()), len(all))
	}
}

// TestParseStrategyOnlySec6Plans: the strategy set is the two plans
// Sec. 6 measures plus the references and plan-level evaluators; the
// nested-loops, batch-join and replicating ablations are not
// strategies, and asking for one names the valid spellings.
func TestParseStrategyOnlySec6Plans(t *testing.T) {
	want := []string{"auto", "direct", "groupby", "groupby-mat", "logical", "physical"}
	if got := StrategyNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("StrategyNames() = %v, want %v", got, want)
	}
	for _, name := range []string{"direct-nested", "direct-batch", "replicating"} {
		_, err := ParseStrategy(name)
		if err == nil {
			t.Errorf("ParseStrategy(%q) succeeded, want an error", name)
			continue
		}
		for _, valid := range want {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ParseStrategy(%q) error %q does not list %q", name, err, valid)
			}
		}
	}
}

// TestRunDispatchesEveryStrategy: Run on each Spec-level strategy
// produces the same row multiset as the logical reference, and the
// zero-value Strategy is the groupby plan.
func TestRunDispatchesEveryStrategy(t *testing.T) {
	db := sampleDB(t)
	naive, _, spec := plansFor(t, query1Src)
	ln, err := ExecLogical(db, naive)
	if err != nil {
		t.Fatal(err)
	}
	want := sorted(rows(ln.Trees))
	for _, strat := range []Strategy{
		StrategyGroupBy, StrategyGroupByMat, StrategyDirect,
	} {
		spec := spec
		spec.Strategy = strat
		res, err := Run(db, spec, Options{})
		if err != nil {
			t.Fatalf("Run(%v): %v", strat, err)
		}
		if got := sorted(rows(res.Trees)); !reflect.DeepEqual(got, want) {
			t.Errorf("Run(%v) = %v, want %v", strat, got, want)
		}
	}
	// The zero value is auto — "planner decides" through the engine,
	// groupby when Run is called below it.
	var zero Spec
	if zero.Strategy != StrategyAuto {
		t.Errorf("zero-value Strategy = %v, want StrategyAuto", zero.Strategy)
	}
	auto := spec
	auto.Strategy = StrategyAuto
	res, err := Run(db, auto, Options{})
	if err != nil {
		t.Fatalf("Run(auto): %v", err)
	}
	if got := sorted(rows(res.Trees)); !reflect.DeepEqual(got, want) {
		t.Errorf("Run(auto) = %v, want %v", got, want)
	}
}

// TestRunRejectsPlanLevelStrategies: logical and physical evaluate a
// plan, not a Spec, so Run must refuse them rather than misexecute.
func TestRunRejectsPlanLevelStrategies(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	for _, strat := range []Strategy{StrategyLogical, StrategyPhysical} {
		spec := spec
		spec.Strategy = strat
		if _, err := Run(db, spec, Options{}); err == nil {
			t.Errorf("Run(%v) succeeded, want an error", strat)
		}
	}
	spec.Strategy = Strategy(99)
	if _, err := Run(db, spec, Options{}); err == nil {
		t.Error("Run(unknown strategy) succeeded, want an error")
	}
}

// TestRunCancelledContext: every Spec-level strategy must notice an
// already-cancelled context and return ctx.Err() with no result, at
// parallelism 1 and 4 — the promptness half of the cancellation
// contract (the buffer-pool-integrity half is pinned by the engine
// tests' counter-exactness check).
func TestRunCancelledContext(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{
		StrategyGroupBy, StrategyGroupByMat, StrategyDirect,
	} {
		for _, p := range []int{1, 4} {
			spec := spec
			spec.Strategy = strat
			res, err := Run(db, spec, Options{Parallelism: p, Ctx: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Run(%v p=%d) err = %v, want context.Canceled", strat, p, err)
			}
			if res != nil {
				t.Errorf("Run(%v p=%d) returned a result after cancellation", strat, p)
			}
		}
	}
	// The generic physical path observes cancellation too.
	_, rewritten, _ := plansFor(t, query1Src)
	if _, err := ExecPhysical(db, rewritten, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecPhysical err = %v, want context.Canceled", err)
	}
}
