package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// specStrategies are the physical grouping plans the planner chooses
// among plus the ones it can be overridden to.
var specStrategies = []exec.Strategy{
	exec.StrategyGroupBy, exec.StrategyGroupByMat, exec.StrategyDirect,
}

// TestAutoRunsPlannerChoice: ExecOptions{} hands the choice to the
// planner — the result reports a concrete Spec-level strategy, the
// answer matches the logical reference, and the planner_picks_total
// metric counts the decision. The sample database arrives via the
// offline bulk loader, so this also exercises the lazy ANALYZE on
// first use.
func TestAutoRunsPlannerChoice(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := pq.Execute(ctx, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var isSpec bool
	for _, s := range specStrategies {
		if res.Strategy == s {
			isSpec = true
		}
	}
	if !isSpec {
		t.Errorf("auto ran %v, want a Spec-level grouping strategy", res.Strategy)
	}
	logical, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyLogical})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(groupRows(res), groupRows(logical)) {
		t.Errorf("auto groups = %v, want %v", groupRows(res), groupRows(logical))
	}
	if got := e.Registry().CounterVec("planner_picks_total", "", "strategy").With(res.Strategy.String()).Load(); got < 1 {
		t.Errorf("planner_picks_total{%s} = %d, want >= 1", res.Strategy, got)
	}
	// The lazy build left fresh statistics behind.
	cat, err := e.DB().CardStats()
	if err != nil {
		t.Fatalf("CardStats after auto execution: %v", err)
	}
	if !cat.Fresh {
		t.Error("statistics still stale after the lazy ANALYZE")
	}
}

// TestAutoByteIdenticalAtBothParallelisms is the acceptance check:
// every strategy (auto included) is byte-identical across parallelism
// 1 and 4, and the auto run is byte-identical to an explicit run of
// the strategy it chose — the planner adds choice, never
// nondeterminism. (Byte-identity *across* plan families is not a
// goal: the direct plan emits groups in the paper's first-occurrence
// distinct-values order, groupby plans in sorted order.)
func TestAutoByteIdenticalAtBothParallelisms(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	auto1, err := pq.Execute(ctx, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	auto4, err := pq.Execute(ctx, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if auto1.Serialize() != auto4.Serialize() {
		t.Error("auto results differ between parallelism 1 and 4")
	}
	if auto1.Strategy != auto4.Strategy {
		t.Errorf("auto picked %v at p=1 but %v at p=4 on unchanged data", auto1.Strategy, auto4.Strategy)
	}
	for _, strat := range specStrategies {
		r1, err := pq.Execute(ctx, ExecOptions{Strategy: strat, Parallelism: 1})
		if err != nil {
			t.Fatalf("Execute(%v p=1): %v", strat, err)
		}
		r4, err := pq.Execute(ctx, ExecOptions{Strategy: strat, Parallelism: 4})
		if err != nil {
			t.Fatalf("Execute(%v p=4): %v", strat, err)
		}
		if r1.Serialize() != r4.Serialize() {
			t.Errorf("%v results differ between parallelism 1 and 4", strat)
		}
		if strat == auto1.Strategy && r1.Serialize() != auto1.Serialize() {
			t.Errorf("auto result differs from explicit %v run", strat)
		}
	}
}

// TestExplainEstimatesOnly: Explain without execution reports the
// chosen plan, cost-sorted candidates, and per-operator estimates with
// actuals unset.
func TestExplainEstimatesOnly(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	x := pq.Explain(ExecOptions{})
	if x.Executed {
		t.Error("Explain reported Executed without running")
	}
	if x.Requested != "auto" {
		t.Errorf("Requested = %q, want auto", x.Requested)
	}
	if !x.StatsUsed || !x.StatsFresh {
		t.Errorf("StatsUsed=%v StatsFresh=%v, want both true (lazy ANALYZE)", x.StatsUsed, x.StatsFresh)
	}
	if len(x.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2 (groupby/direct)", len(x.Candidates))
	}
	for i := 1; i < len(x.Candidates); i++ {
		if x.Candidates[i].Cost < x.Candidates[i-1].Cost {
			t.Errorf("candidates not cost-sorted: %v", x.Candidates)
		}
	}
	if x.Candidates[0].Strategy != x.Strategy {
		t.Errorf("chose %q but cheapest candidate is %q", x.Strategy, x.Candidates[0].Strategy)
	}
	if len(x.Operators) == 0 {
		t.Fatal("no operator estimates")
	}
	for _, op := range x.Operators {
		if op.ActualRows != -1 {
			t.Errorf("operator %q has actuals before execution", op.Op)
		}
	}
	if !strings.Contains(x.Text(), "strategy: ") {
		t.Errorf("Text() missing strategy line:\n%s", x.Text())
	}
}

// TestExplainExecuteJoinsActuals is the acceptance check on the E1
// workload (query1 is the paper's Query 1): after ExplainExecute,
// every estimated operator carries an actual row count from the trace.
func TestExplainExecuteJoinsActuals(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []exec.Strategy{
		exec.StrategyAuto, exec.StrategyGroupBy, exec.StrategyGroupByMat, exec.StrategyDirect,
	} {
		x, res, err := pq.ExplainExecute(context.Background(), ExecOptions{Strategy: strat})
		if err != nil {
			t.Fatalf("ExplainExecute(%v): %v", strat, err)
		}
		if !x.Executed {
			t.Fatalf("%v: Executed = false", strat)
		}
		if x.Strategy != res.Strategy.String() {
			t.Errorf("%v: report strategy %q != result strategy %q", strat, x.Strategy, res.Strategy)
		}
		if len(x.Operators) == 0 {
			t.Fatalf("%v: no operator estimates", strat)
		}
		for _, op := range x.Operators {
			if op.ActualRows < 0 {
				t.Errorf("%v: operator %q has no actual row count", strat, op.Op)
			}
		}
		if x.ActualGroups != int64(res.Stats.Groups) {
			t.Errorf("%v: ActualGroups = %d, want %d", strat, x.ActualGroups, res.Stats.Groups)
		}
		if x.EstGroups <= 0 {
			t.Errorf("%v: EstGroups = %v, want > 0", strat, x.EstGroups)
		}
		// Exact statistics on a tiny database: the group estimate should
		// land on the true count.
		if x.StatsFresh && x.EstGroups != float64(x.ActualGroups) {
			t.Errorf("%v: EstGroups = %v with fresh stats, actual %d", strat, x.EstGroups, x.ActualGroups)
		}
		// Renders both ways.
		txt := x.Text()
		if !strings.Contains(txt, "actual") {
			t.Errorf("%v: Text() missing actuals:\n%s", strat, txt)
		}
		raw, err := x.JSON()
		if err != nil {
			t.Fatalf("%v: JSON(): %v", strat, err)
		}
		var back map[string]any
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%v: JSON round-trip: %v", strat, err)
		}
		if back["executed"] != true {
			t.Errorf("%v: JSON executed = %v", strat, back["executed"])
		}
	}
}

// TestExplainNonGroupingQuery: queries outside the grouping family
// explain as the generic physical fallback, and ExplainExecute still
// runs them.
func TestExplainNonGroupingQuery(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(nonGrouping)
	if err != nil {
		t.Fatal(err)
	}
	x, res, err := pq.ExplainExecute(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if x.Strategy != "physical" {
		t.Errorf("strategy = %q, want physical", x.Strategy)
	}
	if x.Note == "" {
		t.Error("fallback explain should carry a note")
	}
	if x.ActualGroups != int64(len(res.Trees)) {
		t.Errorf("ActualGroups = %d, want %d trees", x.ActualGroups, len(res.Trees))
	}
}

// TestStatsCacheRevalidatesAfterIngest: the engine's statistics cache
// is epoch-keyed — an insert after the first auto execution must be
// visible to the next planning decision (incremental maintenance keeps
// the catalog fresh without a rescan).
func TestStatsCacheRevalidatesAfterIngest(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := pq.Execute(ctx, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	before := pq.Explain(ExecOptions{})

	doc, err := xmltree.ParseString("<article><title>Planner</title><author>Ada</author><author>Bob</author></article>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DB().InsertDocument("extra.xml", doc, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	after := pq.Explain(ExecOptions{})
	if !after.StatsFresh {
		t.Error("stats stale after incremental ingest (maintenance should keep them fresh)")
	}
	if after.EstGroups <= before.EstGroups {
		t.Errorf("EstGroups %v -> %v after adding two new authors, want an increase",
			before.EstGroups, after.EstGroups)
	}
	res, err := pq.Execute(ctx, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Stats.Groups) != int64(after.EstGroups) {
		t.Errorf("post-ingest groups = %d, fresh-stats estimate %v", res.Stats.Groups, after.EstGroups)
	}
}

// TestPlannerPickNeverFarFromBest is the planner-correctness gate: on
// a bench-style fixture the planner's pick must not be slower than
// 1.5x the best Spec-level strategy (interleaved min-of-5 wall times to
// damp scheduler noise, the pick read from the same measurement).
func TestPlannerPickNeverFarFromBest(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	e := New(db, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm the statistics and the buffer pool outside the clock.
	auto, err := pq.Execute(ctx, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The planner's candidates plus the groupby-mat reference, timed in
	// interleaved rounds (min of 5 per strategy): a burst of load from
	// elsewhere hits every strategy alike, not one strategy's whole
	// sample.
	walls := map[exec.Strategy]time.Duration{}
	for round := 0; round < 5; round++ {
		for _, strat := range []exec.Strategy{
			exec.StrategyGroupBy, exec.StrategyGroupByMat, exec.StrategyDirect,
		} {
			start := time.Now()
			if _, err := pq.Execute(ctx, ExecOptions{Strategy: strat}); err != nil {
				t.Fatalf("Execute(%v): %v", strat, err)
			}
			if d := time.Since(start); round == 0 || d < walls[strat] {
				walls[strat] = d
			}
		}
	}
	bestWall := time.Duration(1<<63 - 1)
	for _, w := range walls {
		bestWall = min(bestWall, w)
	}
	// The pick is judged by its wall from the same measurement; a
	// separate re-timing of it would compare two noisy samples.
	picked, ok := walls[auto.Strategy]
	if !ok {
		t.Fatalf("planner picked %v, which is not a costed strategy", auto.Strategy)
	}
	if float64(picked) > 1.5*float64(bestWall) {
		t.Errorf("planner picked %v at %v; best strategy runs in %v (> 1.5x; walls %v)",
			auto.Strategy, picked, bestWall, walls)
	}
}
