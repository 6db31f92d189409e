package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/match"
	"timber/internal/obs"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

// TestMatcherByteIdenticalAcrossMatchers is the tentpole acceptance
// check at the engine level: the physical plan under every matcher, at
// parallelism 1 and 4, serializes byte-identically — the matcher
// changes access patterns, never answers. Covers both the grouping
// query (physical forced) and the non-grouping fallback.
func TestMatcherByteIdenticalAcrossMatchers(t *testing.T) {
	e := sampleEngine(t, Options{})
	ctx := context.Background()
	for _, src := range []string{query1, nonGrouping} {
		pq, err := e.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if pq.Pattern == nil {
			t.Fatal("prepared plan lost its pattern tree")
		}
		base, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical, Matcher: match.MatcherBinary, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if base.Matcher != match.MatcherBinary {
			t.Errorf("binary override ran %v", base.Matcher)
		}
		want := base.Serialize()
		for _, kind := range []match.MatcherKind{match.MatcherAuto, match.MatcherBinary, match.MatcherTwig} {
			for _, par := range []int{1, 4} {
				res, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical, Matcher: kind, Parallelism: par})
				if err != nil {
					t.Fatalf("matcher=%v p=%d: %v", kind, par, err)
				}
				if res.Serialize() != want {
					t.Errorf("matcher=%v p=%d: output differs from binary baseline", kind, par)
				}
				if kind != match.MatcherAuto && res.Matcher != kind {
					t.Errorf("requested matcher %v, result reports %v", kind, res.Matcher)
				}
			}
		}
	}
}

// TestAutoMatcherObserved: an auto physical execution records the
// planner's matcher pick — the planner_matcher_picks_total counter and
// a plan_decision journal event labeled "matcher:<name>" — while an
// explicit override records neither.
func TestAutoMatcherObserved(t *testing.T) {
	journal := obs.NewJournal(256)
	db, err := storage.CreateTemp(storage.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	e := New(db, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matcher == match.MatcherAuto {
		t.Error("auto execution did not resolve to a concrete matcher")
	}
	picks := e.Registry().CounterVec("planner_matcher_picks_total", "", "matcher")
	if got := picks.With(res.Matcher.String()).Load(); got != 1 {
		t.Errorf("planner_matcher_picks_total{%s} = %d, want 1", res.Matcher, got)
	}
	var matcherEvents int
	for _, ev := range journal.Events(obs.EventFilter{Types: []obs.EventType{obs.EvPlanDecision}}) {
		if strings.HasPrefix(ev.Label, "matcher:") {
			matcherEvents++
			if ev.Label != "matcher:"+res.Matcher.String() {
				t.Errorf("plan_decision label = %q, want matcher:%s", ev.Label, res.Matcher)
			}
			if ev.Count != 2 {
				t.Errorf("plan_decision candidates = %d, want 2", ev.Count)
			}
		}
	}
	if matcherEvents != 1 {
		t.Errorf("matcher plan_decision events = %d, want 1", matcherEvents)
	}

	// An override is the caller's choice, not a planner pick.
	if _, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical, Matcher: match.MatcherBinary}); err != nil {
		t.Fatal(err)
	}
	if got := picks.With(match.MatcherBinary.String()).Load() + picks.With(match.MatcherTwig.String()).Load(); got != 1 {
		t.Errorf("override incremented planner_matcher_picks_total (total %d, want 1)", got)
	}
}

// TestExplainReportsMatcher: EXPLAIN surfaces the planner's matcher
// choice — candidates cost-sorted, the chosen matcher cheapest, the
// join order over the pattern labels — in both the struct and the
// text rendering, and an override shows up as the matcher with no
// candidates.
func TestExplainReportsMatcher(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	x := pq.Explain(ExecOptions{})
	if x.Matcher != "binary" && x.Matcher != "twig" {
		t.Fatalf("Explain matcher = %q, want a concrete pick", x.Matcher)
	}
	if len(x.MatcherCandidates) != 2 {
		t.Fatalf("matcher candidates = %+v, want 2", x.MatcherCandidates)
	}
	if x.MatcherCandidates[0].Cost > x.MatcherCandidates[1].Cost {
		t.Errorf("matcher candidates not cost-sorted: %+v", x.MatcherCandidates)
	}
	if x.MatcherCandidates[0].Matcher != x.Matcher {
		t.Errorf("chose %q but cheapest matcher candidate is %q", x.Matcher, x.MatcherCandidates[0].Matcher)
	}
	if len(x.JoinOrder) == 0 {
		t.Error("Explain reports no join order")
	}
	txt := x.Text()
	if !strings.Contains(txt, "matcher: "+x.Matcher) || !strings.Contains(txt, "matcher candidates:") {
		t.Errorf("Text() missing matcher lines:\n%s", txt)
	}

	forced := pq.Explain(ExecOptions{Matcher: match.MatcherBinary})
	if forced.Matcher != "binary" {
		t.Errorf("override explain matcher = %q, want binary", forced.Matcher)
	}
	if len(forced.MatcherCandidates) != 0 {
		t.Errorf("override explain lists planner candidates: %+v", forced.MatcherCandidates)
	}
}

// TestMatcherPickNeverFarFromBest is the matcher sibling of
// TestMatcherPickNeverFarFromBest: on a bench-style fixture the
// planner-picked matcher must not run slower than 1.5x the best
// explicit matcher (interleaved min-of-5 wall times to damp scheduler
// noise, the pick read from the same measurement).
func TestMatcherPickNeverFarFromBest(t *testing.T) {
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
	auto, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical})
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved rounds (min of 5 per matcher): a burst of load from
	// elsewhere hits both matchers alike, not one matcher's whole sample.
	walls := map[match.MatcherKind]time.Duration{}
	for round := 0; round < 5; round++ {
		for _, kind := range []match.MatcherKind{match.MatcherBinary, match.MatcherTwig} {
			start := time.Now()
			if _, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical, Matcher: kind}); err != nil {
				t.Fatalf("Execute(matcher=%v): %v", kind, err)
			}
			if d := time.Since(start); round == 0 || d < walls[kind] {
				walls[kind] = d
			}
		}
	}
	bestWall := min(walls[match.MatcherBinary], walls[match.MatcherTwig])
	// The pick is judged by its wall from the same measurement; a
	// separate re-timing of it would compare two noisy samples.
	picked, ok := walls[auto.Matcher]
	if !ok {
		t.Fatalf("planner picked matcher %v, which is not an explicit matcher", auto.Matcher)
	}
	if float64(picked) > 1.5*float64(bestWall) {
		t.Errorf("planner picked matcher %v at %v; best runs in %v (> 1.5x; walls %v)",
			auto.Matcher, picked, bestWall, walls)
	}
}
