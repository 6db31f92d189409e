package exec

import (
	"fmt"
	"sort"
	"strings"

	"timber/internal/storage"
)

// Strategy names one of the physical evaluation plans. It lives on
// Spec — the strategy is part of the compiled query description — and
// Run dispatches on it, replacing the old per-variant exported
// functions.
type Strategy int

const (
	// StrategyAuto — the zero value — delegates the choice to the
	// cost-based planner: engine.Execute costs the candidate plans
	// against the database's cardinality statistics and runs the
	// cheapest, reporting what actually ran in Result.Strategy. Code
	// that calls exec.Run directly (below the engine, no planner) gets
	// the groupby plan, the paper's default.
	StrategyAuto Strategy = iota
	// StrategyGroupBy is the TIMBER groupby plan with identifier-only
	// processing and deferred value population (Sec. 5.3) — the plan
	// the optimizer's rewrite targets and the planner's fallback.
	StrategyGroupBy
	// StrategyDirect is the fully materialized direct execution of the
	// naive plan (Sec. 4.1 / Sec. 6 "direct").
	StrategyDirect
	// StrategyLogical evaluates the logical plan over fully loaded
	// documents — the reference semantics. It needs the plan itself,
	// not a Spec, so Run rejects it; the engine facade (or ExecLogical)
	// is the path that runs it.
	StrategyLogical
	// StrategyPhysical is the generic index-accelerated evaluation of
	// an arbitrary logical plan. Like StrategyLogical it needs the
	// plan, so Run rejects it; the engine facade (or ExecPhysical) runs
	// it.
	StrategyPhysical
	// StrategyGroupByMat is the materializing groupby executor the
	// streaming pipeline replaced — kept as the byte-equality reference
	// and the baseline of the streaming-memory experiment.
	StrategyGroupByMat
)

// strategyNames maps each Strategy to its canonical flag spelling.
var strategyNames = map[Strategy]string{
	StrategyAuto:       "auto",
	StrategyGroupBy:    "groupby",
	StrategyDirect:     "direct",
	StrategyLogical:    "logical",
	StrategyPhysical:   "physical",
	StrategyGroupByMat: "groupby-mat",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy maps a flag spelling to its Strategy — the inverse of
// String, used by the CLIs and the serve daemon.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("exec: unknown strategy %q (valid: %s)", name, strings.Join(StrategyNames(), ", "))
}

// StrategyNames returns every valid strategy spelling, sorted — the
// enumeration ParseStrategy's error reports and the CLIs document.
func StrategyNames() []string {
	names := make([]string, 0, len(strategyNames))
	for _, n := range strategyNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes a Spec with the strategy it names. It is the single
// public Spec-execution path: the per-strategy functions are package
// internals and the engine facade builds on Run. Plan-level strategies
// (logical, physical) need the logical plan rather than a Spec, so Run
// rejects them — the engine dispatches those to ExecLogical and
// ExecPhysical with its cached plans.
func Run(db storage.Reader, spec Spec, o Options) (*Result, error) {
	o, fold := o.foldSpans("exec: " + spec.Strategy.String())
	defer fold()
	// Pin one snapshot for the whole run: every operator of the query —
	// including exchange fragments on other goroutines — reads the same
	// committed epoch, so results are byte-identical to a quiesced run
	// even while documents are inserted or deleted concurrently.
	db, release := storage.Pin(db)
	defer release()
	switch spec.Strategy {
	case StrategyAuto, StrategyGroupBy:
		// Auto below the engine has no planner to consult; the groupby
		// plan is the documented fallback.
		return groupByExec(db, spec, o)
	case StrategyGroupByMat:
		return groupByMaterialized(db, spec, o)
	case StrategyDirect:
		return directMaterialized(db, spec, o)
	case StrategyLogical, StrategyPhysical:
		return nil, fmt.Errorf("exec: strategy %v evaluates a logical plan, not a Spec; use the engine facade (or ExecLogical/ExecPhysical)", spec.Strategy)
	default:
		return nil, fmt.Errorf("exec: unknown strategy %v", spec.Strategy)
	}
}
