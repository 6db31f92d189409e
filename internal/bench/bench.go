// Package bench is the experiment harness for the Sec. 6 reproduction:
// it builds the paper's query plans, runs each physical evaluation
// strategy against a database with cold buffer-pool state, and reports
// wall-clock times, buffer behaviour and data-access counts in aligned
// tables — the rows EXPERIMENTS.md records against the paper's numbers.
package bench

import (
	"fmt"
	"strings"
	"time"

	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/opt"
	"timber/internal/pagestore"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xq"
)

// Query1Text is the paper's Query 1 (Sec. 1): for each author, the
// titles of that author's articles.
const Query1Text = `
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

// QueryCountText is the Sec. 6 variant returning only the count of
// titles per author.
const QueryCountText = `
FOR $a IN distinct-values(document("bib.xml")//author)
LET $t := document("bib.xml")//article[author = $a]/title
RETURN
<authorpubs>
  {$a} {count($t)}
</authorpubs>`

// Query carries one query through every stage of the pipeline.
type Query struct {
	Text      string
	Naive     plan.Op
	Rewritten plan.Op
	Spec      exec.Spec
}

// BuildQuery parses, translates and rewrites a query text.
func BuildQuery(text string) (*Query, error) {
	ast, err := xq.Parse(text)
	if err != nil {
		return nil, err
	}
	naive, err := plan.Translate(ast)
	if err != nil {
		return nil, err
	}
	rewritten, applied, err := opt.Rewrite(naive)
	if err != nil {
		return nil, err
	}
	if !applied {
		return nil, fmt.Errorf("bench: rewrite did not apply")
	}
	spec, err := exec.SpecFromPlan(rewritten)
	if err != nil {
		return nil, err
	}
	return &Query{Text: text, Naive: naive, Rewritten: rewritten, Spec: spec}, nil
}

// Measurement is one timed plan execution.
type Measurement struct {
	Name   string
	Wall   time.Duration
	Pool   pagestore.Stats // counter delta for this run
	Exec   exec.ExecStats
	Groups int
	// Trace is the per-operator span tree when the run was traced
	// (MeasureObs / RunExperimentTraced); nil otherwise.
	Trace *obs.SpanData
}

// Measure runs fn against the database with a cold buffer pool and
// zeroed counters, so runs are comparable regardless of what executed
// before (the paper's runs likewise charge each plan its own I/O).
func Measure(db *storage.DB, name string, fn func() (*exec.Result, error)) (Measurement, error) {
	if err := db.DropCache(); err != nil {
		return Measurement{}, err
	}
	db.ResetStats()
	start := time.Now()
	res, err := fn()
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	return Measurement{
		Name:   name,
		Wall:   time.Since(start),
		Pool:   db.Stats(),
		Exec:   res.Stats,
		Groups: res.Stats.Groups,
	}, nil
}

// Strategy names used in the report tables.
const (
	StratDirectNaive = "direct (naive plan)"
	StratGroupBy     = "groupby (identifier)"
)

// strategies maps each report row to its exec.Strategy, in table
// order: the two plans Sec. 6 measures.
var strategies = []struct {
	name  string
	strat exec.Strategy
}{
	{StratDirectNaive, exec.StrategyDirect},
	{StratGroupBy, exec.StrategyGroupBy},
}

// RunExperiment executes every strategy for one query: the paper's two
// measured plans, StratDirectNaive (the naive algebra plan with
// materialized intermediates — the "direct execution of the XQuery as
// written") and StratGroupBy (the TIMBER groupby plan with identifier
// processing).
func RunExperiment(db *storage.DB, q *Query) ([]Measurement, error) {
	var out []Measurement
	for _, s := range strategies {
		spec := q.Spec
		spec.Strategy = s.strat
		m, err := Measure(db, s.name, func() (*exec.Result, error) {
			return exec.Run(db, spec, exec.Options{})
		})
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Table renders measurements as an aligned text table, with each row's
// wall time expressed as a speed-up relative to the named baseline row
// (1.00x for the baseline itself).
func Table(ms []Measurement, baseline string) string {
	var base time.Duration
	for _, m := range ms {
		if m.Name == baseline {
			base = m.Wall
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %8s %10s %10s %10s %12s %8s\n",
		"plan", "wall", "vs base", "fetches", "reads", "hit%", "valueLooks", "groups")
	for _, m := range ms {
		ratio := "-"
		if base > 0 && m.Wall > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(base)/float64(m.Wall))
		}
		fmt.Fprintf(&b, "%-24s %12s %8s %10d %10d %9.1f%% %12d %8d\n",
			m.Name, m.Wall.Round(time.Microsecond), ratio,
			m.Pool.Fetches, m.Pool.PhysicalReads, 100*m.Pool.HitRate(),
			m.Exec.ValueLookups, m.Groups)
	}
	return b.String()
}

// SetupDB creates a temporary database with the paper's storage
// configuration scaled by poolPages (default: the paper's 32 MB at
// 8 KB pages).
func SetupDB(poolPages int) (*storage.DB, error) {
	if poolPages == 0 {
		poolPages = 4096
	}
	return storage.CreateTemp(storage.Options{
		PageSize:  pagestore.DefaultPageSize,
		PoolPages: poolPages,
	})
}
