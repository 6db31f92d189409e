package main

import (
	"bytes"
	"context"
	"time"

	"timber/internal/engine"
	"timber/internal/exec"
	"timber/internal/match"
	"timber/internal/obs"
	"timber/internal/opt"
	"timber/internal/opt/planner"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xmltree"
	"timber/internal/xq"
)

// sample is one completed operation.
type sample struct {
	kind   string
	ms     float64
	err    string // non-empty: the op failed (error or oracle mismatch)
	wrong  bool   // the failure is a wrong result, not an error
	traced bool
	op     int  // span op ID when traced
	hit    bool // the plan came from the engine's plan cache
	text   string
	c      opCounters
}

// opCounters are the per-operation work counts. On a single-client
// workload they are exact: every one of them repeats for the same
// query text.
type opCounters struct {
	Fetches       uint64 `json:"fetches"`
	Hits          uint64 `json:"hits"`
	Reads         uint64 `json:"physical_reads"`
	Evictions     uint64 `json:"evictions"`
	NodeVisits    uint64 `json:"node_visits"`
	LeafScans     uint64 `json:"leaf_scans"`
	ValueLookups  int    `json:"value_lookups"`
	IndexPostings int    `json:"index_postings"`
	Postings      int    `json:"postings_scanned"`
	Interm        int    `json:"intermediate_bindings"`
	Results       int    `json:"results"`
	Bytes         int    `json:"bytes"`
}

// exactKey is the part of opCounters that must repeat exactly.
type exactKey struct {
	Fetches      uint64
	ValueLookups int
	Postings     int
}

func (c opCounters) exact() exactKey {
	return exactKey{Fetches: c.Fetches, ValueLookups: c.ValueLookups, Postings: c.Postings}
}

// query runs one query the way timber-serve serves it: PrepareCached,
// Execute with the planner's choice, Serialize. The latency covers
// exactly those three calls. When rec is non-nil the calls are spans
// under a root "op:<kind>" span, the executor's phase spans are
// imported under engine.execute, and the front-end layers are probed
// after the timed window.
func (b *bench) query(rec *recorder, kind, text string) (sample, *engine.Result, string) {
	s := sample{kind: kind, traced: rec != nil, text: text}
	if rec != nil {
		s.op = b.nextOp()
	}
	op := s.op
	root := rec.begin(op, 0, "op:"+kind)
	ps, is := b.db.Stats(), b.db.IndexMetrics()
	start := time.Now()
	sp := rec.begin(op, root, "engine.prepare")
	pq, hit, err := b.eng.PrepareCached(text)
	rec.end(sp, map[string]int64{"cache_hit": boolInt(hit)})
	var res *engine.Result
	var out string
	if err == nil {
		var tr *obs.Tracer
		if rec != nil {
			tr = obs.New("execute", b.db.TraceCounters)
		}
		sp = rec.begin(op, root, "engine.execute")
		res, err = pq.Execute(context.Background(), engine.ExecOptions{Tracer: tr})
		rec.end(sp, nil)
		rec.importTrace(op, sp, tr.Finish())
	}
	if err == nil {
		sp = rec.begin(op, root, "result.serialize")
		out = res.Serialize()
		rec.end(sp, map[string]int64{"bytes": int64(len(out))})
	}
	s.ms = msSince(start)
	pe, ie := b.db.Stats(), b.db.IndexMetrics()
	s.hit = hit
	if err != nil {
		rec.end(root, nil)
		s.err = err.Error()
		return s, nil, ""
	}
	s.c = opCounters{
		Fetches:       pe.Fetches - ps.Fetches,
		Hits:          pe.Hits - ps.Hits,
		Reads:         pe.PhysicalReads - ps.PhysicalReads,
		Evictions:     pe.Evictions - ps.Evictions,
		NodeVisits:    ie.NodeVisits - is.NodeVisits,
		LeafScans:     ie.LeafScans - is.LeafScans,
		ValueLookups:  res.Stats.ValueLookups,
		IndexPostings: res.Stats.IndexPostings,
		Results:       len(res.Trees),
		Bytes:         len(out),
	}
	b.probeFrontend(rec, op, root, pq)
	rec.end(root, nil)
	if res.Strategy == exec.StrategyPhysical && pq.Pattern != nil {
		// The matcher's own counters, as package match exports them:
		// re-run the pattern match the plan embedded, outside the op.
		_, ms, merr := match.MatchKindObs(context.Background(), b.db, pq.Pattern, res.Matcher, b.nproc, nil)
		if merr != nil {
			s.err = "match counters: " + merr.Error()
			return s, res, out
		}
		s.c.Postings, s.c.Interm = ms.PostingsScanned, ms.IntermediateBindings
	}
	return s, res, out
}

// probeFrontend times the compile layers one by one on the op's text —
// the work a plan-cache miss costs inside PrepareCached — by calling
// each layer's public entry point as the engine does.
func (b *bench) probeFrontend(rec *recorder, op, root int, pq *engine.PreparedQuery) {
	if rec == nil {
		return
	}
	fe := rec.begin(op, root, "frontend.probe")
	defer rec.end(fe, nil)
	sp := rec.begin(op, fe, "xq.parse")
	ast, err := xq.Parse(pq.Text)
	rec.end(sp, nil)
	if err != nil {
		return
	}
	sp = rec.begin(op, fe, "plan.translate")
	naive, err := plan.Translate(ast)
	rec.end(sp, nil)
	if err != nil {
		return
	}
	sp = rec.begin(op, fe, "opt.rewrite")
	_, _, err = opt.Rewrite(naive)
	rec.end(sp, nil)
	if err != nil {
		return
	}
	cat, err := b.db.CardStats()
	if err != nil {
		return
	}
	sp = rec.begin(op, fe, "planner.choose")
	if pq.Applied {
		planner.Choose(cat, pq.Spec)
	} else if pq.Pattern != nil {
		planner.ChooseMatcher(cat, pq.Pattern)
	}
	rec.end(sp, nil)
}

// insert runs one ingest request the way timber-serve's /ingest does:
// parse the XML body, then InsertDocument under the server's default
// flush policy (group commit).
func (b *bench) insert(rec *recorder, name string, body []byte) sample {
	s := sample{kind: "insert", traced: rec != nil, text: name}
	if rec != nil {
		s.op = b.nextOp()
	}
	op := s.op
	root := rec.begin(op, 0, "op:insert")
	defer rec.end(root, nil)
	start := time.Now()
	sp := rec.begin(op, root, "xml.parse")
	tree, err := xmltree.Parse(bytes.NewReader(body))
	rec.end(sp, nil)
	if err == nil {
		sp = rec.begin(op, root, "storage.insert")
		_, err = b.db.InsertDocument(name, tree, storage.SyncGroup)
		rec.end(sp, nil)
	}
	s.ms = msSince(start)
	if err != nil {
		s.err = err.Error()
	}
	s.c.Bytes = len(body)
	return s
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func boolInt(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
