package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit. The two lists below are the
// ones BENCHMARK.json declares: an untraced run reports e2eMetrics, a
// traced run layerMetrics.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"a_p50_ms", "ms"}, {"a_tail_ms", "ms"},
	{"b_p50_ms", "ms"}, {"b_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"db_bytes_per_xml_byte", "ratio"},
}

var layerMetrics = []metricDef{
	{"xq.parse_us", "us"}, {"plan.translate_us", "us"}, {"opt.rewrite_us", "us"},
	{"planner.choose_us", "us"}, {"engine.prepare_miss_us", "us"}, {"engine.plan_cache_hit_ratio", "ratio"},
	{"exec.exchange_ms", "ms"}, {"exec.sort_ms", "ms"}, {"exec.materialize_ms", "ms"},
	{"exec.value_lookups", "count"}, {"exec.spill_results_ms", "ms"}, {"exec.spill_fetch_share", "ratio"},
	{"exec.index_postings", "count"},
	{"exec.physical_scan_ms", "ms"}, {"exec.physical_eval_ms", "ms"}, {"exec.witness_materialize_ms", "ms"},
	{"match.ms", "ms"}, {"match.postings_scanned", "count"}, {"match.intermediate_bindings", "count"},
	{"exec.rows_per_result", "ratio"},
	{"pagestore.fetches", "count"}, {"pagestore.hit_ratio", "ratio"}, {"pagestore.physical_reads", "count"},
	{"pagestore.evictions", "count"}, {"btree.node_visits", "count"}, {"btree.leaf_scans", "count"},
	{"storage.decode_ns_per_posting", "ns"},
	{"wal.fsync_ms", "ms"}, {"wal.fsyncs_per_commit", "ratio"}, {"wal.group_commit_riders", "ratio"},
	{"wal.bytes_per_xml_byte", "ratio"}, {"storage.txn_pages_per_doc", "count"}, {"storage.checkpoint_ms", "ms"},
	{"storage.checkpoints", "count"}, {"storage.reclaim_ratio", "ratio"}, {"storage.growth_bytes_per_xml_byte", "ratio"},
	{"result.serialize_ms", "ms"}, {"result.bytes", "B"},
	{"runtime.alloc_mb_per_op", "MB"}, {"runtime.gc_cycles_per_op", "count"},
	{"obs.trace_overhead_pct", "%"}, {"obs.attributed_pct", "%"},
}

// metric is one reported value with the facts needed to read it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

type dataInfo struct {
	Articles      int    `json:"articles"`
	Nodes         int    `json:"base_nodes"`
	XMLBytes      int    `json:"base_xml_bytes"`
	DBPages       int    `json:"base_db_pages"`
	PoolPages     int    `json:"pool_pages"`
	FlushPolicy   string `json:"flush_policy"`
	Clients       int    `json:"clients"`
	Parallelism   int    `json:"engine_parallelism"`
	BytesBefore   int64  `json:"db_bytes_before"`
	BytesAfter    int64  `json:"db_bytes_after"`
	NodesAfter    int    `json:"nodes_after"`
	DocsInserted  int    `json:"docs_inserted"`
	XMLBytesAdded int    `json:"xml_bytes_inserted"`
}

// opReport is one operation type's figures.
type opReport struct {
	Latency  latency            `json:"latency"`
	Traced   latency            `json:"traced_latency"`
	Counters opCounters         `json:"median_counters"`
	SpansMS  map[string]float64 `json:"median_span_ms,omitempty"`
	SelfMS   map[string]float64 `json:"median_self_ms,omitempty"`
	OpRows   map[string]int64   `json:"op_rows,omitempty"`
	// SeriesMS is every op's latency in the order run (failed ops as
	// failedMS), for looking at drift within the window.
	SeriesMS []float64 `json:"series_ms"`
}

type report struct {
	Workload  string              `json:"workload"`
	Why       string              `json:"why"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	WindowS   float64             `json:"window_s"`
	Traced    bool                `json:"traced"`
	Host      hostInfo            `json:"host"`
	Data      dataInfo            `json:"data"`
	SetupS    []float64           `json:"setup_s"`
	Ops       map[string]opReport `json:"ops"`
	Metrics   []metric            `json:"metrics"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Correct   bool                `json:"correct"`
	Errors    []string            `json:"errors,omitempty"`
	FailedOps []string            `json:"failed_ops,omitempty"`

	w          workload
	before     snap
	after      snap
	decodeNS   float64
	peakRSS    float64
	contract   map[string]metric
	outDir     string
	traceSpans []Span
}

func newReport(cfg config, w workload, nproc int, su *setupOut, c *corpus, window time.Duration, before, after snap, nodes int) *report {
	clients := 1
	if w.name == "ingest-mixed" {
		clients = 2
	}
	return &report{
		Workload: w.name, Why: w.why, Seed: cfg.seed, Seconds: cfg.seconds, WindowS: window.Seconds(), Traced: cfg.trace,
		Host: hostInfo{NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH},
		Data: dataInfo{Articles: c.articles, Nodes: c.stats.Nodes, XMLBytes: len(c.xml), DBPages: su.pages, PoolPages: su.pool,
			FlushPolicy: "group", Clients: clients, Parallelism: nproc,
			BytesBefore: before.dbBytes, BytesAfter: after.dbBytes, NodesAfter: nodes},
		SetupS: su.secs, Ops: map[string]opReport{}, w: w, before: before, after: after,
		contract: map[string]metric{}, outDir: cfg.outDir,
	}
}

// fill computes every metric from the run's samples and spans, runs the
// counter-exactness and span-nesting checks, and writes the report,
// trace and counter files.
func (r *report) fill(b *bench) error {
	byKind := map[string][]sample{}
	var measured []sample
	for _, s := range b.samples {
		byKind[s.kind] = append(byKind[s.kind], s)
		if s.kind != "recovery" {
			measured = append(measured, s)
		}
		r.Attempted++
		if s.err != "" {
			r.Failed++
			if len(r.FailedOps) < 20 {
				r.FailedOps = append(r.FailedOps, s.kind+": "+s.err)
			}
		}
	}
	for _, d := range b.docs {
		if d.acked {
			r.Data.DocsInserted++
			r.Data.XMLBytesAdded += len(d.body)
		}
	}

	var tree *traceTree
	if b.rec != nil {
		r.traceSpans = b.rec.spans
		t, err := analyse(b.rec.spans)
		if err != nil {
			r.Errors = append(r.Errors, err.Error())
		}
		tree = t
	}
	for kind, ss := range byKind {
		if kind != "recovery" {
			r.Ops[kind] = opSummary(ss, tree)
		}
	}

	r.e2e(byKind, measured)
	if b.rec != nil {
		r.layers(b, byKind, tree)
	}
	r.checkExact(b)
	wrong := false
	for _, s := range b.samples {
		wrong = wrong || s.wrong
	}
	r.Correct = !wrong && len(r.Errors) == 0
	return r.write()
}

func (r *report) add(m metric) {
	r.Metrics = append(r.Metrics, m)
	r.contract[m.Name] = m
}

func latNote(l latency) string {
	return fmt.Sprintf("n=%d failed=%d tail=p%d", l.N, l.Failed, l.TailPct)
}

// untraced returns the samples whose latency counts: all of them in an
// untraced run, the untraced half in a traced run.
func untraced(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if !s.traced {
			out = append(out, s)
		}
	}
	return out
}

func (r *report) e2e(byKind map[string][]sample, measured []sample) {
	r.add(metric{"setup_s", medianOf(r.SetupS), "s", fmt.Sprintf("median of %d set-ups: load %d-article corpus, analyse, reopen", len(r.SetupS), r.Data.Articles)})
	of := func(kinds []string) (latency, string) {
		var ss []sample
		for _, k := range kinds {
			ss = append(ss, byKind[k]...)
		}
		return summarise(untraced(ss)), strings.Join(kinds, "+")
	}
	la, na := of(r.w.a)
	lb, nb := of(r.w.b)
	r.add(metric{"a_p50_ms", la.P50, "ms", na + " " + latNote(la)})
	r.add(metric{"a_tail_ms", la.Tail, "ms", na + " " + latNote(la)})
	r.add(metric{"b_p50_ms", lb.P50, "ms", nb + " " + latNote(lb)})
	r.add(metric{"b_tail_ms", lb.Tail, "ms", nb + " " + latNote(lb)})
	ok := 0
	queries, inserts := 0, 0
	for _, s := range measured {
		if s.err != "" {
			continue
		}
		ok++
		if s.kind == "insert" {
			inserts++
		} else {
			queries++
		}
	}
	r.add(metric{"ops_per_s", float64(ok) / r.WindowS, "1/s", fmt.Sprintf("%d completed ops in %.1f s, %d clients", ok, r.WindowS, r.Data.Clients)})
	r.add(metric{"peak_rss_mb", r.peakRSS, "MB", "VmHWM of the process through set-up and window"})
	// Bytes stored per byte of the data the workload stores: the bulk
	// loaded corpus, or on a writing workload the documents it inserted
	// (the growth over the window, checkpointed).
	if r.Data.DocsInserted > 0 {
		grown := r.after.dbBytes - r.before.dbBytes
		r.add(metric{"db_bytes_per_xml_byte", float64(grown) / float64(r.Data.XMLBytesAdded), "ratio",
			fmt.Sprintf("%d bytes of growth for %d inserted XML bytes", grown, r.Data.XMLBytesAdded)})
	} else {
		r.add(metric{"db_bytes_per_xml_byte", float64(r.after.dbBytes) / float64(r.Data.XMLBytes), "ratio",
			fmt.Sprintf("%d DB bytes for %d XML bytes", r.after.dbBytes, r.Data.XMLBytes)})
	}

	// The same figures under their operation names, for reading.
	alias := func(name string, kind string) {
		l := summarise(untraced(byKind[kind]))
		r.Metrics = append(r.Metrics,
			metric{name + "_p50_ms", l.P50, "ms", kind + " " + latNote(l)},
			metric{name + "_tail_ms", l.Tail, "ms", kind + " " + latNote(l)})
	}
	switch r.w.name {
	case "sec6-groupby":
		alias("e1_titles", "titles")
		alias("e2_count", "count")
	case "author-lookup":
		r.Metrics = append(r.Metrics,
			metric{"lookup_p50_ms", la.P50, "ms", na + " " + latNote(la)},
			metric{"lookup_tail_ms", la.Tail, "ms", na + " " + latNote(la)})
	case "ingest-mixed":
		alias("insert", "insert")
		alias("e2_count", "count")
	}
	r.Metrics = append(r.Metrics,
		metric{"queries_per_s", float64(queries) / r.WindowS, "1/s", ""},
		metric{"inserts_per_s", float64(inserts) / r.WindowS, "1/s", ""},
		metric{"failed_ops_frac", ratio(float64(r.Failed), float64(r.Attempted)), "ratio", fmt.Sprintf("%d of %d attempted", r.Failed, r.Attempted)},
		metric{"db_growth_bytes", float64(r.after.dbBytes - r.before.dbBytes), "B",
			fmt.Sprintf("%d documents, %d XML bytes inserted during the window", r.Data.DocsInserted, r.Data.XMLBytesAdded)})
}

// opSummary condenses one operation type.
func opSummary(ss []sample, tree *traceTree) opReport {
	o := opReport{Latency: summarise(untraced(ss))}
	var traced []sample
	for _, s := range ss {
		if s.traced {
			traced = append(traced, s)
		}
	}
	o.Traced = summarise(traced)
	o.Counters = medianCounters(ss)
	for _, s := range ss {
		ms := s.ms
		if s.err != "" {
			ms = failedMS
		}
		o.SeriesMS = append(o.SeriesMS, ms)
	}
	if tree == nil {
		return o
	}
	dur, self := map[string][]float64{}, map[string][]float64{}
	o.OpRows = map[string]int64{}
	for _, s := range traced {
		l := tree.layersOf(s.op)
		for name := range l.seen {
			if strings.HasPrefix(name, "op: ") {
				continue // report spans: their times are not the operator's
			}
			dur[name] = append(dur[name], float64(l.durNS[name])/1e6)
			self[name] = append(self[name], float64(l.selfNS[name])/1e6)
		}
		for k, v := range l.counts {
			if strings.HasPrefix(k, "op: ") && (strings.HasSuffix(k, "#rows_in") || strings.HasSuffix(k, "#rows_out")) {
				o.OpRows[k] += v
			}
		}
	}
	for k := range o.OpRows {
		o.OpRows[k] /= int64(max(len(traced), 1))
	}
	o.SpansMS, o.SelfMS = map[string]float64{}, map[string]float64{}
	for name, v := range dur {
		o.SpansMS[name] = medianOf(v)
		o.SelfMS[name] = medianOf(self[name])
	}
	return o
}

func medianCounters(ss []sample) opCounters {
	var c opCounters
	med := func(get func(opCounters) float64) float64 {
		var v []float64
		for _, s := range ss {
			if s.err == "" {
				v = append(v, get(s.c))
			}
		}
		return medianOf(v)
	}
	c.Fetches = uint64(med(func(c opCounters) float64 { return float64(c.Fetches) }))
	c.Hits = uint64(med(func(c opCounters) float64 { return float64(c.Hits) }))
	c.Reads = uint64(med(func(c opCounters) float64 { return float64(c.Reads) }))
	c.Evictions = uint64(med(func(c opCounters) float64 { return float64(c.Evictions) }))
	c.NodeVisits = uint64(med(func(c opCounters) float64 { return float64(c.NodeVisits) }))
	c.LeafScans = uint64(med(func(c opCounters) float64 { return float64(c.LeafScans) }))
	c.ValueLookups = int(med(func(c opCounters) float64 { return float64(c.ValueLookups) }))
	c.IndexPostings = int(med(func(c opCounters) float64 { return float64(c.IndexPostings) }))
	c.Postings = int(med(func(c opCounters) float64 { return float64(c.Postings) }))
	c.Interm = int(med(func(c opCounters) float64 { return float64(c.Interm) }))
	c.Results = int(med(func(c opCounters) float64 { return float64(c.Results) }))
	c.Bytes = int(med(func(c opCounters) float64 { return float64(c.Bytes) }))
	return c
}

// layers computes the per-layer metrics of a traced run. Per-operation
// figures describe the workload's read operation (workload.read); the
// write-path figures describe the measured window.
func (r *report) layers(b *bench, byKind map[string][]sample, tree *traceTree) {
	k := r.w.read
	ops := byKind[k]
	o := r.Ops[k]
	note := fmt.Sprintf("per %s op, median of %d traced", k, o.Traced.N)
	span := func(name string) float64 { return o.SpansMS[name] }
	us := func(name string) float64 { return o.SpansMS[name] * 1000 }

	r.add(metric{"xq.parse_us", us("xq.parse"), "us", note})
	r.add(metric{"plan.translate_us", us("plan.translate"), "us", note})
	r.add(metric{"opt.rewrite_us", us("opt.rewrite"), "us", note})
	r.add(metric{"planner.choose_us", us("planner.choose"), "us", note})
	var miss []float64
	hits, queries := 0, 0
	for _, s := range b.samples {
		if s.kind == "insert" || s.kind == "recovery" {
			continue
		}
		queries++
		if s.hit {
			hits++
		} else if s.traced && tree != nil {
			miss = append(miss, float64(tree.layersOf(s.op).durNS["engine.prepare"])/1e3)
		}
	}
	r.add(metric{"engine.prepare_miss_us", medianOf(miss), "us", fmt.Sprintf("median of %d traced plan-cache misses (0: none)", len(miss))})
	r.add(metric{"engine.plan_cache_hit_ratio", ratio(float64(hits), float64(queries)), "ratio", fmt.Sprintf("%d of %d queries", hits, queries)})

	r.add(metric{"exec.exchange_ms", span("exchange: match fragments"), "ms", note})
	r.add(metric{"exec.sort_ms", span("sort: witnesses"), "ms", note})
	r.add(metric{"exec.materialize_ms", span("materialize: groups"), "ms", note})
	r.add(metric{"exec.value_lookups", float64(o.Counters.ValueLookups), "count", "per " + k + " op (exact)"})
	r.add(metric{"exec.spill_results_ms", span("spill: result trees"), "ms", note})
	var spillF, allF float64
	var rows, results float64
	if tree != nil {
		for _, s := range ops {
			if !s.traced || s.err != "" {
				continue
			}
			l := tree.layersOf(s.op)
			spillF += float64(l.counts["spill: result trees#fetches"])
			allF += float64(s.c.Fetches)
			scanned := 0
			if l.seen["scan: full database"] {
				scanned = r.Data.NodesAfter
			}
			if l.seen["match: pattern"] {
				rows += float64(s.c.Postings + scanned + int(l.counts["materialize: witnesses#witnesses"]))
				results += float64(s.c.Results)
			}
		}
	}
	r.add(metric{"exec.spill_fetch_share", ratio(spillF, allF), "ratio", fmt.Sprintf("%.0f of %.0f fetches in the result spill", spillF, allF)})
	r.add(metric{"exec.index_postings", float64(o.Counters.IndexPostings), "count", "per " + k + " op (exact)"})
	r.add(metric{"exec.physical_scan_ms", span("scan: full database"), "ms", note})
	r.add(metric{"exec.physical_eval_ms", span("eval: logical operators"), "ms", note})
	r.add(metric{"exec.witness_materialize_ms", span("materialize: witnesses"), "ms", note})
	r.add(metric{"match.ms", span("match: pattern"), "ms", note})
	r.add(metric{"match.postings_scanned", float64(o.Counters.Postings), "count", "per " + k + " op (exact)"})
	r.add(metric{"match.intermediate_bindings", float64(o.Counters.Interm), "count", "per " + k + " op"})
	r.add(metric{"exec.rows_per_result", ratio(rows, results), "ratio", "postings scanned + witnesses + nodes of the full scan, per result tree"})

	c := o.Counters
	r.add(metric{"pagestore.fetches", float64(c.Fetches), "count", "per " + k + " op (exact on one client)"})
	var h, f float64
	for _, s := range ops {
		h += float64(s.c.Hits)
		f += float64(s.c.Fetches)
	}
	r.add(metric{"pagestore.hit_ratio", ratio(h, f), "ratio", "over all " + k + " ops"})
	r.add(metric{"pagestore.physical_reads", float64(c.Reads), "count", "per " + k + " op"})
	r.add(metric{"pagestore.evictions", float64(c.Evictions), "count", "per " + k + " op"})
	r.add(metric{"btree.node_visits", float64(c.NodeVisits), "count", "per " + k + " op"})
	r.add(metric{"btree.leaf_scans", float64(c.LeafScans), "count", "per " + k + " op"})
	r.add(metric{"storage.decode_ns_per_posting", r.decodeNS, "ns", "TagPostings(author) on a cold pool, median of 3"})

	bw, aw := r.before.wal, r.after.wal
	bi, ai := r.before.ingest, r.after.ingest
	commits := float64(aw.Commits - bw.Commits)
	var fs, ck []float64
	for _, v := range b.fsyncNS {
		fs = append(fs, float64(v)/1e6)
	}
	for _, v := range b.ckptNS {
		ck = append(ck, float64(v)/1e6)
	}
	added := float64(r.Data.XMLBytesAdded)
	docs := float64(ai.DocumentsInserted - bi.DocumentsInserted)
	r.add(metric{"wal.fsync_ms", medianOf(fs), "ms", fmt.Sprintf("median of %d journaled fsyncs", len(fs))})
	r.add(metric{"wal.fsyncs_per_commit", ratio(float64(aw.Fsyncs-bw.Fsyncs), commits), "ratio", fmt.Sprintf("%.0f commits", commits)})
	r.add(metric{"wal.group_commit_riders", ratio(float64(aw.SyncWaits-bw.SyncWaits), commits), "ratio", "commits whose sync rode another fsync, per commit"})
	r.add(metric{"wal.bytes_per_xml_byte", ratio(float64(aw.AppendedBytes-bw.AppendedBytes), added), "ratio", fmt.Sprintf("%.0f XML bytes inserted", added)})
	r.add(metric{"storage.txn_pages_per_doc", ratio(float64(ai.TxnPages-bi.TxnPages), docs), "count", fmt.Sprintf("%.0f documents", docs)})
	r.add(metric{"storage.checkpoint_ms", medianOf(ck), "ms", fmt.Sprintf("median of %d journaled checkpoints", len(ck))})
	r.add(metric{"storage.checkpoints", float64(ai.Checkpoints - bi.Checkpoints), "count", "in the window"})
	r.add(metric{"storage.reclaim_ratio", ratio(float64(ai.PagesReclaimed-bi.PagesReclaimed), float64(ai.PagesRetired-bi.PagesRetired)), "ratio", "pages reclaimed per page retired"})
	r.add(metric{"storage.growth_bytes_per_xml_byte", ratio(float64(r.after.dbBytes-r.before.dbBytes), added), "ratio", ""})

	r.add(metric{"result.serialize_ms", span("result.serialize"), "ms", note})
	r.add(metric{"result.bytes", float64(c.Bytes), "B", "per " + k + " op"})
	n := float64(0)
	for _, ss := range byKind {
		for _, s := range ss {
			if s.kind != "recovery" {
				n++
			}
		}
	}
	r.add(metric{"runtime.alloc_mb_per_op", ratio(float64(r.after.alloc-r.before.alloc)/(1<<20), n), "MB", fmt.Sprintf("%.0f ops", n)})
	r.add(metric{"runtime.gc_cycles_per_op", ratio(float64(r.after.gcs-r.before.gcs), n), "count", fmt.Sprintf("%.0f ops", n)})

	r.add(metric{"obs.trace_overhead_pct", 100 * ratio(o.Traced.P50-o.Latency.P50, o.Latency.P50), "%",
		fmt.Sprintf("%s: traced p50 %.2f ms vs untraced %.2f ms", k, o.Traced.P50, o.Latency.P50)})
	// Leaf spans are the phases the breakdown names; their summed time
	// against the untraced median says how much of the latency the
	// breakdown accounts for.
	var attributed []float64
	if tree != nil {
		for _, s := range ops {
			if s.traced && s.err == "" {
				attributed = append(attributed, tree.leafMS(s.op))
			}
		}
	}
	r.add(metric{"obs.attributed_pct", 100 * ratio(medianOf(attributed), o.Latency.P50), "%",
		"leaf spans inside the timed window, against the untraced p50"})
	for kind, op := range r.Ops {
		if kind != k && op.Traced.N > 0 {
			r.Metrics = append(r.Metrics, metric{"obs.trace_overhead_pct." + kind,
				100 * ratio(op.Traced.P50-op.Latency.P50, op.Latency.P50), "%", ""})
		}
	}
}

// leafMS sums the durations of the leaf spans of one op that lie inside
// its timed window (the front-end probe runs after it).
func (t *traceTree) leafMS(op int) float64 {
	inProbe := map[int]bool{}
	var ns int64
	for _, s := range t.spans {
		if s.Op != op {
			continue
		}
		if s.Name == "frontend.probe" || inProbe[s.Parent] {
			inProbe[s.ID] = true
			continue
		}
		if s.Parent != 0 && len(t.children[s.ID]) == 0 && !strings.HasPrefix(s.Name, "op: ") {
			ns += s.Dur()
		}
	}
	return float64(ns) / 1e6
}

// checkExact enforces counter exactness on the single-client
// workloads: the same query text must cost the same pool fetches,
// value look-ups and postings every time, within this run and against
// the last run with the same workload, seed and corpus size.
func (r *report) checkExact(b *bench) {
	if r.w.name == "ingest-mixed" {
		return
	}
	type rec struct {
		Kind  string   `json:"kind"`
		Text  string   `json:"text"`
		Exact exactKey `json:"exact"`
	}
	var seq []rec
	seen := map[string]exactKey{}
	for _, s := range b.samples {
		if s.err != "" {
			continue
		}
		k := s.c.exact()
		if prev, ok := seen[s.text]; ok && prev != k {
			r.Errors = append(r.Errors, fmt.Sprintf("counter exactness: %s op repeated with %+v, earlier %+v", s.kind, k, prev))
			return
		}
		seen[s.text] = k
		seq = append(seq, rec{s.kind, s.text, k})
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("counters-%s-%d-%d-%s.json", r.Workload, r.Data.Articles, r.Seed, buildID()))
	if raw, err := os.ReadFile(path); err == nil {
		var prev []rec
		if err := json.Unmarshal(raw, &prev); err == nil {
			for i := 0; i < len(prev) && i < len(seq); i++ {
				if prev[i] != seq[i] {
					r.Errors = append(r.Errors, fmt.Sprintf("counter exactness: op %d (%s) cost %+v, an earlier run with this seed %+v", i, seq[i].Kind, seq[i].Exact, prev[i].Exact))
					return
				}
			}
			if len(prev) > len(seq) {
				return // keep the longer baseline
			}
		}
	}
	if raw, err := json.Marshal(seq); err == nil {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			r.Errors = append(r.Errors, "counter baseline: "+err.Error())
		}
	}
}

// buildID fingerprints the running binary, so counter baselines are
// only compared between runs of the same program and benchmark code.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:6])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// write saves the full report (and the spans of a traced run).
func (r *report) write() error {
	base := fmt.Sprintf("%s-%d-trace%d", r.Workload, r.Seed, boolInt(r.Traced))
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.outDir, "report-"+base+".json"), raw, 0o644); err != nil {
		return err
	}
	if r.Traced {
		return writeTrace(filepath.Join(r.outDir, "trace-"+base+".json"), r.traceSpans)
	}
	return nil
}

// print writes the human-readable report: the run's facts, then every
// metric with its unit and sample note.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%.0f window=%.2fs traced=%v\n", r.Workload, r.Seed, r.Seconds, r.WindowS, r.Traced)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s\n", r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Platform)
	d := r.Data
	fmt.Fprintf(w, "data: %d articles, %d nodes, %d XML bytes -> %d DB pages; pool %d pages; flush=%s; clients=%d; parallelism=%d\n",
		d.Articles, d.Nodes, d.XMLBytes, d.DBPages, d.PoolPages, d.FlushPolicy, d.Clients, d.Parallelism)
	if d.DocsInserted > 0 {
		fmt.Fprintf(w, "growth: %d documents (%d XML bytes) inserted; DB %d -> %d bytes, %d nodes\n",
			d.DocsInserted, d.XMLBytesAdded, d.BytesBefore, d.BytesAfter, d.NodesAfter)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "error:", e)
	}
	for _, e := range r.FailedOps {
		fmt.Fprintln(w, "failed op:", e)
	}
}

// result is the final JSON line: the declared metrics only.
func (r *report) result() map[string]any {
	defs := e2eMetrics
	if r.Traced {
		defs = layerMetrics
	}
	ms := map[string]any{}
	for _, d := range defs {
		m := r.contract[d.name]
		ms[d.name] = map[string]any{"value": m.Value, "unit": d.unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}
