package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smoke runs a workload at tiny scale in-process. Failed ops other than
// wrong results are allowed only for the known buffer-pool defect on
// hosts with two or more CPUs (ErrPoolExhausted with a small sharded
// pool); they are logged.
func smoke(t *testing.T, workload string, trace, corrupt bool) map[string]any {
	t.Helper()
	out := t.TempDir()
	cfg := config{workload: workload, seed: 3, seconds: 0.6, trace: trace, articles: 300, setups: 1,
		dir: filepath.Join(out, "run"), outDir: out, corruptFirst: corrupt}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	for _, f := range rep.FailedOps {
		if !strings.Contains(f, "buffer pool exhausted") {
			continue
		}
		t.Logf("%s: known pool defect: %s", workload, f)
		rep.Failed--
	}
	raw, err := json.Marshal(rep.result())
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestWorkloadsPassOracles runs every workload traced and untraced at
// tiny scale: every op must pass its oracle, and the result must carry
// exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsPassOracles(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, w.name, trace, false)
			if res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%v failed=%v", w.name, trace, res["correct"], res["attempted"], res["failed"])
			}
			want := declared(t, "end_to_end")
			if trace {
				want = declared(t, "per_layer")
			}
			got := res["metrics"].(map[string]any)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(got), len(want))
			}
			for name, unit := range want {
				m, ok := got[name].(map[string]any)
				if !ok || m["unit"] != unit {
					t.Errorf("%s trace=%v: metric %s = %v, want unit %s", w.name, trace, name, got[name], unit)
				}
			}
		}
	}
}

// TestCorruptResultIsCaught damages one result per workload; the oracle
// must count it as a failed op and the run as incorrect.
func TestCorruptResultIsCaught(t *testing.T) {
	for _, w := range workloads {
		res := smoke(t, w.name, false, true)
		if res["correct"] != false || res["failed"].(float64) < 1 {
			t.Errorf("%s: corrupted result not caught: correct=%v failed=%v", w.name, res["correct"], res["failed"])
		}
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 40)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if q, x := tail(v); q != 75 || x != 30 {
		t.Errorf("tail of 1..40 = p%d %v, want p75 30", q, x)
	}
	if q, x := tail(v[:15]); q != 50 || x != 8 {
		t.Errorf("tail of 1..15 = p%d %v, want the median (p50 8)", q, x)
	}
}

// TestAnalyseNesting checks self times and the nesting rules.
func TestAnalyseNesting(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 3, Op: 1, Name: "c", StartNS: 50, EndNS: 60},
	}
	tr, err := analyse(spans)
	if err != nil {
		t.Fatal(err)
	}
	if tr.self[1] != 20 || tr.self[3] != 40 || tr.self[4] != 10 {
		t.Errorf("self times %v", tr.self)
	}
	spans[2].StartNS = 30 // overlaps a
	if _, err := analyse(spans); err == nil {
		t.Error("overlapping siblings accepted")
	}
	spans[2].StartNS, spans[3].EndNS = 40, 95 // c leaves b
	if _, err := analyse(spans); err == nil {
		t.Error("child outside its parent accepted")
	}
}
