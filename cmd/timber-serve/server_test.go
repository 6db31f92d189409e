package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"timber/internal/engine"
	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/paperdata"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

const query1 = `
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

func testServer(t *testing.T, cfg config) *server {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	return newServer(engine.New(db, engine.Options{}), cfg)
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func decodeQueryResponse(t *testing.T, b []byte) queryResponse {
	t.Helper()
	var qr queryResponse
	if err := json.Unmarshal(b, &qr); err != nil {
		t.Fatalf("bad response %s: %v", b, err)
	}
	return qr
}

// TestQueryGolden: the success path returns the result trees exactly
// as timber-query serializes them, reports the strategy that ran, and
// flips cache_hit on the second request.
func TestQueryGolden(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// The reference bytes: what timber-query prints for this query.
	pq, err := s.eng.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pq.Execute(context.Background(), engine.ExecOptions{Strategy: exec.StrategyGroupBy})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, tr := range ref.Trees {
		if err := xmltree.Serialize(&want, tr); err != nil {
			t.Fatal(err)
		}
	}

	body, _ := json.Marshal(queryRequest{Query: query1, Strategy: "groupby"})
	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	qr := decodeQueryResponse(t, raw)
	if qr.Trees != want.String() {
		t.Errorf("served trees differ from timber-query serialization:\n%q\nwant:\n%q", qr.Trees, want.String())
	}
	if qr.Strategy != "groupby" || qr.Count != len(ref.Trees) {
		t.Errorf("response meta = %+v", qr)
	}

	// Second request: the prepared plan is reused.
	resp2, raw2 := postQuery(t, ts, string(body))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
	if qr2 := decodeQueryResponse(t, raw2); !qr2.CacheHit {
		t.Error("second request should report cache_hit")
	}

	// GET form agrees with POST.
	u := ts.URL + "/query?strategy=groupby&q=" + url.QueryEscape(query1)
	getResp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var getQR queryResponse
	if err := json.NewDecoder(getResp.Body).Decode(&getQR); err != nil {
		t.Fatal(err)
	}
	if getQR.Trees != qr.Trees {
		t.Error("GET and POST served different bytes")
	}
}

// TestQueryBadRequest: malformed queries, bad strategies/matchers and
// missing parameters are 400s, not 500s.
func TestQueryBadRequest(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	for name, body := range map[string]string{
		"malformed query":  `{"query": "this is not xquery"}`,
		"bad strategy":     fmt.Sprintf(`{"query": %q, "strategy": "turbo"}`, query1),
		"deleted strategy": fmt.Sprintf(`{"query": %q, "strategy": "replicating"}`, query1),
		"bad matcher":      fmt.Sprintf(`{"query": %q, "matcher": "psychic"}`, query1),
		"missing query":    `{}`,
		"bad json":         `{"query": `,
	} {
		resp, raw := postQuery(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %s", name, resp.StatusCode, raw)
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %s", name, raw)
		}
	}
	if got := s.badReqs.Load(); got != 6 {
		t.Errorf("bad-request counter = %d, want 6", got)
	}
}

// TestQueryMatcher: ?matcher= overrides the physical plan's pattern
// matcher, the response reports which matcher ran, and the served
// bytes are identical across matchers.
func TestQueryMatcher(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	get := func(params string) queryResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(query1) + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
		}
		return decodeQueryResponse(t, raw)
	}

	base := get("&strategy=physical&matcher=binary")
	if base.Matcher != "binary" {
		t.Errorf("matcher override: response reports %q, want binary", base.Matcher)
	}
	twig := get("&strategy=physical&matcher=twig")
	if twig.Matcher != "twig" {
		t.Errorf("matcher override: response reports %q, want twig", twig.Matcher)
	}
	if twig.Trees != base.Trees {
		t.Error("twig matcher served different bytes than binary")
	}
	auto := get("&strategy=physical")
	if auto.Matcher != "binary" && auto.Matcher != "twig" {
		t.Errorf("auto run reports matcher %q, want a concrete pick", auto.Matcher)
	}
	if auto.Trees != base.Trees {
		t.Error("auto matcher served different bytes than binary")
	}

	// Non-physical strategies never drive package match: no matcher.
	if grp := get("&strategy=groupby"); grp.Matcher != "" {
		t.Errorf("groupby response reports matcher %q, want none", grp.Matcher)
	}
}

// TestQueryTimeout: a request whose deadline expires mid-execution
// returns 504. The execute hook parks until the context dies, standing
// in for a long query deterministically.
func TestQueryTimeout(t *testing.T) {
	s := testServer(t, config{})
	s.execute = func(ctx context.Context, pq *engine.PreparedQuery, o engine.ExecOptions) (*engine.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	body, _ := json.Marshal(queryRequest{Query: query1, TimeoutMS: 20})
	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	if s.timeouts.Load() != 1 {
		t.Errorf("timeout counter = %d, want 1", s.timeouts.Load())
	}
}

// TestQueryBackpressure: with the admission limit saturated, the next
// request is rejected with 429 + Retry-After, and succeeds once the
// limit frees up.
func TestQueryBackpressure(t *testing.T) {
	s := testServer(t, config{maxInFlight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	realExec := s.execute
	s.execute = func(ctx context.Context, pq *engine.PreparedQuery, o engine.ExecOptions) (*engine.Result, error) {
		close(entered)
		<-release
		return realExec(ctx, pq, o)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: query1})
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postQuery(t, ts, string(body))
		firstDone <- resp.StatusCode
	}()
	<-entered // the first request holds the only admission slot

	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.rejected.Load() != 1 {
		t.Errorf("rejected counter = %d, want 1", s.rejected.Load())
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("first request status = %d", code)
	}
	// The slot is free again: a fresh request is admitted.
	s.execute = realExec
	resp3, raw3 := postQuery(t, ts, string(body))
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("post-drain status = %d, body %s", resp3.StatusCode, raw3)
	}
}

// TestConcurrentClients: 16 clients hammer /query concurrently (run
// under -race by make serve-check); every response is byte-identical
// to the solo reference for its strategy.
func TestConcurrentClients(t *testing.T) {
	s := testServer(t, config{maxInFlight: 32})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	strategies := []string{"groupby", "groupby-mat", "direct", "physical"}
	want := map[string]string{}
	for _, name := range strategies {
		body, _ := json.Marshal(queryRequest{Query: query1, Strategy: name})
		resp, raw := postQuery(t, ts, string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline %s: status %d body %s", name, resp.StatusCode, raw)
		}
		want[name] = decodeQueryResponse(t, raw).Trees
	}

	const clients, iters = 16, 3
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := strategies[(c+i)%len(strategies)]
				body, _ := json.Marshal(queryRequest{Query: query1, Strategy: name, Parallelism: 1 + c%4})
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
				if err != nil {
					errs <- err
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d iter %d (%s): status %d", c, i, name, resp.StatusCode)
					return
				}
				if qr.Trees != want[name] {
					errs <- fmt.Errorf("client %d iter %d (%s): bytes differ from solo reference", c, i, name)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStatsAndMetrics: the observability endpoints expose the plan
// cache and service counters.
func TestStatsAndMetrics(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: query1})
	for i := 0; i < 3; i++ {
		if resp, raw := postQuery(t, ts, string(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 2 {
		t.Errorf("plan cache stats = %+v, want 1 miss + 2 hits", st.Cache)
	}
	if st.Documents != 1 {
		t.Errorf("documents = %d", st.Documents)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"engine_plan_cache_hits 2", "engine_plan_cache_misses 1",
		"serve_requests 3", "serve_ok 3", "pool_fetches ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestTimeoutCapped: client-requested timeouts cannot exceed the
// configured maximum.
func TestTimeoutCapped(t *testing.T) {
	s := testServer(t, config{maxTimeout: 50 * time.Millisecond})
	s.execute = func(ctx context.Context, pq *engine.PreparedQuery, o engine.ExecOptions) (*engine.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	body, _ := json.Marshal(queryRequest{Query: query1, TimeoutMS: 60_000})
	start := time.Now()
	resp, _ := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cap not applied; request took %v", elapsed)
	}
}

// TestMethodNotAllowed: the read-only endpoints reject non-GET with
// 405 and an Allow header; /query allows GET and POST only.
func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	for _, tc := range []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/metrics", "GET, HEAD"},
		{http.MethodDelete, "/metrics", "GET, HEAD"},
		{http.MethodPost, "/stats", "GET, HEAD"},
		{http.MethodPut, "/query", "GET, POST"},
		{http.MethodDelete, "/query", "GET, POST"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q", tc.method, tc.path, ct)
		}
	}
}

// TestPrometheusExposition: /metrics serves a lint-clean Prometheus
// exposition with the right content type, at least one counter family,
// one gauge and one labeled histogram, and every response carries an
// X-Query-ID header.
func TestPrometheusExposition(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: query1})
	if resp, raw := postQuery(t, ts, string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ExpositionContentType)
	}
	if resp.Header.Get("X-Query-ID") == "" {
		t.Error("missing X-Query-ID header")
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sum, errs := obs.LintExposition(data)
	for _, e := range errs {
		t.Error(e)
	}
	if sum.Counters < 1 || sum.Gauges < 1 || sum.LabeledHistograms < 1 {
		t.Errorf("exposition coverage too thin: %v", sum)
	}
	for _, want := range []string{
		"# TYPE http_request_seconds histogram",
		`http_request_seconds_bucket{path="/query",le="+Inf"} 1`,
		"# TYPE engine_query_seconds histogram",
		`engine_strategy_total{strategy="groupby"} 1`,
		"# TYPE pool_hit_ratio gauge",
		"serve_in_flight ",
		"go_goroutines ",
		"exec_operator_seconds_bucket",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The terse rendering is still available for humans.
	tresp, err := http.Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	tdata, _ := io.ReadAll(tresp.Body)
	if ct := tresp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("text Content-Type = %q", ct)
	}
	if !strings.Contains(string(tdata), "serve_requests 1") {
		t.Errorf("text rendering missing serve_requests:\n%s", tdata)
	}
}

// TestSlowQueryLog: with -slowquery configured, a query at or above
// the threshold emits exactly one structured log line whose query ID
// matches both the X-Query-ID response header and the root span of the
// dumped trace; a fast query emits none.
func TestSlowQueryLog(t *testing.T) {
	var logBuf syncBuffer
	s := testServer(t, config{
		slowQuery: time.Nanosecond, // every query is "slow"
		logger:    slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: query1, Strategy: "groupby"})
	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	qid := resp.Header.Get("X-Query-ID")
	if qid == "" {
		t.Fatal("missing X-Query-ID")
	}

	var slow []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparsable log line %q: %v", line, err)
		}
		if rec["msg"] == "slow query" {
			slow = append(slow, rec)
		}
	}
	if len(slow) != 1 {
		t.Fatalf("got %d slow-query lines, want exactly 1\nlog:\n%s", len(slow), logBuf.String())
	}
	rec := slow[0]
	if rec["qid"] != qid {
		t.Errorf("slow-query qid = %v, header qid = %q", rec["qid"], qid)
	}
	trace, _ := rec["trace"].(string)
	var root struct {
		Name     string `json:"name"`
		Children []any  `json:"children"`
	}
	if err := json.Unmarshal([]byte(trace), &root); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, trace)
	}
	if root.Name != qid {
		t.Errorf("trace root = %q, want query ID %q", root.Name, qid)
	}
	if len(root.Children) == 0 {
		t.Error("trace has no operator spans")
	}
	if rec["strategy"] != "groupby" || rec["query"] == "" {
		t.Errorf("slow-query line missing fields: %v", rec)
	}

	// Below threshold: no line. Raise the bar and re-query.
	logBuf.Reset()
	s.cfg.slowQuery = time.Hour
	if resp2, raw2 := postQuery(t, ts, string(body)); resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp2.StatusCode, raw2)
	}
	if got := logBuf.String(); strings.Contains(got, "slow query") {
		t.Errorf("fast query logged as slow:\n%s", got)
	}
}

// syncBuffer is a mutex-guarded strings.Builder for concurrent slog
// handlers.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuffer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b.Reset()
}

// TestRequestLogAndGauges: the middleware logs every request with its
// query ID, and the in-flight gauge returns to zero when idle.
func TestRequestLogAndGauges(t *testing.T) {
	var logBuf syncBuffer
	s := testServer(t, config{logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: query1})
	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	qid := resp.Header.Get("X-Query-ID")

	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(logBuf.String())), &rec); err != nil {
		t.Fatalf("request log not one JSON line: %v\n%s", err, logBuf.String())
	}
	if rec["msg"] != "request" || rec["qid"] != qid || rec["path"] != "/query" || rec["status"] != float64(200) {
		t.Errorf("request log line = %v", rec)
	}
	if got := s.inFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge = %v after requests drained", got)
	}
	if got := s.draining.Value(); got != 0 {
		t.Errorf("draining gauge = %v before shutdown", got)
	}
	s.setDraining()
	if got := s.draining.Value(); got != 1 {
		t.Errorf("draining gauge = %v after setDraining", got)
	}
}

// TestQueryExplain: ?explain=1 (GET) and {"explain": true} (POST)
// attach the planner's report — plan choice, candidates, and operator
// estimates joined against the run's actuals — without changing the
// result bytes.
func TestQueryExplain(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: query1, Explain: true})
	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	qr := decodeQueryResponse(t, raw)
	if qr.Explain == nil {
		t.Fatal("explain=true returned no explain report")
	}
	if !qr.Explain.Executed {
		t.Error("explain report not marked executed")
	}
	if qr.Explain.Strategy != qr.Strategy {
		t.Errorf("explain strategy %q != response strategy %q", qr.Explain.Strategy, qr.Strategy)
	}
	if len(qr.Explain.Operators) == 0 {
		t.Error("explain report has no operator estimates")
	}
	for _, op := range qr.Explain.Operators {
		if op.ActualRows < 0 {
			t.Errorf("operator %q missing actual rows", op.Op)
		}
	}

	// Plain request: no report attached.
	plain, _ := json.Marshal(queryRequest{Query: query1})
	if _, raw := postQuery(t, ts, string(plain)); decodeQueryResponse(t, raw).Explain != nil {
		t.Error("explain report attached without being requested")
	}

	// GET form.
	u := ts.URL + "/query?explain=1&q=" + url.QueryEscape(query1)
	getResp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var getQR queryResponse
	if err := json.NewDecoder(getResp.Body).Decode(&getQR); err != nil {
		t.Fatal(err)
	}
	if getQR.Explain == nil || !getQR.Explain.Executed {
		t.Error("GET ?explain=1 returned no executed explain report")
	}
	if getQR.Trees != qr.Trees {
		t.Error("explain GET served different result bytes")
	}

	// Bad explain value is a 400.
	bad, err := http.Get(ts.URL + "/query?explain=sure&q=" + url.QueryEscape(query1))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad explain value: status = %d, want 400", bad.StatusCode)
	}
}
