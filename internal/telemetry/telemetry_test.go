package telemetry

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with one series of every kind,
// including multi-label and dotted names, in scrambled registration
// order — rendering must not care.
func goldenRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("txn.committed").Add(42)
	reg.Counter("txn.aborted").Add(7)
	reg.Gauge("poly.population").Set(3)
	reg.Gauge("site.inbox.depth", metrics.L("site", "B")).Set(2)
	reg.Gauge("site.inbox.depth", metrics.L("site", "A")).Set(5)
	h := reg.Histogram("item.blocked.seconds",
		metrics.L("site", "A"), metrics.L("cause", "lock"))
	for _, v := range []float64{0.25, 0.5, 1.0, 2.0} {
		h.Observe(v)
	}
	reg.Counter("odd-name.with chars", metrics.L("quote", `a"b\c`)).Add(1)
	return reg
}

func TestRenderOpenMetricsGolden(t *testing.T) {
	got := RenderOpenMetrics(goldenRegistry().Snapshot())
	const path = "testdata/openmetrics.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("OpenMetrics rendering drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRenderOpenMetricsDeterministic(t *testing.T) {
	a := RenderOpenMetrics(goldenRegistry().Snapshot())
	b := RenderOpenMetrics(goldenRegistry().Snapshot())
	if a != b {
		t.Error("two renderings of identical state differ")
	}
	if !strings.HasSuffix(a, "# EOF\n") {
		t.Error("missing # EOF terminator")
	}
}

// newTestServer builds a handler over a populated config.
func newTestConfig() (Config, *trace.SpanLog) {
	spans := trace.NewSpanLogFor("A", 128)
	root := spans.Record(trace.Span{Kind: trace.RootKind, TID: "t1", Site: "A",
		Start: 0, End: 100, Attrs: map[string]string{
			"status": "committed", "participants": "A,B"}})
	spans.Record(trace.Span{Kind: "phase.read", TID: "t1", Site: "A",
		Parent: root, Start: 0, End: 40})
	spans.Record(trace.Span{Kind: "part.compute", TID: "t1", Site: "B",
		Parent: root, Start: 45, End: 60})
	return Config{
		Registry: goldenRegistry(),
		Spans:    spans,
		Health:   func() any { return map[string]int{"suspects": 0} },
	}, spans
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestMetricsEndpoint(t *testing.T) {
	cfg, _ := newTestConfig()
	h := NewHandler(cfg)
	rec := get(t, h, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE txn_committed counter",
		"txn_committed_total 42",
		`site_inbox_depth{site="A"} 5`,
		`item_blocked_seconds{cause="lock",site="A",quantile="0.5"}`,
		"item_blocked_seconds_sum{",
		"# EOF",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

func TestHealthEndpoint(t *testing.T) {
	cfg, _ := newTestConfig()
	rec := get(t, NewHandler(cfg), "/healthz")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var h health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.SpanCount != 3 {
		t.Errorf("health = %+v", h)
	}
}

func TestTraceEndpoints(t *testing.T) {
	cfg, _ := newTestConfig()
	h := NewHandler(cfg)

	rec := get(t, h, "/trace?txn=t1")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var tl trace.Timeline
	if err := json.Unmarshal(rec.Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if tl.TID != "t1" || !tl.Complete || len(tl.Spans) != 3 {
		t.Errorf("timeline = %+v", tl)
	}

	if rec := get(t, h, "/trace?txn=nope"); rec.Code != 404 {
		t.Errorf("unknown txn: status %d", rec.Code)
	}
	if rec := get(t, h, "/trace"); rec.Code != 400 {
		t.Errorf("missing txn: status %d", rec.Code)
	}

	rec = get(t, h, "/trace/recent?n=2")
	var spans []trace.Span
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Kind != "part.compute" {
		t.Errorf("recent = %+v", spans)
	}
	if rec := get(t, h, "/trace/recent?n=bogus"); rec.Code != 400 {
		t.Errorf("bad n: status %d", rec.Code)
	}
}

func TestEmptyConfigServes(t *testing.T) {
	h := NewHandler(Config{})
	if rec := get(t, h, "/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "# EOF") {
		t.Errorf("/metrics on empty config: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/healthz"); rec.Code != 200 {
		t.Errorf("/healthz on empty config: %d", rec.Code)
	}
	if rec := get(t, h, "/trace?txn=x"); rec.Code != 404 {
		t.Errorf("/trace on empty config: %d", rec.Code)
	}
	if rec := get(t, h, "/trace/recent"); rec.Code != 200 {
		t.Errorf("/trace/recent on empty config: %d", rec.Code)
	}
}

func TestServeLifecycle(t *testing.T) {
	cfg, _ := newTestConfig()
	srv, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status %d", resp.StatusCode)
	}
	// pprof index must be wired.
	resp, err = http.Get("http://" + srv.Addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof status %d", resp.StatusCode)
	}
}
