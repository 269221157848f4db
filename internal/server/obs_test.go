package server_test

// Observability tests: the Prometheus exposition served at /metrics, the
// middleware chain (panic recovery, request-ID propagation into log
// lines), the health endpoint's build identity, and the deprecation alias
// for the old JSON metrics path. Run with -race: the concurrent-scrape
// test hammers WriteText while runs execute.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vc2m/client"
	"vc2m/internal/obs"
	"vc2m/internal/server"
)

// syncBuffer is a goroutine-safe log sink for handler-concurrency tests.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// startObsHTTP is startHTTP with a captured logger and the debug routes
// enabled.
func startObsHTTP(t *testing.T, cfg server.Config) (*server.Server, *client.Client, string, *syncBuffer) {
	t.Helper()
	logBuf := &syncBuffer{}
	logCfg := &obs.LogConfig{Level: "debug"}
	lg, err := logCfg.Build(logBuf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logger = lg
	cfg.DebugRoutes = true
	s := server.New(cfg)
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, client.New(hs.URL, &http.Client{Timeout: 2 * time.Minute}), hs.URL, logBuf
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestPromExposition(t *testing.T) {
	// Execute one simulated run, then scrape: the exposition must parse
	// under the strict validator and carry the run/decision/stage series.
	_, c, url, _ := startObsHTTP(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	sub, err := c.Submit(ctx, submitReq(3, 200))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != server.StateDone {
		t.Fatalf("wait: %v %+v", err, st)
	}

	resp, body := get(t, url+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("content type %q, want %q", ct, obs.PromContentType)
	}
	fams, err := obs.ValidateExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	byName := map[string]*obs.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"vc2m_runs_total", "vc2m_decisions_total", "vc2m_stage_latency_seconds",
		"vc2m_queue_depth", "vc2m_workers_in_flight", "vc2m_worker_pool_size",
		"vc2m_draining", "vc2m_uptime_seconds", "vc2m_build_info",
		"vc2m_http_requests_total", "vc2m_http_request_seconds", "vc2m_http_in_flight_requests",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	// The finished run counted as done and produced per-stage latency
	// observations for the allocator pipeline and the simulator. found
	// matches on the full sample name, so histogram _count series are
	// addressable within their family.
	found := func(family, sample, label, value string, minVal float64) {
		t.Helper()
		f, ok := byName[family]
		if !ok {
			t.Errorf("family %s absent", family)
			return
		}
		for _, smp := range f.Samples {
			if smp.Name == sample && smp.Labels[label] == value && smp.Value >= minVal {
				return
			}
		}
		t.Errorf("%s{%s=%q} >= %v not found", sample, label, value, minVal)
	}
	found("vc2m_runs_total", "vc2m_runs_total", "state", string(server.StateDone), 1)
	found("vc2m_decisions_total", "vc2m_decisions_total", "stage", "vmlevel", 1)
	// Stages certain to execute on a schedulable flattening run with
	// simulation must have real observations...
	for _, stage := range []string{
		obs.StageRun, obs.StageVMLevel, obs.StageHyper, obs.StagePhase1, obs.StageHypersim,
	} {
		found("vc2m_stage_latency_seconds", "vc2m_stage_latency_seconds_count", "stage", stage, 1)
	}
	// ...and every known stage has a preregistered series, so dashboards
	// see the full schema from scrape one.
	for _, stage := range obs.KnownStages() {
		found("vc2m_stage_latency_seconds", "vc2m_stage_latency_seconds_count", "stage", stage, 0)
	}
}

func TestMetricsJSONMoveAndDeprecationAlias(t *testing.T) {
	_, _, url, _ := startObsHTTP(t, server.Config{})

	// Canonical JSON surface.
	resp, body := get(t, url+"/api/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"queue_cap"`) {
		t.Fatalf("GET /api/metrics: %d %s", resp.StatusCode, body)
	}

	// The retired ?format=json alias no longer switches the old path to
	// JSON: it serves the Prometheus text exposition like plain /metrics.
	resp, body = get(t, url+"/metrics?format=json")
	if resp.StatusCode != http.StatusOK || strings.Contains(body, `"queue_cap"`) ||
		!strings.Contains(body, "# TYPE vc2m_runs_total") {
		t.Fatalf("GET /metrics?format=json: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("GET /metrics?format=json Content-Type %q, want %q", ct, obs.PromContentType)
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Error("retired alias still sends a Deprecation header")
	}
}

func TestHealthCarriesBuildInfo(t *testing.T) {
	_, _, url, _ := startObsHTTP(t, server.Config{})
	resp, body := get(t, url+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d", resp.StatusCode)
	}
	for _, want := range []string{`"status": "ok"`, `"go_version"`, `"uptime_seconds"`} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz lacks %s: %s", want, body)
		}
	}
}

func TestPanicRecoveryThroughHandlerChain(t *testing.T) {
	// The debug panic route must come back as a 500 with the stack in the
	// log, and the server must keep serving afterwards — including runs,
	// proving the worker pool was untouched.
	_, c, url, logBuf := startObsHTTP(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	resp, _ := get(t, url+"/debug/panic")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic route returned %d, want 500", resp.StatusCode)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "debug panic route") || !strings.Contains(logs, "stack=") {
		t.Errorf("panic not logged with stack:\n%s", logs)
	}

	sub, err := c.Submit(ctx, submitReq(7, 0))
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != server.StateDone {
		t.Fatalf("run after panic: %v %+v", err, st)
	}

	// The panic counted as a 500 on the metrics surface.
	_, body := get(t, url+"/metrics")
	if !strings.Contains(body, `vc2m_http_requests_total{route="/debug",method="GET",code="500"}`) {
		t.Errorf("500 not counted for the panic route:\n%s", body)
	}
}

func TestRequestIDReachesAccessLog(t *testing.T) {
	// An inbound X-Request-Id must be echoed on the response and appear in
	// the access log line for the provenance stream, correlating a client
	// retry with the exact server-side request.
	_, c, url, logBuf := startObsHTTP(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	sub, err := c.Submit(ctx, submitReq(11, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != server.StateDone {
		t.Fatalf("wait: %v %+v", err, st)
	}

	const reqID = "corr-test-42"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/runs/%s/provenance", url, sub.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != reqID {
		t.Errorf("response echoed request ID %q, want %q", got, reqID)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "req="+reqID) {
		t.Errorf("access log lacks the inbound request ID %q:\n%s", reqID, logs)
	}
	if !strings.Contains(logs, "route=/v1/runs/{id}/provenance") {
		t.Errorf("access log lacks the normalized provenance route:\n%s", logs)
	}
}

func TestConcurrentScrapesDuringRuns(t *testing.T) {
	// Hammer /metrics while runs execute and decisions stream in: under
	// -race this proves the registry's snapshot locking, and every scrape
	// must individually satisfy the histogram invariants.
	_, c, url, _ := startObsHTTP(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var ids []string
	for seed := int64(0); seed < 4; seed++ {
		sub, err := c.Submit(ctx, submitReq(seed, 100))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(url + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if _, err := obs.ValidateExposition(strings.NewReader(string(body))); err != nil {
					errs <- fmt.Errorf("scrape %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs { //vc2m:ctxfree bounded drain; errs is closed above
		t.Error(err)
	}
	for _, id := range ids {
		if st, err := c.Wait(ctx, id); err != nil || st.State != server.StateDone {
			t.Fatalf("run %s: %v %+v", id, err, st)
		}
	}
}

func TestPprofServed(t *testing.T) {
	_, _, url, _ := startObsHTTP(t, server.Config{})
	resp, body := get(t, url+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/: %d %s", resp.StatusCode, body[:min(len(body), 200)])
	}
}
