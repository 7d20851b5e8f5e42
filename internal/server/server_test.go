package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"wolf/internal/core"
	"wolf/internal/obs"
	"wolf/internal/replay"
	"wolf/internal/report"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

// fig4Trace records a Figure 4 detection trace on a terminating seed.
func fig4Trace(t *testing.T) *trace.Trace {
	t.Helper()
	w, ok := workloads.ByName("Figure4")
	if !ok {
		t.Fatal("Figure4 not registered")
	}
	seed, ok := workloads.FindTerminatingSeed(w.New, 300)
	if !ok {
		t.Fatal("no terminating seed")
	}
	return core.Record(w.New, seed, 0)
}

// startServer runs a wolfd instance behind a real loopback HTTP server.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postTrace uploads a trace body and decodes the response JSON.
func postTrace(t *testing.T, url string, body []byte, hdr map[string]string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// postTraceResp uploads a trace body and returns the raw response for
// header assertions; the caller closes the body.
func postTraceResp(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getJSON fetches url into out, returning the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pollJob waits for the job to leave the queued/running states.
func pollJob(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		if code := getJSON(t, base+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("job status = %d", code)
		}
		if v.State == string(StateDone) || v.State == string(StateFailed) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobView{}
}

// TestEndToEndFigure4 is the service's core contract: record a workload
// trace, upload it over real HTTP in both encodings (binary gzipped),
// poll the job, and check the report classifies the known cycles — θ1
// refuted by the Pruner, θ2 (the real Figure 4 deadlock) surviving
// pruning and generation.
func TestEndToEndFigure4(t *testing.T) {
	tr := fig4Trace(t)
	_, ts := startServer(t, Config{Workers: 2, QueueSize: 8})

	var js bytes.Buffer
	if err := tr.Write(&js); err != nil {
		t.Fatal(err)
	}
	var binGz bytes.Buffer
	zw := gzip.NewWriter(&binGz)
	if err := tr.WriteBinary(zw); err != nil {
		t.Fatal(err)
	}
	zw.Close()

	uploads := []struct {
		name string
		body []byte
		hdr  map[string]string
	}{
		{"json", js.Bytes(), nil},
		{"binary+gzip", binGz.Bytes(), map[string]string{"Content-Encoding": "gzip"}},
	}
	for _, up := range uploads {
		t.Run(up.name, func(t *testing.T) {
			code, accepted := postTrace(t, ts.URL+"/v1/traces", up.body, up.hdr)
			if code != http.StatusAccepted {
				t.Fatalf("upload = %d (%v)", code, accepted)
			}
			id, _ := accepted["id"].(string)
			if id == "" {
				t.Fatalf("no job id in %v", accepted)
			}
			v := pollJob(t, ts.URL, id)
			if v.State != string(StateDone) {
				t.Fatalf("job = %+v", v)
			}
			if v.Tuples != len(tr.Tuples) {
				t.Fatalf("tuples = %d, want %d", v.Tuples, len(tr.Tuples))
			}

			var rep report.JSONReport
			if code := getJSON(t, ts.URL+v.ReportURL, &rep); code != http.StatusOK {
				t.Fatalf("report = %d", code)
			}
			if len(rep.Defects) != 2 {
				t.Fatalf("defects = %+v, want 2", rep.Defects)
			}
			classes := map[string]string{}
			for _, d := range rep.Defects {
				classes[d.Class] = d.Signature
			}
			if _, ok := classes["false(pruner)"]; !ok {
				t.Fatalf("θ1 not pruned: %+v", rep.Defects)
			}
			sig, ok := classes["unknown"]
			if !ok {
				t.Fatalf("θ2 did not survive pruning/generation: %+v", rep.Defects)
			}

			// The surviving defect's dependency graph is retrievable as dot.
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/dot?" +
				url.Values{"signature": {sig}}.Encode())
			if err != nil {
				t.Fatal(err)
			}
			dot, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(dot), "digraph Gs") {
				t.Fatalf("dot = %d: %.80s", resp.StatusCode, dot)
			}
		})
	}

	// The synchronous endpoint returns the same verdicts inline.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(js.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sync report.JSONReport
	if err := json.NewDecoder(resp.Body).Decode(&sync); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(sync.Defects) != 2 {
		t.Fatalf("sync analyze = %d, %+v", resp.StatusCode, sync.Defects)
	}
}

// TestWorkloadJob: the server records and analyzes a registered workload
// on its own, sharing cmd/wolf's registry.
func TestWorkloadJob(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})

	var names struct {
		Workloads []string `json:"workloads"`
	}
	if code := getJSON(t, ts.URL+"/v1/workloads", &names); code != http.StatusOK {
		t.Fatalf("workloads = %d", code)
	}
	found := false
	for _, n := range names.Workloads {
		if n == "Figure4" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Figure4 missing from %v", names.Workloads)
	}

	code, accepted := postTrace(t, ts.URL+"/v1/workloads/Figure4", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("workload job = %d (%v)", code, accepted)
	}
	v := pollJob(t, ts.URL, accepted["id"].(string))
	if v.State != string(StateDone) || v.Tuples == 0 {
		t.Fatalf("workload job = %+v", v)
	}

	if code, _ := postTrace(t, ts.URL+"/v1/workloads/NoSuchThing", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown workload = %d", code)
	}
}

// TestUploadRejectsGarbage: malformed bodies are a client error, and the
// queue never sees them.
func TestUploadRejectsGarbage(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	for name, body := range map[string][]byte{
		"empty":     nil,
		"garbage":   []byte("not a trace"),
		"truncated": []byte("WTRC\x01"),
		"no-tuples": []byte(`{"version":1,"tuples":[]}`),
	} {
		if code, _ := postTrace(t, ts.URL+"/v1/traces", body, nil); code != http.StatusBadRequest {
			t.Fatalf("%s upload = %d, want 400", name, code)
		}
	}
	if got := s.Metrics().JobsAccepted.Load(); got != 0 {
		t.Fatalf("accepted = %d, want 0", got)
	}
}

// blockingAnalyze returns an analyze hook that parks until released,
// then runs the real pipeline.
func blockingAnalyze(release <-chan struct{}) func(context.Context, *trace.Trace, core.Config) (*core.Report, error) {
	return func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
}

// TestQueueFull: with workers parked and the queue at capacity, further
// uploads get 429 and the rejection is counted; draining the queue makes
// the server accept again.
func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	s, ts := startServer(t, Config{
		Workers:   1,
		QueueSize: 2,
		Analyze:   blockingAnalyze(release),
	})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	// 1 job parks on the worker; 2 fill the queue. Subsequent uploads
	// must bounce. (The parked job may or may not have been picked up
	// yet, so fill to capacity + 1 first.)
	ids := []string{}
	for i := 0; i < 3; i++ {
		code, out := postTrace(t, ts.URL+"/v1/traces", body, nil)
		if code != http.StatusAccepted {
			t.Fatalf("upload %d = %d", i, code)
		}
		ids = append(ids, out["id"].(string))
	}
	// Wait until the worker has dequeued the first job so exactly
	// QueueSize slots are occupied.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().QueueDepth.Load() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp := postTraceResp(t, ts.URL+"/v1/traces", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity upload = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := s.Metrics().JobsRejected.Load(); got == 0 {
		t.Fatal("rejection not counted")
	}

	close(release)
	for _, id := range ids {
		if v := pollJob(t, ts.URL, id); v.State != string(StateDone) {
			t.Fatalf("job %s = %+v", id, v)
		}
	}
	// Queue drained: uploads flow again.
	if code, _ := postTrace(t, ts.URL+"/v1/traces", body, nil); code != http.StatusAccepted {
		t.Fatalf("post-drain upload = %d", code)
	}
}

// TestJobTimeout: an analysis exceeding the per-job timeout is reported
// failed, counted, and the worker survives to serve the next job.
func TestJobTimeout(t *testing.T) {
	const slowSeed = 999
	slow := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		if tr.Seed == slowSeed {
			<-ctx.Done() // simulate an analysis that outlives its budget
			return nil, ctx.Err()
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	s, ts := startServer(t, Config{
		Workers:    1,
		QueueSize:  4,
		JobTimeout: 50 * time.Millisecond,
		Analyze:    slow,
	})
	tr := fig4Trace(t)
	tr.Seed = slowSeed
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	v := pollJob(t, ts.URL, out["id"].(string))
	if v.State != string(StateFailed) || !strings.Contains(v.Error, "timed out") {
		t.Fatalf("job = %+v, want timeout failure", v)
	}
	if s.Metrics().JobsTimedOut.Load() != 1 {
		t.Fatal("timeout not counted")
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/report", nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("report of failed job = %d, want 422", code)
	}

	// The worker must still be alive: the same trace under a normal seed
	// (fast path) succeeds on the same single worker.
	tr.Seed = 1
	buf.Reset()
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out = postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("second upload = %d", code)
	}
	if v := pollJob(t, ts.URL, out["id"].(string)); v.State != string(StateDone) {
		t.Fatalf("worker did not survive timeout: %+v", v)
	}
}

// TestPanicRecovery: a panicking analysis fails its job with the panic
// surfaced in the status, the worker pool survives, and the panic is
// counted.
func TestPanicRecovery(t *testing.T) {
	count := 0
	boom := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		count++
		if count == 1 {
			panic("synthetic analyzer bug")
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	s, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: boom})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	v := pollJob(t, ts.URL, out["id"].(string))
	if v.State != string(StateFailed) || !strings.Contains(v.Error, "synthetic analyzer bug") {
		t.Fatalf("job = %+v, want surfaced panic", v)
	}
	if s.Metrics().JobsPanicked.Load() != 1 {
		t.Fatal("panic not counted")
	}

	// Same worker, next job: must succeed.
	code, out = postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("second upload = %d", code)
	}
	if v := pollJob(t, ts.URL, out["id"].(string)); v.State != string(StateDone) {
		t.Fatalf("worker did not survive panic: %+v", v)
	}
}

// TestGracefulShutdown: Shutdown completes the in-flight job, fails
// still-queued jobs fast with a distinct "drained" reason, flips
// healthz to draining, and refuses new uploads with 503.
func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueSize: 8, Analyze: blockingAnalyze(release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for i := 0; i < 3; i++ {
		code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
		if code != http.StatusAccepted {
			t.Fatalf("upload = %d", code)
		}
		ids = append(ids, out["id"].(string))
	}
	// Wait for the single worker to park on the first job so exactly one
	// job is in flight and two are queued when the drain starts.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().QueueDepth.Load() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// While draining: health is 503 with the draining state visible.
	time.Sleep(20 * time.Millisecond) // let Shutdown close the queue
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("healthz during drain = %d %q, want 503 \"draining\"", code, health.Status)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The in-flight job completed; the queued-but-unstarted ones were
	// failed fast with the drain reason, not silently analyzed.
	j, _ := s.jobs.get(ids[0])
	if j.State() != StateDone {
		t.Fatalf("in-flight job = %v, want done", j.State())
	}
	for _, id := range ids[1:] {
		j, ok := s.jobs.get(id)
		if !ok || j.State() != StateFailed {
			t.Fatalf("queued job %s = %v, want failed", id, j.State())
		}
		if msg := j.view().Error; !strings.Contains(msg, "draining") {
			t.Fatalf("queued job %s error = %q, want drain reason", id, msg)
		}
	}
	if got := s.Metrics().JobsDrained.Load(); got != 2 {
		t.Fatalf("drained count = %d, want 2", got)
	}

	// New work is refused and health reports draining state.
	if code, _ := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown upload = %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown = %d, want 503", code)
	}
}

// TestAnalysisParallelismGauge: the resolved per-cycle pool size is
// exported at startup — an explicit setting verbatim, zero resolved via
// EffectiveParallelism.
func TestAnalysisParallelismGauge(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4,
		Analysis: core.Config{Parallelism: 3}})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "wolfd_analysis_parallelism 3") {
		t.Fatalf("metrics missing explicit wolfd_analysis_parallelism:\n%s", body)
	}

	_, ts = startServer(t, Config{Workers: 1, QueueSize: 4})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	def := (&core.Config{}).EffectiveParallelism()
	if !strings.Contains(string(body), fmt.Sprintf("wolfd_analysis_parallelism %d", def)) {
		t.Fatalf("metrics missing default wolfd_analysis_parallelism %d:\n%s", def, body)
	}
}

// TestMetricsEndpoint: the Prometheus rendering carries the counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	pollJob(t, ts.URL, out["id"].(string))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"wolfd_jobs_accepted_total 1",
		"wolfd_jobs_completed_total 1",
		"wolfd_queue_depth 0",
		`wolfd_jobs_failed_total{reason="error"} 0`,
		`wolfd_jobs_failed_total{reason="timeout"} 0`,
		`wolfd_jobs_failed_total{reason="panic"} 0`,
		`wolfd_jobs_failed_total{reason="watchdog"} 0`,
		`wolfd_jobs_failed_total{reason="drained"} 0`,
		"wolfd_sync_rejected_total 0",
		"wolfd_phase_detect_seconds_count 1",
		"wolfd_phase_prune_seconds_count 1",
		"wolfd_phase_generate_seconds_count 1",
		"wolfd_analysis_seconds_count 1",
		"wolfd_queue_wait_seconds_count 1",
		"wolfd_cycles_total",
		`wolfd_defects_total{class="confirmed"}`,
		"wolfd_build_info{",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// The analysis completed, so the phase histograms must have counts
	// in real buckets, not just +Inf (the acceptance check for the
	// histogram rendering).
	if !regexp.MustCompile(`wolfd_analysis_seconds_bucket\{le="[0-9][^"]*"\} [1-9]`).MatchString(text) {
		t.Fatalf("no non-empty finite analysis histogram bucket:\n%s", text)
	}
	// Every line must satisfy the strict exposition-format linter.
	if errs := obs.PromLint(strings.NewReader(text)); len(errs) != 0 {
		t.Fatalf("metrics output fails lint: %v\n%s", errs, text)
	}

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
}

// TestVersionEndpoint: GET /version reports build information.
func TestVersionEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	var bi map[string]any
	if code := getJSON(t, ts.URL+"/version", &bi); code != http.StatusOK {
		t.Fatalf("version = %d", code)
	}
	if bi["go_version"] == "" || bi["version"] == "" {
		t.Fatalf("version body incomplete: %v", bi)
	}
}

// TestTimelineEndpoint: GET /v1/jobs/{id}/timeline serves the job's
// trace as valid Chrome trace-event JSON.
func TestTimelineEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	id := out["id"].(string)
	pollJob(t, ts.URL, id)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content-type = %q", ct)
	}
	if err := obs.ValidateTimeline(body); err != nil {
		t.Fatalf("served timeline invalid: %v\n%s", err, body)
	}
	if !bytes.Contains(body, []byte(`"ph":"i"`)) {
		t.Error("timeline has no acquisition instants")
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/nope/timeline", nil); code != http.StatusNotFound {
		t.Fatalf("missing job timeline = %d, want 404", code)
	}
}

// TestUploadTooLarge: the size cap returns 413, not an open-ended read.
func TestUploadTooLarge(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, MaxUploadBytes: 128})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 128 {
		t.Fatalf("fixture too small: %d bytes", buf.Len())
	}
	code, _ := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusRequestEntityTooLarge && code != http.StatusBadRequest {
		t.Fatalf("oversized upload = %d, want 413/400", code)
	}
}

// TestSyncAnalyzeClientCancel: POST /v1/analyze runs under the request
// context, so a client disconnect cancels the in-flight analysis.
func TestSyncAnalyzeClientCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	cancelled := make(chan struct{}, 1)
	hook := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			cancelled <- struct{}{}
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("client disconnect never propagated")
		}
	}
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: hook})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(buf.Bytes()))
	go http.DefaultClient.Do(req)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("analysis never started")
	}
	cancel() // client walks away
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("analysis kept running after client disconnect")
	}
}

// TestWorkerWatchdog: an analysis that ignores its cancelled context is
// abandoned after JobTimeout+WatchdogGrace — the job fails with a
// watchdog reason, the failure is counted separately from timeouts, and
// the worker slot is freed for the next job.
func TestWorkerWatchdog(t *testing.T) {
	const stuckSeed = 999
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) }) // let the abandoned goroutine exit
	stuck := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		if tr.Seed == stuckSeed {
			<-hung // ignores ctx entirely: the watchdog's target
			return nil, fmt.Errorf("released")
		}
		return core.AnalyzeTraceCtx(ctx, tr, cfg)
	}
	s, ts := startServer(t, Config{
		Workers:       1,
		QueueSize:     4,
		JobTimeout:    50 * time.Millisecond,
		WatchdogGrace: 50 * time.Millisecond,
		Analyze:       stuck,
	})
	tr := fig4Trace(t)
	tr.Seed = stuckSeed
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	v := pollJob(t, ts.URL, out["id"].(string))
	if v.State != string(StateFailed) || !strings.Contains(v.Error, "watchdog") {
		t.Fatalf("job = %+v, want watchdog failure", v)
	}
	if s.Metrics().JobsWatchdogged.Load() != 1 {
		t.Fatal("watchdog abandonment not counted")
	}
	if s.Metrics().JobsTimedOut.Load() != 0 {
		t.Fatal("watchdog abandonment miscounted as timeout")
	}

	// The worker survived the abandonment: a well-behaved job on the same
	// single worker succeeds.
	tr.Seed = 1
	buf.Reset()
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out = postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("second upload = %d", code)
	}
	if v := pollJob(t, ts.URL, out["id"].(string)); v.State != string(StateDone) {
		t.Fatalf("worker did not survive watchdog: %+v", v)
	}
}

// corruptUpload decodes a fresh copy of base, applies the corruption and
// re-encodes it as JSON for upload.
func corruptUpload(t *testing.T, base []byte, corrupt func(tr *trace.Trace)) []byte {
	t.Helper()
	tr, err := trace.Decode(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	corrupt(tr)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUploadRejectsInvalidTrace: traces that parse but violate
// structural invariants are rejected with 422 before any analysis is
// queued, one counted corruption class each, and the classes surface on
// /metrics.
func TestUploadRejectsInvalidTrace(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, QueueSize: 4})
	tr := fig4Trace(t)
	var base bytes.Buffer
	if err := tr.WriteBinary(&base); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		class   string
		corrupt func(tr *trace.Trace)
	}{
		{"empty-lock", trace.InvalidMissingField, func(tr *trace.Trace) {
			tr.Tuples[0].Lock = ""
		}},
		{"key-zero-occ", trace.InvalidBadKey, func(tr *trace.Trace) {
			tr.Tuples[0].Key.Occ = 0
		}},
		{"held-duplicate", trace.InvalidHeldSet, func(tr *trace.Trace) {
			for i := len(tr.Tuples) - 1; i >= 0; i-- {
				if len(tr.Tuples[i].Held) > 0 {
					tr.Tuples[i].Held = append(tr.Tuples[i].Held, tr.Tuples[i].Held[0])
					return
				}
			}
			t.Fatal("no tuple with held locks in fixture")
		}},
		{"thread-id-range", trace.InvalidThreadID, func(tr *trace.Trace) {
			tr.Tuples[0].ThreadID = 99
		}},
		{"clock-shape", trace.InvalidClockShape, func(tr *trace.Trace) {
			tr.Taus = tr.Taus[:len(tr.Taus)-1]
		}},
		{"tau-backwards", trace.InvalidNonMonotonicTau, func(tr *trace.Trace) {
			for _, name := range tr.Threads() {
				if ts := tr.ByThread(name); len(ts) >= 2 {
					ts[0].Tau = 1 << 20
					return
				}
			}
			t.Fatal("no thread with two acquisitions in fixture")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := corruptUpload(t, base.Bytes(), tc.corrupt)
			code, out := postTrace(t, ts.URL+"/v1/traces", body, nil)
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("upload = %d (%v), want 422", code, out)
			}
			if msg, _ := out["error"].(string); !strings.Contains(msg, tc.class) {
				t.Fatalf("error %q does not name class %s", msg, tc.class)
			}
			if got := s.Metrics().InvalidTraces.Get(tc.class); got == 0 {
				t.Fatalf("class %s not counted", tc.class)
			}
		})
	}
	if got := s.Metrics().JobsAccepted.Load(); got != 0 {
		t.Fatalf("accepted = %d, want 0", got)
	}

	// The classes render as a labeled counter family and the exposition
	// output still lints.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `wolfd_traces_invalid_total{class="bad-key"} 1`) {
		t.Fatalf("invalid-trace counter missing:\n%s", text)
	}
	if errs := obs.PromLint(strings.NewReader(text)); len(errs) != 0 {
		t.Fatalf("metrics output fails lint: %v\n%s", errs, text)
	}

	// A well-formed upload still flows after the rejections.
	if code, _ := postTrace(t, ts.URL+"/v1/traces", base.Bytes(), nil); code != http.StatusAccepted {
		t.Fatalf("valid upload after rejections = %d", code)
	}
}

// TestSyncAnalyzeShedding: POST /v1/analyze sheds load with 429 +
// Retry-After when every worker slot is busy, and accepts again once a
// slot frees up.
func TestSyncAnalyzeShedding(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	hook := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
			return core.AnalyzeTraceCtx(ctx, tr, cfg)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: hook})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			first <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first analysis never started")
	}

	// The single slot is held: the next sync request bounces immediately.
	resp := postTraceResp(t, ts.URL+"/v1/analyze", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated sync analyze = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if s.Metrics().SyncRejected.Load() != 1 {
		t.Fatal("shed request not counted")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first sync analyze = %d, want 200", code)
	}
	// Slot free again: the next request is admitted.
	resp = postTraceResp(t, ts.URL+"/v1/analyze", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release sync analyze = %d, want 200", resp.StatusCode)
	}
}

// TestReplayMetricsRendered: divergence histograms, replay methods and
// fault counts from analysis reports surface as labeled counters on
// /metrics and the output still lints.
func TestReplayMetricsRendered(t *testing.T) {
	fake := func(ctx context.Context, tr *trace.Trace, cfg core.Config) (*core.Report, error) {
		return &core.Report{
			Tool: "fake",
			Cycles: []*core.CycleReport{
				{ReplayMethod: replay.MethodSteering},
				{
					ReplayMethod: replay.MethodFallback,
					Divergence: replay.Divergence{
						replay.DivergenceStarved:  2,
						replay.DivergenceMaxSteps: 1,
					},
					Faults: sim.FaultStats{Preemptions: 3, Wakeups: 1},
				},
			},
		}, nil
	}
	_, ts := startServer(t, Config{Workers: 1, QueueSize: 4, Analyze: fake})
	tr := fig4Trace(t)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, out := postTrace(t, ts.URL+"/v1/traces", buf.Bytes(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	pollJob(t, ts.URL, out["id"].(string))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`wolfd_replay_confirmed_total{method="fallback"} 1`,
		`wolfd_replay_confirmed_total{method="steering"} 1`,
		`wolfd_replay_divergence_total{reason="max-steps"} 1`,
		`wolfd_replay_divergence_total{reason="starved"} 2`,
		"wolfd_replay_faults_injected_total 4",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if errs := obs.PromLint(strings.NewReader(text)); len(errs) != 0 {
		t.Fatalf("metrics output fails lint: %v\n%s", errs, text)
	}
}
