package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	randv2 "math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wolf/internal/fleet"
	"wolf/internal/httpx"
	"wolf/internal/server"
	"wolf/internal/store"
)

const (
	// chunkSize is the stream workload's chunk: the size wolfctl and the
	// wolfsync sink ship by default are in this range, and 4 KiB splits
	// land mid-varint often enough to exercise the resumable decoder.
	chunkSize = 4 << 10
	// pollEvery is how often a client re-reads its unfinished jobs once
	// they have run a while; see pollDelay. Shorter polls cost the
	// server CPU the analyses need on a two-core machine.
	pollEvery = 2 * time.Millisecond
	// streamWindow is the number of unfinished jobs each stream client
	// keeps: with two clients, four jobs for two analyzers, so a job
	// waits for at most one other per analyzer and the verdict time is
	// the stream, lease, analysis and completion path rather than queue
	// length.
	streamWindow = 2
	// analyzerPoll replaces fleet.AnalyzerConfig.Poll (500 ms by
	// default), the sleep of an analyzer whose pull found the queue
	// empty. With the default, a job admitted while both analyzers slept
	// waited out the sleep: at small windows the sleep dominated every
	// verdict, and at windows deep enough to keep the queue from ever
	// draining (16 per client and more) the verdict was queue wait whose
	// depth varied with how fast the clients could stream, and the median
	// moved by a third between runs of the same code. A 5 ms poll costs
	// two idle analyzers a few hundred 204 pulls a second.
	analyzerPoll = 5 * time.Millisecond
	// epochLimit stops sending if one epoch's input set takes this long,
	// which keeps a run inside its time limit on a much slower machine.
	epochLimit = 60 * time.Second
)

// wolfdWorkload describes one of the two wolfd traffic mixes.
//
// A run is a series of epochs. Each epoch brings a fresh wolfd up
// (timed as setup_s), sends the same fixed set of inputs through it,
// waits for every verdict, and tears it down. wolfd keeps every job's
// trace and report in memory, so a fixed amount of work per epoch keeps
// the heap bounded and comparable across commits: a faster wolfd
// finishes an epoch sooner instead of holding more jobs.
//
// wolfd runs without a corpus. With one, its fsync-bound writes were
// about two thirds of a typical batch job's latency, and fsync latency
// on a shared disk moved the median verdict between 9 and 13 ms from
// run to run of the same code (3.0 to 3.4 ms without); the fleet's
// coordinator writes under its lease lock, so its throughput moved with
// the disk too. The traced run measures the corpus layer by layer
// instead (see replayJob).
type wolfdWorkload struct {
	name  string
	fleet bool
	// fresh is the number of distinct traces an epoch sends.
	fresh int
}

// jobView is the part of server.JobView the benchmark reads.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Created  string `json:"created"`
	Started  string `json:"started"`
	Finished string `json:"finished"`
}

func (v jobView) terminal() bool { return v.State == "done" || v.State == "failed" }

func (v jobView) stamps() (queueWait, service time.Duration) {
	c, _ := time.Parse(time.RFC3339Nano, v.Created)
	s, _ := time.Parse(time.RFC3339Nano, v.Started)
	f, _ := time.Parse(time.RFC3339Nano, v.Finished)
	if s.IsZero() || f.IsZero() {
		return 0, 0
	}
	return s.Sub(c), f.Sub(s)
}

// sample is one finished job as the client saw it.
type sample struct {
	send     int // index into the send sequence
	input    int
	t0       time.Time
	admit    time.Duration
	verdict  time.Duration
	view     jobView
	measured bool
}

// fleetTransport is the analyzers' HTTP transport: it counts and times
// the fleet protocol calls from outside the analyzer.
type fleetTransport struct {
	base http.RoundTripper

	mu          sync.Mutex
	pulls, idle int
	renews      int
	completes   int
	pullMs      []float64
	completeMs  []float64
	pulledBytes int64
}

func (f *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch req.URL.Path {
	case "/v1/work/pull":
		if resp.StatusCode == http.StatusNoContent {
			f.mu.Lock()
			f.pulls++
			f.idle++
			f.mu.Unlock()
			return resp, nil
		}
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
			f.mu.Lock()
			f.pulls++
			f.pulledBytes += n
			f.pullMs = append(f.pullMs, ms(time.Since(t0)))
			f.mu.Unlock()
		}}
	case "/v1/work/renew":
		f.mu.Lock()
		f.renews++
		f.mu.Unlock()
	case "/v1/work/complete":
		f.mu.Lock()
		f.completes++
		f.completeMs = append(f.completeMs, ms(time.Since(t0)))
		f.mu.Unlock()
	}
	return resp, nil
}

// timedBody reports the bytes read once the caller closes the body, so
// a pull is timed through the transfer of its trace blob.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// wolfdSystem is wolfd brought up in-process: server, listener, and in
// fleet mode two analyzers.
type wolfdSystem struct {
	srv       *server.Server
	hs        *http.Server
	base      string
	fleetRT   *fleetTransport
	cancel    context.CancelFunc
	analyzers sync.WaitGroup
}

// startWolfd brings the system up with default server.Config apart
// from the role, and default analyzers apart from the poll; it returns
// once every analyzer has registered.
func startWolfd(wl wolfdWorkload) (*wolfdSystem, error) {
	var cfg server.Config
	if wl.fleet {
		cfg.Role = server.RoleCoordinator
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	sys := &wolfdSystem{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String()}
	go sys.hs.Serve(ln)
	if !wl.fleet {
		return sys, nil
	}
	sys.fleetRT = &fleetTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	ctx, cancel := context.WithCancel(context.Background())
	sys.cancel = cancel
	var registered []*fleet.Analyzer
	for i := 0; i < 2; i++ {
		a := fleet.NewAnalyzer(fleet.AnalyzerConfig{
			Coordinator: sys.base,
			Name:        fmt.Sprintf("bench-%d", i),
			Poll:        analyzerPoll,
			Client:      &httpx.Client{HTTP: &http.Client{Transport: sys.fleetRT}, RetryConnect: true},
		})
		registered = append(registered, a)
		sys.analyzers.Add(1)
		go func() {
			defer sys.analyzers.Done()
			a.Run(ctx)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, a := range registered {
		for a.ID() == "" {
			if time.Now().After(deadline) {
				sys.stop()
				return nil, fmt.Errorf("analyzer did not register")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return sys, nil
}

func (s *wolfdSystem) stop() {
	if s.cancel != nil {
		s.cancel()
		s.analyzers.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.hs.Shutdown(ctx)
}

// promCounters reads the counters the checks compare from /metrics.
func promCounters(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// wolfdRun is one measured phase against one system.
type wolfdRun struct {
	wl     wolfdWorkload
	sys    *wolfdSystem
	client *http.Client
	inputs []*input
	sends  []int // input index per send
	tr     *tracer
	epoch  int

	next     atomic.Int64
	deadline time.Time
	lastSend time.Time

	mu         sync.Mutex
	samples    []sample
	refused    int
	failedJobs int
	mismatches []string
}

// sendSequence lays out which input each send carries, in a seeded
// order. batch_unique sends every input once. stream_fleet_repeat sends
// every input twice, the second time at a seeded later position, so half
// the sends repeat a trace already sent (a corpus dedups half its puts);
// sending each trace exactly twice keeps the work of an epoch the same
// for every seed.
func sendSequence(wl wolfdWorkload, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	if !wl.fleet {
		return rng.Perm(n)
	}
	seq := make([]int, 2*n)
	for i, k := range rng.Perm(2 * n) {
		seq[i] = k % n
	}
	return seq
}

func (r *wolfdRun) expired() bool { return time.Now().After(r.deadline) }

// clientLoop is one closed-loop client: it keeps up to window jobs
// unfinished, sending the next input as soon as one finishes.
func (r *wolfdRun) clientLoop() {
	type pending struct {
		send, input int
		id          string
		t0          time.Time
		admit       time.Duration
		root        int
	}
	var inflight []*pending
	window := 1
	if r.wl.fleet {
		window = streamWindow
	}
	exhausted := false
	polls := 0
	for {
		for len(inflight) < window && !exhausted && !r.expired() {
			k := int(r.next.Add(1)) - 1
			if k >= len(r.sends) {
				exhausted = true
				break
			}
			in := r.inputs[r.sends[k]]
			group := fmt.Sprintf("epoch-%d/send-%d", r.epoch, k)
			root := r.tr.begin(group, "client.job", 0)
			sid := r.tr.begin(group, "client.admit", root)
			t0 := time.Now()
			var id string
			var err error
			if r.wl.fleet {
				id, err = r.sendStream(in.wtrc)
			} else {
				id, err = r.upload(in.wtrc)
			}
			admit := time.Since(t0)
			r.tr.end(sid)
			if err != nil {
				r.tr.end(root)
				r.mu.Lock()
				r.refused++
				r.mismatches = append(r.mismatches, fmt.Sprintf("send %d: %v", k, err))
				r.mu.Unlock()
				continue
			}
			inflight = append(inflight, &pending{send: k, input: r.sends[k], id: id, t0: t0, admit: admit, root: root})
			r.mu.Lock()
			r.lastSend = maxTime(r.lastSend, t0)
			r.mu.Unlock()
		}
		if len(inflight) == 0 {
			return
		}
		polls++
		progressed := false
		keep := inflight[:0]
		for _, p := range inflight {
			v, err := r.getJob(p.id)
			if err != nil || !v.terminal() {
				keep = append(keep, p)
				continue
			}
			// wolfd runs in this process, so the job's Finished stamp is on
			// the client's clock: the verdict time is exact rather than
			// rounded up to the poll that noticed it.
			verdict := time.Since(p.t0)
			if f, err := time.Parse(time.RFC3339Nano, v.Finished); err == nil {
				verdict = f.Sub(p.t0)
			}
			r.tr.end(p.root)
			progressed = true
			r.finish(sample{send: p.send, input: p.input, t0: p.t0, admit: p.admit, verdict: verdict, view: v})
		}
		inflight = keep
		if progressed {
			polls = 0
		} else {
			time.Sleep(pollDelay(polls))
		}
	}
}

// pollDelay is the sleep before re-reading unfinished jobs after the
// n-th read that found none finished. A client backs off from 250 µs to
// pollEvery, so it sends its next trace soon after a
// small one finishes instead of idling up to 2 ms, which would cap the
// throughput a faster analysis could show. Each delay is dithered over
// [d/2, 3d/2) so polls do not fall in step with the server's work.
func pollDelay(n int) time.Duration {
	d := pollEvery
	if n <= 3 {
		d = pollEvery >> (3 - (n - 1))
	}
	return d/2 + randv2.N(d)
}

// finish records a terminal job.
func (r *wolfdRun) finish(s sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
	if s.view.State != "done" {
		r.failedJobs++
		r.mismatches = append(r.mismatches, fmt.Sprintf("job %s failed: %s", s.view.ID, s.view.Error))
	}
}

// verify fetches every finished job's report once the clients are done,
// so the checking costs no CPU inside the measured window, and compares
// it with the oracle.
func (r *wolfdRun) verify() {
	for _, s := range r.samples {
		if s.view.State != "done" {
			continue
		}
		got, err := r.reportCycles(s.view.ID)
		switch {
		case err != nil:
			r.mismatches = append(r.mismatches, fmt.Sprintf("job %s report: %v", s.view.ID, err))
		case !sameCounts(got, r.inputs[s.input].oracle):
			r.mismatches = append(r.mismatches, fmt.Sprintf("job %s (%s): report cycles %v, batch detector %v",
				s.view.ID, r.inputs[s.input].name, got, r.inputs[s.input].oracle))
		}
	}
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (r *wolfdRun) upload(wtrc []byte) (string, error) {
	resp, err := r.client.Post(r.sys.base+"/v1/traces", "application/octet-stream", bytes.NewReader(wtrc))
	if err != nil {
		return "", err
	}
	return decodeAccepted(resp, http.StatusAccepted)
}

// sendStream opens a stream, ships the trace in 4 KiB chunks and closes
// it; the close response is the admission.
func (r *wolfdRun) sendStream(wtrc []byte) (string, error) {
	resp, err := r.client.Post(r.sys.base+"/v1/streams", "application/json", strings.NewReader(`{"source":"wolfbench"}`))
	if err != nil {
		return "", err
	}
	sid, err := decodeAccepted(resp, http.StatusCreated)
	if err != nil {
		return "", fmt.Errorf("open: %w", err)
	}
	for off := 0; off < len(wtrc); off += chunkSize {
		end := min(off+chunkSize, len(wtrc))
		resp, err := r.client.Post(r.sys.base+"/v1/streams/"+sid+"/chunks", "application/octet-stream", bytes.NewReader(wtrc[off:end]))
		if err != nil {
			return "", err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("chunk: status %d", resp.StatusCode)
		}
	}
	resp, err = r.client.Post(r.sys.base+"/v1/streams/"+sid+"/close", "application/json", nil)
	if err != nil {
		return "", err
	}
	return decodeAccepted(resp, http.StatusAccepted)
}

// decodeAccepted reads the {"id":...} of a create/accept response.
func decodeAccepted(resp *http.Response, want int) (string, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != want {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
		return "", fmt.Errorf("no id in %q", body)
	}
	return v.ID, nil
}

func (r *wolfdRun) getJob(id string) (jobView, error) {
	var v jobView
	resp, err := r.client.Get(r.sys.base + "/v1/jobs/" + id)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return v, fmt.Errorf("status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

// reportCycles fetches a job's report and keys its cycles like the
// oracle: "fingerprint class" → count.
func (r *wolfdRun) reportCycles(id string) (map[string]int, error) {
	resp, err := r.client.Get(r.sys.base + "/v1/jobs/" + id + "/report")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var rep struct {
		Cycles []struct {
			Fingerprint string `json:"fingerprint"`
			Class       string `json:"class"`
		} `json:"cycles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, err
	}
	out := make(map[string]int, len(rep.Cycles))
	for _, c := range rep.Cycles {
		out[c.Fingerprint+" "+c.Class]++
	}
	return out, nil
}

// wolfdPhase is what one epoch yields.
type wolfdPhase struct {
	setup      float64
	cpu, wall  time.Duration
	run        *wolfdRun
	counters   map[string]float64
	heapMB     float64
	window     time.Duration
	completed  int
	fleetRT    *fleetTransport
	timelineOK int
}

// runEpoch brings wolfd up, drives the closed loop until every send is
// made and every job has finished, reads /metrics, and tears the system
// down. Jobs sent after the warm-up and before the epoch's last send are
// measured; the drain after the last send, when fewer jobs are in
// flight, is not.
func runEpoch(wl wolfdWorkload, epoch int, inputs []*input, sends []int, tr *tracer) (*wolfdPhase, error) {
	ph := &wolfdPhase{}
	t0 := time.Now()
	sys, err := startWolfd(wl)
	if err != nil {
		return nil, err
	}
	ph.setup = time.Since(t0).Seconds()
	defer sys.stop()

	nproc := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	defer transport.CloseIdleConnections()
	r := &wolfdRun{wl: wl, sys: sys, client: &http.Client{Transport: transport}, inputs: inputs, sends: sends, tr: tr, epoch: epoch}
	cpu0 := cpuTime()
	start := time.Now()
	r.deadline = start.Add(epochLimit)
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.clientLoop()
		}()
	}
	wg.Wait()
	ph.cpu = cpuTime() - cpu0
	ph.wall = time.Since(start)
	ph.heapMB = liveHeapMB()
	// The epoch warms up until every job sent before its first verdict
	// has finished: those jobs wait on start-up (first connections, the
	// analyzers' first empty pull and poll sleep), not on steady state.
	first := r.deadline
	for _, s := range r.samples {
		if end := s.t0.Add(s.verdict); end.Before(first) {
			first = end
		}
	}
	warmEnd := first
	for _, s := range r.samples {
		if end := s.t0.Add(s.verdict); s.t0.Before(first) && end.After(warmEnd) {
			warmEnd = end
		}
	}
	for i := range r.samples {
		s := &r.samples[i]
		s.measured = !s.t0.Before(warmEnd) && s.t0.Before(r.lastSend)
		if end := s.t0.Add(s.verdict); s.view.State == "done" && !end.Before(warmEnd) && !end.After(r.lastSend) {
			ph.completed++
		}
	}
	ph.window = r.lastSend.Sub(warmEnd)
	if ph.window <= 0 {
		return nil, fmt.Errorf("%s: every send of the epoch was made during its warm-up", wl.name)
	}
	r.verify()
	counters, err := promCounters(r.client, sys.base)
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	ph.counters = counters
	if tr != nil {
		ph.timelineOK = r.checkTimelines(8)
	}
	// Keep the samples, not the system: a stopped wolfd still holds
	// every job it ran, and later epochs' heap peaks must not see it.
	r.sys, r.client = nil, nil
	ph.run = r
	ph.fleetRT = sys.fleetRT
	return ph, nil
}

// runEpochs runs epochs until dur has passed (at least one).
func runEpochs(wl wolfdWorkload, inputs []*input, sends []int, dur time.Duration, tr *tracer) ([]*wolfdPhase, error) {
	var out []*wolfdPhase
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		ph, err := runEpoch(wl, i, inputs, sends, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, ph)
	}
	return out, nil
}

// checkTimelines fetches /v1/jobs/{id}/timeline for up to n finished
// jobs and counts those that parse as a trace-event document.
func (r *wolfdRun) checkTimelines(n int) int {
	ok := 0
	for _, s := range r.samples {
		if n == 0 {
			break
		}
		n--
		resp, err := r.client.Get(r.sys.base + "/v1/jobs/" + s.view.ID + "/timeline")
		if err != nil {
			continue
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&doc) == nil && len(doc.TraceEvents) > 0 {
			ok++
		}
		resp.Body.Close()
	}
	return ok
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

var (
	batchUnique       = wolfdWorkload{name: "batch_unique", fresh: 80}
	streamFleetRepeat = wolfdWorkload{name: "stream_fleet_repeat", fleet: true, fresh: 80}
)

// runWolfd runs a wolfd workload: untraced epochs for the end-to-end
// metrics and, when traced, as many traced epochs over the same inputs,
// whose first epoch's jobs are then replayed layer by layer.
func runWolfd(wl wolfdWorkload, seed int64, dur time.Duration, traced bool, scratch string) (*outcome, error) {
	o := newOutcome()
	phaseDur := dur
	if traced {
		phaseDur = dur / 2
	}
	inputs, err := genInputs(seed, wl.fresh, !wl.fleet)
	if err != nil {
		return nil, err
	}
	if !wl.fleet {
		hashes := make(map[string]bool, len(inputs))
		for _, in := range inputs {
			hashes[in.hash] = true
		}
		if len(hashes) != len(inputs) {
			o.problemf("batch_unique inputs: %d distinct hashes for %d traces", len(hashes), len(inputs))
		}
	}
	sends := sendSequence(wl, len(inputs), seed)

	base, err := runEpochs(wl, inputs, sends, phaseDur, nil)
	if err != nil {
		return nil, err
	}
	// Each epoch is a replica of the same work on a fresh wolfd; the
	// run reports the median over epochs of each epoch's median and
	// tail, so one epoch that met a burst of neighbour load on a shared
	// machine does not move the result.
	perEpoch, perSecond := o.checkEpochs(base)
	var p50s, tails, tailPcts, tailNs, setup, heap []float64
	for i, ph := range base {
		v, pct, n := tail(perEpoch[i])
		p50s = append(p50s, median(perEpoch[i]))
		tails, tailPcts, tailNs = append(tails, v), append(tailPcts, pct), append(tailNs, float64(n))
		setup = append(setup, ph.setup)
		heap = append(heap, ph.heapMB)
	}
	o.e2e["verdict_p50_ms"] = median(p50s)
	o.e2e["verdict_tail_ms"] = median(tails)
	o.e2e["jobs_per_s"] = perSecond
	o.e2e["setup_s"] = median(setup)
	o.e2e["peak_heap_mb"] = median(heap)
	tailPct, tailN := median(tailPcts), median(tailNs)
	o.layer["verdict_tail_pct"], o.layer["verdict_tail_samples"] = tailPct, tailN
	repeats := repeatShare(base)
	o.layer["repeat_share"] = repeats
	var cpu, wall time.Duration
	jobs := 0
	for _, ph := range base {
		cpu += ph.cpu
		wall += ph.wall
		jobs += len(ph.run.samples)
	}
	o.notef("process CPU per job %.3f ms, wall per job %.3f ms", ms(cpu)/float64(jobs), ms(wall)/float64(jobs))
	o.notef("%d epochs of %d sends (%d distinct traces); per epoch: tail p%.1f of %.0f measured verdicts; repeat share %.3f",
		len(base), len(sends), len(inputs), tailPct, tailN, repeats)
	if traced {
		if err := tracedWolfd(o, wl, seed, phaseDur, scratch, inputs, sends, median(p50s)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// tracedWolfd runs the traced epochs over the same inputs, takes the
// per-layer numbers from JobView stamps, the analyzers' transport and
// /metrics, then replays the first traced epoch's sends layer by layer.
// untracedP50 is the untraced epochs' median verdict.
func tracedWolfd(o *outcome, wl wolfdWorkload, seed int64, phaseDur time.Duration, scratch string, inputs []*input, sends []int, untracedP50 float64) error {
	tr := newTracer()
	phs, err := runEpochs(wl, inputs, sends, phaseDur, tr)
	if err != nil {
		return err
	}
	tracedEpochs, _ := o.checkEpochs(phs)
	var tracedP50s []float64
	for _, v := range tracedEpochs {
		tracedP50s = append(tracedP50s, median(v))
	}
	o.layer["tracing_overhead_frac"] = ratio(median(tracedP50s)-untracedP50, untracedP50)
	var admit, queue, service []float64
	for _, ph := range phs {
		for _, s := range ph.run.samples {
			if !s.measured || s.view.State != "done" {
				continue
			}
			q, sv := s.view.stamps()
			admit = append(admit, ms(s.admit))
			queue = append(queue, ms(q))
			service = append(service, ms(sv))
		}
	}
	o.layer["server.admit_ms"] = median(admit)
	o.layer["server.queue_wait_ms"] = median(queue)
	o.layer["server.service_ms"] = median(service)
	var pullMs, completeMs []float64
	var pulls, idle, renews, completes, work, pulled float64
	for _, ph := range phs {
		if ph.timelineOK == 0 {
			o.problemf("no job timeline parsed as a trace-event document")
		}
		if f := ph.fleetRT; f != nil {
			f.mu.Lock()
			pulls += float64(f.pulls)
			idle += float64(f.idle)
			renews += float64(f.renews)
			work += float64(f.pulls - f.idle)
			completes += float64(f.completes)
			pulled += float64(f.pulledBytes)
			pullMs = append(pullMs, f.pullMs...)
			completeMs = append(completeMs, f.completeMs...)
			f.mu.Unlock()
		}
	}
	o.layer["fleet.pulls"] = ratio(pulls, completes)
	o.layer["fleet.idle_pull_ratio"] = ratio(idle, pulls)
	o.layer["fleet.pull_ms"] = median(pullMs)
	o.layer["fleet.complete_ms"] = median(completeMs)
	o.layer["fleet.blob_bytes"] = ratio(pulled, work)
	if wl.fleet {
		o.notef("traced epochs: %.0f pulls (%.0f idle), %.0f lease renewals, %.0f completions", pulls, idle, renews, completes)
	}

	// Replay the first traced epoch's sends layer by layer, in send
	// order, against a fresh corpus, so puts dedup where a wolfd with a
	// corpus would.
	serviceBySend := make(map[int]float64)
	for _, s := range phs[0].run.samples {
		if s.view.State == "done" {
			_, sv := s.view.stamps()
			serviceBySend[s.send] = ms(sv)
		}
	}
	st, err := store.Open(filepath.Join(scratch, "corpus"))
	if err != nil {
		return err
	}
	defer st.Close()
	var lc layerCounts
	for k := 0; k < len(sends) && k < maxReplays; k++ {
		if err := replayJob(tr, st, "replay/send-"+strconv.Itoa(k), inputs[sends[k]], wl.fleet, &lc); err != nil {
			o.problemf("%v", err)
		}
	}
	layerMetrics(tr, &lc, o)
	// In fleet mode the analyzer also decodes the blob it pulled. The
	// lease grant, blob transfer and completion round trip are inside
	// service_ms too but are HTTP, timed as fleet.pull_ms and
	// fleet.complete_ms, so the ratio stays below 1 there. The corpus
	// steps are not blocking: the wolfd under test has no corpus.
	steps := blockingSteps
	if wl.fleet {
		steps = map[string]bool{"trace.decode": true}
		for name := range blockingSteps {
			steps[name] = true
		}
	}
	var accounted []float64
	for group, self := range tr.selfByGroup(steps) {
		k, _ := strconv.Atoi(strings.TrimPrefix(group, "replay/send-"))
		if sv, ok := serviceBySend[k]; ok && sv > 0 {
			accounted = append(accounted, self/sv)
		}
	}
	o.layer["service_accounted_ratio"] = median(accounted)
	if err := tr.write(filepath.Join(".bench_build", "spans"), fmt.Sprintf("%s-seed%d.json", wl.name, seed)); err != nil {
		o.notef("spans not written: %v", err)
	}
	return nil
}

// maxReplays bounds the layer-by-layer replays of a traced run.
const maxReplays = 150

// repeatShare is the measured share of sends that carried a trace sent
// earlier in the epoch.
func repeatShare(phs []*wolfdPhase) float64 {
	n, rep := 0, 0
	for _, ph := range phs {
		first := make(map[int]int)
		for k, in := range ph.run.sends {
			if _, ok := first[in]; !ok {
				first[in] = k
			}
		}
		for _, s := range ph.run.samples {
			if !s.measured {
				continue
			}
			n++
			if first[s.input] != s.send {
				rep++
			}
		}
	}
	return ratio(float64(rep), float64(n))
}

// checkEpochs folds the epochs' checks and counts into o and returns
// each epoch's measured verdict latencies (ms) and the verdicts per
// second over all epochs.
func (o *outcome) checkEpochs(phs []*wolfdPhase) ([][]float64, float64) {
	var perEpoch [][]float64
	completed, window := 0, 0.0
	for _, ph := range phs {
		r := ph.run
		o.attempted += len(r.samples) + r.refused
		o.failed += r.failedJobs + r.refused
		o.problems = append(o.problems, r.mismatches...)
		done := len(r.samples) - r.failedJobs
		if got := ph.counters["wolfd_jobs_completed_total"]; int(got) != done {
			o.problemf("/metrics wolfd_jobs_completed_total %v, client saw %d done", got, done)
		}
		if got := ph.counters["wolfd_jobs_failed_total"]; int(got) != r.failedJobs {
			o.problemf("/metrics wolfd_jobs_failed_total %v, client saw %d failed", got, r.failedJobs)
		}
		if got := ph.counters["wolfd_jobs_rejected_total"]; int(got) != 0 {
			o.problemf("/metrics wolfd_jobs_rejected_total %v, want 0", got)
		}
		if len(r.samples)+r.refused != len(r.sends) {
			o.problemf("epoch made %d of %d sends", len(r.samples)+r.refused, len(r.sends))
		}
		var verdicts []float64
		for _, s := range r.samples {
			if s.measured && s.view.State == "done" {
				verdicts = append(verdicts, ms(s.verdict))
			}
		}
		if len(verdicts) == 0 {
			o.problemf("an epoch measured no verdict")
		}
		perEpoch = append(perEpoch, verdicts)
		completed += ph.completed
		window += ph.window.Seconds()
	}
	return perEpoch, ratio(float64(completed), window)
}
