package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"wolf"
	"wolf/internal/core"
	"wolf/internal/detect"
	"wolf/internal/fingerprint"
	"wolf/internal/replay"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

const (
	// replayAttempts is the paper's replay budget per cycle.
	replayAttempts = 5
	// paperPassSeconds is roughly one pass on a two-core machine. The
	// pass count of a run is seconds/paperPassSeconds, fixed by the
	// command line rather than by the machine's speed, so every run of
	// a given length has the same verdict samples and the same tail
	// percentile.
	//
	// A pass is dominated by Jigsaw's replay: its trace holds 137
	// cycles, most survive pruning and generation, and each survivor
	// costs up to replayAttempts steered re-executions of the whole
	// program. This workload can therefore show gains in the sim
	// scheduler and internal/replay, and little else.
	paperPassSeconds = 7
	// paperSetupReps is how many times a run repeats the seed search.
	paperSetupReps = 5
)

// paperProgram is one program of the paper's evaluation with its fixed
// detection seed and the cycles detection finds on its recorded trace.
type paperProgram struct {
	name     string
	factory  sim.Factory
	seed     int64
	detected map[string]int
}

// paperPrograms is the Table 1 set plus the paper's Figures 2, 4 and 9.
func paperPrograms() []workloads.Workload {
	ws := workloads.All()
	for _, name := range []string{"Figure2", "Figure4", "Figure9"} {
		w, _ := workloads.ByName(name)
		ws = append(ws, w)
	}
	return ws
}

// seedSearch is the paper pipeline's set-up: the smallest terminating
// detection seed of every program, as cmd/paper finds it.
func seedSearch() ([]*paperProgram, error) {
	var progs []*paperProgram
	for _, w := range paperPrograms() {
		seed, ok := workloads.FindTerminatingSeed(w.New, 300)
		if !ok {
			return nil, fmt.Errorf("%s: no terminating seed", w.Name)
		}
		progs = append(progs, &paperProgram{name: w.Name, factory: w.New, seed: seed})
	}
	return progs, nil
}

func fingerprintCounts(cycles []*detect.Cycle) map[string]int {
	out := make(map[string]int, len(cycles))
	for _, c := range cycles {
		out[fingerprint.Of(c)]++
	}
	return out
}

// runPaper runs wolf.Analyze over every program per pass, in a seeded
// order, and checks each report's cycle set against detection on the
// program's recorded trace.
func runPaper(seed int64, dur time.Duration, traced bool, scratch string) (*outcome, error) {
	o := newOutcome()
	var setup []float64
	var progs []*paperProgram
	for i := 0; i < paperSetupReps; i++ {
		t0 := time.Now()
		p, err := seedSearch()
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		progs = p
	}
	for _, p := range progs {
		tr := core.Record(p.factory, p.seed, 0)
		p.detected = fingerprintCounts(detect.Cycles(tr, detect.Config{}))
	}
	passes := max(1, int(dur/(paperPassSeconds*time.Second)))
	if traced {
		passes = max(1, passes/2)
	}
	rng := rand.New(rand.NewSource(seed))
	classes := make(map[string]map[string]int)
	var programMs, passTimes []float64
	var instrumented, uninstrumented time.Duration
	confirmed := -1
	var heaps []float64
	for pass := 0; pass < passes; pass++ {
		var passTime time.Duration
		heap := 0.0
		n := 0
		for _, i := range rng.Perm(len(progs)) {
			p := progs[i]
			tp := time.Now()
			rep := wolf.Analyze(p.factory, wolf.Config{DetectSeeds: []int64{p.seed}, ReplayAttempts: replayAttempts})
			d := time.Since(tp)
			passTime += d
			programMs = append(programMs, ms(d))
			o.attempted++
			instrumented += rep.Timings.Instrumented
			uninstrumented += rep.Timings.Uninstrumented
			var got []*detect.Cycle
			for _, cr := range rep.Cycles {
				got = append(got, cr.Cycle)
				if cr.Class == core.Confirmed {
					n++
				}
			}
			if !sameCounts(fingerprintCounts(got), p.detected) {
				o.problemf("%s: report cycles differ from detection on its recorded trace", p.name)
			}
			cc := classCounts(rep)
			if prev, ok := classes[p.name]; ok && !sameCounts(prev, cc) {
				o.problemf("%s: verdicts changed between passes", p.name)
			}
			classes[p.name] = cc
			heap = max(heap, liveHeapMB())
			runtime.KeepAlive(rep)
		}
		passTimes = append(passTimes, passTime.Seconds())
		heaps = append(heaps, heap)
		if confirmed >= 0 && n != confirmed {
			o.problemf("pass %d confirmed %d cycles, pass 0 confirmed %d", pass, n, confirmed)
		}
		confirmed = n
	}
	// A verdict here is one pass: the suite's verdicts all arrive with
	// it. Per-program times are no steadier gate: eight of the fourteen
	// programs analyze in about half a millisecond and the rest take
	// one to several, so their median sits on the boundary between the
	// two groups and jumps with scheduler noise.
	var passMs []float64
	for _, p := range passTimes {
		passMs = append(passMs, p*1e3)
	}
	o.e2e["peak_heap_mb"] = median(heaps)
	o.e2e["verdict_p50_ms"] = median(passMs)
	tailV, tailPct, tailN := tail(passMs)
	o.e2e["verdict_tail_ms"] = tailV
	o.e2e["jobs_per_s"] = float64(len(programMs)) / sum(passTimes)
	o.e2e["setup_s"] = median(setup)
	o.layer["verdict_tail_pct"], o.layer["verdict_tail_samples"] = tailPct, float64(tailN)
	o.layer["pass_s"] = median(passTimes)
	o.layer["confirmed_cycles"] = float64(confirmed)
	o.layer["record_overhead_x"] = ratio(float64(instrumented), float64(uninstrumented))
	o.notef("%d passes over %d programs, pass %.3fs, program median %.3f ms, %d cycles confirmed per pass",
		passes, len(progs), median(passTimes), median(programMs), confirmed)
	if !traced {
		return o, nil
	}

	// Traced passes: the same pipeline, one layer call at a time.
	tr := newTracer()
	var lc layerCounts
	var tracedPasses []float64
	attempts, fallback, hits, steps, recorded := 0, 0, 0, 0, 0
	ctx := context.Background()
	for pass := 0; pass < passes; pass++ {
		t0 := time.Now()
		for _, i := range rng.Perm(len(progs)) {
			p := progs[i]
			group := fmt.Sprintf("%s#%d", p.name, pass)
			root := tr.begin(group, "program", 0)
			var t *trace.Trace
			tr.do(group, "core.record", root, func() { t = core.Record(p.factory, p.seed, 0) })
			var err error
			tr.do(group, "trace.validate", root, func() { err = trace.Validate(t) })
			if err != nil {
				o.problemf("%s: recorded trace invalid: %v", p.name, err)
			}
			steps += t.Steps
			recorded++
			rep := analyzeLayers(ctx, tr, group, root, t, &lc)
			lc.jobs++
			for _, cr := range rep.Cycles {
				if cr.Class != core.Unknown {
					continue
				}
				var res replay.Result
				tr.do(group, "replay.reproduce", root, func() {
					res = replay.ReproduceCtx(ctx, p.factory, cr.Gs, cr.Cycle, replay.Config{Attempts: replayAttempts})
				})
				attempts += res.Attempts
				fallback += res.FallbackAttempts
				if res.Reproduced {
					cr.Class = core.Confirmed
					hits++
				}
			}
			tr.end(root)
			if got := classCounts(rep); !sameCounts(got, classes[p.name]) {
				o.problemf("%s: layer-by-layer verdicts differ from wolf.Analyze", p.name)
			}
		}
		tracedPasses = append(tracedPasses, time.Since(t0).Seconds())
	}
	layerMetrics(tr, &lc, o)
	self := tr.selfByName()
	o.layer["sim.steps"] = ratio(float64(steps), float64(recorded))
	o.layer["replay.attempts"] = float64(attempts) / float64(passes)
	o.layer["replay.fallback_attempts"] = float64(fallback) / float64(passes)
	o.layer["replay.hit_ratio"] = ratio(float64(hits), float64(attempts))
	o.layer["replay.attempt_ms"] = ratio(sum(self["replay.reproduce"]), float64(attempts))
	o.layer["tracing_overhead_frac"] = ratio(median(tracedPasses)-median(passTimes), median(passTimes))
	if err := tr.write(".bench_build/spans", fmt.Sprintf("paper_pipeline-seed%d.json", seed)); err != nil {
		o.notef("spans not written: %v", err)
	}
	return o, nil
}
