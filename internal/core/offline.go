package core

import (
	"context"

	"wolf/internal/detect"
	"wolf/internal/obs"
	"wolf/internal/trace"
	"wolf/sim"
)

// AnalyzeTrace runs the offline half of the pipeline — cycle detection,
// Pruner and Generator — on a previously recorded trace (see the trace
// package's Write/Read). Replay needs the program, so surviving
// potential deadlocks stay Unknown; use Analyze for the full pipeline.
func AnalyzeTrace(tr *trace.Trace, cfg Config) *Report {
	rep, _ := AnalyzeTraceCtx(context.Background(), tr, cfg)
	return rep
}

// AnalyzeTraceCtx is AnalyzeTrace with cooperative cancellation for
// long-running callers such as the wolfd service: the context is checked
// between phases and between cycles within a phase, so a per-job timeout
// or a client disconnect abandons the analysis promptly instead of
// pinning a worker. On cancellation the partial report built so far is
// returned alongside the context's error.
//
// Phase timings are derived from obs spans ("cycle-detect", "prune",
// "generate"); when the caller's context carries a recorder — wolfd
// attaches one per job — the same spans feed its latency histograms.
func AnalyzeTraceCtx(ctx context.Context, tr *trace.Trace, cfg Config) (*Report, error) {
	rec := obs.FromContext(ctx)
	if rec == nil {
		rec = obs.NewRecorder()
		ctx = obs.WithRecorder(ctx, rec)
	}
	mark := rec.Mark()
	rep := &Report{Tool: "wolf(offline)"}
	finish := func() (*Report, error) {
		rep.Timings = TimingsFromRecorder(rec, mark)
		rep.group()
		return rep, ctx.Err()
	}

	_, sp := obs.Start(ctx, "cycle-detect")
	cycles := detect.CyclesCtx(ctx, tr, detect.Config{MaxLength: cfg.MaxCycleLen})
	for _, c := range cycles {
		rep.Cycles = append(rep.Cycles, &CycleReport{Cycle: c, Trace: tr})
	}
	sp.Add("cycles", int64(len(cycles)))
	sp.End()
	if ctx.Err() != nil {
		return finish()
	}

	_, sp = obs.Start(ctx, "prune")
	if !cfg.DisablePruner {
		// One batched PruneCtx call for the whole trace: a single
		// "pruner.prune" span carries the aggregate cycle counts instead
		// of one cycles=1 span per cycle.
		pruneCycles(ctx, rep.Cycles)
	}
	sp.End()
	if ctx.Err() != nil {
		return finish()
	}

	// Generator fan-out across the configured worker pool; see
	// forEachCycle for why the result is schedule-independent.
	_, sp = obs.Start(ctx, "generate")
	generateCycles(ctx, rep.Cycles, &cfg)
	sp.End()

	return finish()
}

// Record performs one instrumented run with the given seed and returns
// the recorded trace, for offline analysis or archiving.
func Record(f sim.Factory, seed int64, maxSteps int) *trace.Trace {
	tr, _ := record(f, seed, maxSteps, true)
	return tr
}
