package replay_test

import (
	"testing"

	"wolf/internal/core"
	"wolf/internal/replay"
	"wolf/internal/workloads"
)

// BenchmarkReplayAttempt measures one steered re-execution of Jigsaw —
// the unit of work that dominates the paper pipeline (its trace holds
// 137 cycles, each replayed up to five times). The cycle is the first
// one that survives pruning and generation and that the benchmark's
// seed reproduces, so every iteration runs the whole program into the
// same deadlock. allocs/op tracks the scheduler's per-step allocations.
func BenchmarkReplayAttempt(b *testing.B) {
	wl, ok := workloads.ByName("Jigsaw")
	if !ok {
		b.Fatal("Jigsaw not registered")
	}
	seed, ok := workloads.FindTerminatingSeed(wl.New, 300)
	if !ok {
		b.Fatal("Jigsaw: no terminating seed")
	}
	rep := core.AnalyzeTrace(core.Record(wl.New, seed, 0), core.Config{Parallelism: 1})
	const attemptSeed = 0
	var target *core.CycleReport
	for _, cr := range rep.Cycles {
		if cr.Class != core.Unknown {
			continue
		}
		if replay.Hit(replay.Attempt(wl.New, cr.Gs, cr.Cycle, attemptSeed, 0), cr.Cycle) {
			target = cr
			break
		}
	}
	if target == nil {
		b.Fatal("Jigsaw: no cycle reproduced by a single steered attempt")
	}
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		out := replay.Attempt(wl.New, target.Gs, target.Cycle, attemptSeed, 0)
		if !replay.Hit(out, target.Cycle) {
			b.Fatalf("attempt %d missed: %v", i, out.Kind)
		}
		steps += out.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}
