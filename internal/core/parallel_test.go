package core_test

// The determinism contract of the per-cycle fan-out (Generator and
// Replayer): the JSON report produced at any Config.Parallelism must be
// byte-identical to the sequential Parallelism=1 run. Wall-clock phase
// timings can never be byte-stable across runs, so the tests first
// assert they are populated and then zero them before comparing;
// everything else — cycle order, verdicts, graph sizes, prune reasons,
// defect grouping, replay attempts, confirming method, fallback attempts
// and divergence histograms — must match exactly. Run under -race (CI
// does) this also proves the worker pool is data-race free.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"wolf/internal/core"
	"wolf/internal/replay"
	"wolf/internal/report"
	"wolf/internal/sdg"
	"wolf/internal/trace"
	"wolf/internal/workloads"
	"wolf/sim"
)

// valueFlowFactory builds a workload with `pairs` independent lock
// inversions plus cross-thread value flow, so analysis exercises every
// parallelized code path: many cycles, type-C context edges and type-V
// data edges with foreign producers.
func valueFlowFactory(pairs, iters int) sim.Factory {
	return func() (sim.Program, sim.Options) {
		type pairLocks struct {
			l, r *sim.Lock
			vars []*sim.Var
		}
		pls := make([]*pairLocks, pairs)
		opts := sim.Options{Setup: func(w *sim.World) {
			for p := 0; p < pairs; p++ {
				pl := &pairLocks{
					l: w.NewLock(fmt.Sprintf("A%d", p)),
					r: w.NewLock(fmt.Sprintf("B%d", p)),
				}
				for i := 0; i < iters; i++ {
					pl.vars = append(pl.vars, w.NewVar(fmt.Sprintf("v%d_%d", p, i), 0))
				}
				pls[p] = pl
			}
		}}
		body := func(p int, flip, writer bool) sim.Program {
			return func(u *sim.Thread) {
				pl := pls[p]
				for i := 0; i < iters; i++ {
					if writer {
						u.Store(pl.vars[i], i, "store")
					} else {
						u.Load(pl.vars[i], "load")
					}
				}
				first, second := pl.l, pl.r
				if flip {
					first, second = pl.r, pl.l
				}
				u.Lock(first, "inv1")
				u.Lock(second, "inv2")
				u.Unlock(second, "inv2u")
				u.Unlock(first, "inv1u")
			}
		}
		prog := func(th *sim.Thread) {
			var hs []*sim.Thread
			for p := 0; p < pairs; p++ {
				hs = append(hs, th.Go(fmt.Sprintf("a%d", p), body(p, false, true), "sa"))
				hs = append(hs, th.Go(fmt.Sprintf("b%d", p), body(p, true, false), "sb"))
			}
			for _, h := range hs {
				th.Join(h, "j")
			}
		}
		return prog, opts
	}
}

// terminatingSeeds returns the first `want` seeds whose recorded run
// terminates, so detection sees complete traces.
func terminatingSeeds(t *testing.T, f sim.Factory, want int) []int64 {
	t.Helper()
	var seeds []int64
	for seed := int64(1); seed <= 300 && len(seeds) < want; seed++ {
		prog, opts := f()
		if out := sim.Run(prog, sim.NewRandomStrategy(seed), opts); out.Kind == sim.Terminated {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < want {
		t.Fatalf("found %d terminating seeds, want %d", len(seeds), want)
	}
	return seeds
}

// normalizedReport marshals the analysis report after asserting the
// timings are populated and zeroing them (the only fields that cannot
// be byte-stable across runs).
func normalizedReport(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	jr := report.FromCore(rep)
	if jr.Timings.CycleDetectNs <= 0 || jr.Timings.GenerateNs <= 0 {
		t.Fatalf("phase timings not populated: %+v", jr.Timings)
	}
	jr.Timings = report.JSONTimings{}
	buf, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return buf
}

func TestAnalyzeTraceParallelDeterminism(t *testing.T) {
	type tcase struct {
		name string
		tr   *trace.Trace
	}
	var cases []tcase

	vf := valueFlowFactory(4, 25)
	for _, seed := range terminatingSeeds(t, vf, 3) {
		cases = append(cases, tcase{
			name: fmt.Sprintf("valueflow/seed%d", seed),
			tr:   core.Record(vf, seed, 0),
		})
	}
	for _, name := range []string{"Figure4", "Figure2", "cache4j"} {
		wl, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		seed := terminatingSeeds(t, wl.New, 1)[0]
		cases = append(cases, tcase{
			name: fmt.Sprintf("%s/seed%d", name, seed),
			tr:   core.Record(wl.New, seed, 0),
		})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{DataDependency: true, Parallelism: 1}
			want := normalizedReport(t, core.AnalyzeTrace(tc.tr, cfg))
			for _, par := range []int{2, 4, 8} {
				cfg.Parallelism = par
				got := normalizedReport(t, core.AnalyzeTrace(tc.tr, cfg))
				if !bytes.Equal(want, got) {
					t.Fatalf("Parallelism=%d report differs from sequential:\n--- p1 ---\n%s\n--- p%d ---\n%s",
						par, want, par, got)
				}
			}
		})
	}
}

func TestAnalyzeParallelDeterminism(t *testing.T) {
	type tcase struct {
		name string
		f    sim.Factory
		cfg  core.Config
	}
	fig9, _ := workloads.ByName("Figure9")
	arrayList, _ := workloads.ByName("ArrayList")
	vf := valueFlowFactory(4, 25)
	cases := []tcase{
		// Steered confirmations plus one cycle every attempt misses,
		// which runs the fallback pass and stays unknown.
		{"Figure9", fig9.New, core.Config{DetectSeeds: terminatingSeeds(t, fig9.New, 4)}},
		// Twelve cycles, several confirmed only after a wrong-deadlock
		// miss.
		{"ArrayList", arrayList.New, core.Config{DetectSeeds: terminatingSeeds(t, arrayList.New, 2)}},
		// Ablated steering under fault injection: confirmations by the
		// fallback pass, and the injector's own randomness per attempt.
		{"ArrayList/ablated+faults", arrayList.New, core.Config{
			DetectSeeds: terminatingSeeds(t, arrayList.New, 2),
			EdgeKinds:   sdg.P,
			Faults:      sim.FaultConfig{Rate: 0.2, Seed: 3},
		}},
		// Type-V edges steer loads as well as acquisitions.
		{"valueflow", vf, core.Config{DetectSeeds: terminatingSeeds(t, vf, 3), DataDependency: true}},
	}

	verdicts := make(map[string]int)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Parallelism = 1
			seq := core.Analyze(tc.f, cfg)
			for _, cr := range seq.Cycles {
				verdicts[cr.Class.String()+"/"+string(cr.ReplayMethod)]++
			}
			want := normalizedReport(t, seq)
			for _, par := range []int{2, 4, 8} {
				cfg.Parallelism = par
				got := normalizedReport(t, core.Analyze(tc.f, cfg))
				if !bytes.Equal(want, got) {
					t.Fatalf("Parallelism=%d report differs from sequential:\n--- p1 ---\n%s\n--- p%d ---\n%s",
						par, want, par, got)
				}
			}
		})
	}
	// The cases must keep exercising every replay outcome.
	for _, v := range []string{"confirmed/steering", "confirmed/fallback", "unknown/"} {
		if verdicts[v] == 0 {
			t.Errorf("no cycle with verdict %q across the cases: %v", v, verdicts)
		}
	}
}

// TestAnalyzeReplayCancellation: a context cancelled during the first
// cycle's replay stops the replay stage. Cycles the pool never reached
// keep zero attempts and an empty divergence histogram instead of each
// reporting a "cancelled" run that never happened.
func TestAnalyzeReplayCancellation(t *testing.T) {
	wl, _ := workloads.ByName("ArrayList")
	seed := terminatingSeeds(t, wl.New, 1)[0]
	// With one detection seed the baseline runs the program three times
	// and detection records it once, so call five is the first replay
	// attempt.
	const firstReplayCall = 5
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", par), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			f := func() (sim.Program, sim.Options) {
				if calls.Add(1) == firstReplayCall {
					cancel()
				}
				return wl.New()
			}
			rep := core.AnalyzeCtx(ctx, f, core.Config{DetectSeeds: []int64{seed}, Parallelism: par})
			if len(rep.Cycles) < 2 {
				t.Fatalf("need several cycles reaching replay, got %d", len(rep.Cycles))
			}
			reached := 0
			for i, cr := range rep.Cycles {
				if cr.ReplayAttempts == 0 {
					if cr.FallbackAttempts != 0 || len(cr.Divergence) != 0 || cr.Class != core.Unknown {
						t.Errorf("cycle %d not reached but reports %+v", i, cr)
					}
					continue
				}
				reached++
				if cr.ReplayAttempts != 1 || cr.Divergence[replay.DivergenceCancelled] != 1 || cr.Class != core.Unknown {
					t.Errorf("cycle %d: attempts %d divergence %v class %v, want one cancelled attempt",
						i, cr.ReplayAttempts, cr.Divergence, cr.Class)
				}
			}
			if par == 1 && rep.Cycles[0].ReplayAttempts != 1 {
				t.Errorf("first cycle reports %d attempts, want the one cancelled run", rep.Cycles[0].ReplayAttempts)
			}
			if reached < 1 || reached > par {
				t.Errorf("%d cycles reached replay, want 1..%d (the runs in flight at cancellation)", reached, par)
			}
		})
	}
}
