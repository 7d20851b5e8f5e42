package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"wolf/internal/core"
	"wolf/internal/fingerprint"
	"wolf/internal/store"
	"wolf/internal/trace"
	"wolf/internal/vclock"
	"wolf/internal/workloads"
	"wolf/sim"
)

// input is one trace the wolfd workloads send: its WTRC bytes, content
// address, and the batch detector's verdict on it (the oracle every
// wolfd report is checked against).
type input struct {
	name   string
	wtrc   []byte
	hash   string
	tuples int
	// oracle maps "fingerprint class" to its count in a direct
	// core.AnalyzeTrace report of the same trace.
	oracle map[string]int
}

// registryMix lists the registry workloads whose seeded schedules give
// many distinct traces (the collection harnesses collapse to a handful
// of interleavings, so they would make batch_unique repeat itself).
var registryMix = []string{"Jigsaw", "cache4j", "AppServer", "TaskQueue", "Philosophers", "GlobalLockFixed"}

// genInput makes input i of n from its own seed, so inputs can be made
// in parallel and a traced run sees the inputs its untraced twin saw.
// The mix is stratified rather than sampled: two inputs in five are
// registry recordings, cycling through registryMix, and the rest are
// synthetic inversion traces with 2..8 inversion pairs in turn whose
// sizes cover 300..13k tuples log-uniformly in equal strata, each
// jittered within its stratum. Every seed therefore sends the same shape
// of work; the seed picks the schedules, the jitter and the send order. Draws that give an empty or
// invalid trace are redrawn.
func genInput(seed int64, i, n int) (*input, error) {
	rng := rand.New(rand.NewSource(seed))
	for tries := 0; tries < 100; tries++ {
		name, tr := draw(rng, i, n)
		if len(tr.Tuples) == 0 || trace.Validate(tr) != nil {
			continue
		}
		hash, wtrc, err := store.HashTrace(tr)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", name, err)
		}
		return &input{name: name, wtrc: wtrc, hash: hash, tuples: len(tr.Tuples), oracle: oracleOf(tr)}, nil
	}
	return nil, fmt.Errorf("input %d: no valid trace in 100 draws", i)
}

// genInputs makes n inputs from the run seed on nproc goroutines. With
// unique set, an input whose content address repeats an earlier one is
// redrawn from a salted seed until every trace is distinct.
func genInputs(seed int64, n int, unique bool) ([]*input, error) {
	inputs := make([]*input, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				inputs[i], errs[i] = genInput(inputSeed(seed, i, 0), i, n)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if !unique {
		return inputs, nil
	}
	seen := make(map[string]bool, n)
	for i, in := range inputs {
		for salt := 1; seen[in.hash]; salt++ {
			if salt > 1000 {
				return nil, fmt.Errorf("input %d: no distinct trace in 1000 redraws", i)
			}
			var err error
			if in, err = genInput(inputSeed(seed, i, salt), i, n); err != nil {
				return nil, err
			}
		}
		seen[in.hash] = true
		inputs[i] = in
	}
	return inputs, nil
}

func inputSeed(seed int64, i, salt int) int64 {
	return seed*1_000_003 + int64(i)*7919 + int64(salt)*104_729_113
}

// draw records input i of n (see genInput for the mix).
func draw(rng *rand.Rand, i, n int) (string, *trace.Trace) {
	seed := rng.Int63n(1<<31) + 1
	if i%5 < 2 {
		name := registryMix[(i/5*2+i%5)%len(registryMix)]
		wl, _ := workloads.ByName(name)
		return name, core.Record(wl.New, seed, 0)
	}
	synth := n - (n/5*2 + min(n%5, 2))
	j := i/5*3 + i%5 - 2
	q := (float64(j) + rng.Float64()) / float64(synth)
	target := math.Exp(math.Log(300) + q*(math.Log(13000)-math.Log(300)))
	pairs := 2 + j%7
	iters := max(10, min(400, int(target/float64(4*pairs))))
	return fmt.Sprintf("inversion-%dx%d", pairs, iters), inversionTrace(pairs, iters, seed)
}

// oracleOf runs the batch pipeline wolfd runs on every job and keys
// its cycles by fingerprint and class.
func oracleOf(tr *trace.Trace) map[string]int {
	rep := core.AnalyzeTrace(tr, core.Config{})
	out := make(map[string]int, len(rep.Cycles))
	for _, cr := range rep.Cycles {
		out[fingerprint.Of(cr.Cycle)+" "+cr.Class.String()]++
	}
	return out
}

// inversionTrace records the synthetic shape of the core package's
// pipeline benchmark: `pairs` independent lock inversions, each between
// two threads that first run `iters` iterations of nested noise
// acquisitions and cross-thread value flow. The schedule is seeded; a
// seed whose run deadlocks is skipped for the next one, so the trace is
// always a complete execution.
func inversionTrace(pairs, iters int, seed int64) *trace.Trace {
	type pairLocks struct {
		l, r, n1, n2 *sim.Lock
		vars         []*sim.Var
	}
	for s := seed; ; s++ {
		pls := make([]*pairLocks, pairs)
		opts := sim.Options{MaxSteps: 10_000_000, Setup: func(w *sim.World) {
			for p := 0; p < pairs; p++ {
				pl := &pairLocks{
					l:  w.NewLock(fmt.Sprintf("A%d", p)),
					r:  w.NewLock(fmt.Sprintf("B%d", p)),
					n1: w.NewLock(fmt.Sprintf("n1_%d", p)),
					n2: w.NewLock(fmt.Sprintf("n2_%d", p)),
				}
				for i := 0; i < iters; i++ {
					pl.vars = append(pl.vars, w.NewVar(fmt.Sprintf("v%d_%d", p, i), 0))
				}
				pls[p] = pl
			}
		}}
		body := func(p int, inverted, writer bool) sim.Program {
			return func(u *sim.Thread) {
				pl := pls[p]
				for i := 0; i < iters; i++ {
					u.Lock(pl.n1, "noise1")
					u.Lock(pl.n2, "noise2")
					u.Unlock(pl.n2, "noise2u")
					u.Unlock(pl.n1, "noise1u")
					if writer {
						u.Store(pl.vars[i], i, "store")
					} else {
						u.Load(pl.vars[i], "load")
					}
				}
				first, second := pl.l, pl.r
				if inverted {
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
		vt := vclock.NewTracker()
		rec := trace.NewRecorder(vt)
		opts.Listeners = []sim.Listener{vt, rec}
		if out := sim.Run(prog, sim.NewRandomStrategy(s), opts); out.Kind == sim.Terminated {
			return rec.Finish(s)
		}
	}
}
