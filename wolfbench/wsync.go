package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"wolf/internal/core"
	"wolf/internal/detect"
	"wolf/internal/trace"
	"wolf/wolfsync"
)

const (
	// wsSections is the number of nested two-lock critical sections each
	// goroutine runs per round (two Lock+Unlock pairs each).
	wsSections = 1000
	// wsPrivate is the number of per-goroutine locks and wsShared the
	// number of locks every goroutine takes; shared locks are always
	// taken in index order, so only the planted pairs invert.
	wsPrivate = 4
	wsShared  = 4
	// wsSharedShare is the fraction of sections on shared locks.
	wsSharedShare = 0.2
	// wsPlanted is the number of planted inversions per round; the seed
	// picks their goroutines and positions.
	wsPlanted = 3
)

// wsPlan is one round's seeded schedule of critical sections: per
// goroutine, the lock pair of each section, and the planted inversions.
type wsPlan struct {
	sections [][][2]int // goroutine → section → (outer, inner) lock index
	planted  []inversion
}

// inversion is a planted lock-order inversion: goroutine a takes x then
// y in the first phase of the round, goroutine b takes y then x in the
// second. The phases never overlap, so the program cannot deadlock, but
// the recorded lock order has exactly one cycle per inversion.
type inversion struct {
	a, b, at, bt int // goroutines and the section index they plant at
	x, y         int // lock indexes
}

// newWsPlan draws the rounds' plan from seed. Lock indexes: the private
// locks of goroutine g are g*wsPrivate+[0,wsPrivate), then come the
// shared locks, then two locks per planted inversion.
func newWsPlan(seed int64, nproc int) *wsPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &wsPlan{sections: make([][][2]int, nproc)}
	shared := nproc * wsPrivate
	for g := range p.sections {
		secs := make([][2]int, wsSections)
		for i := range secs {
			if rng.Float64() < wsSharedShare {
				a, b := rng.Intn(wsShared), rng.Intn(wsShared-1)
				if b >= a {
					b++
				}
				secs[i] = [2]int{shared + min(a, b), shared + max(a, b)}
			} else {
				a, b := rng.Intn(wsPrivate), rng.Intn(wsPrivate-1)
				if b >= a {
					b++
				}
				secs[i] = [2]int{g*wsPrivate + a, g*wsPrivate + b}
			}
		}
		p.sections[g] = secs
	}
	next := shared + wsShared
	for k := 0; k < wsPlanted; k++ {
		a := rng.Intn(nproc)
		b := (a + 1 + rng.Intn(nproc-1)) % nproc
		p.planted = append(p.planted, inversion{a: a, b: b, at: rng.Intn(wsSections / 2), bt: wsSections/2 + rng.Intn(wsSections/2), x: next, y: next + 1})
		next += 2
	}
	return p
}

func (p *wsPlan) numLocks() int { return len(p.sections)*wsPrivate + wsShared + 2*len(p.planted) }

// pairs is the number of Lock+Unlock pairs one goroutine performs.
func (p *wsPlan) pairs(g int) int {
	n := 2 * len(p.sections[g])
	for _, inv := range p.planted {
		if inv.a == g {
			n += 2
		}
		if inv.b == g {
			n += 2
		}
	}
	return n
}

// runRound runs the plan on the given locks with nproc goroutines
// started by spawn, and returns the wall time. The round's halves are
// separated by a barrier the recorder does not see.
func runRound[L sync.Locker](p *wsPlan, locks []L, spawn func(name string, fn func())) time.Duration {
	nproc := len(p.sections)
	var half, done sync.WaitGroup
	half.Add(nproc)
	done.Add(nproc)
	t0 := time.Now()
	for g := 0; g < nproc; g++ {
		spawn("w", func() {
			defer done.Done()
			secs := p.sections[g]
			mid := len(secs) / 2
			for i, s := range secs {
				if i == mid {
					half.Done()
					half.Wait()
				}
				for _, inv := range p.planted {
					if inv.a == g && inv.at == i {
						section(locks[inv.x], locks[inv.y])
					}
					if inv.b == g && inv.bt == i {
						section(locks[inv.y], locks[inv.x])
					}
				}
				section(locks[s[0]], locks[s[1]])
			}
		})
	}
	done.Wait()
	return time.Since(t0)
}

func section[L sync.Locker](outer, inner L) {
	outer.Lock()
	inner.Lock()
	inner.Unlock()
	outer.Unlock()
}

// runWolfsync alternates recorded rounds on wolfsync.Mutex with the
// same rounds on sync.Mutex. Each recorded round's trace is snapshotted,
// decoded, validated and analyzed; its cycles must be exactly the
// planted inversions. The recorder is the only layer doing work here,
// so this workload is the paper's recording-overhead column for real Go
// programs.
func runWolfsync(seed int64, dur time.Duration, traced bool, scratch string) (*outcome, error) {
	o := newOutcome()
	nproc := runtime.NumCPU()
	if nproc < 2 {
		return nil, fmt.Errorf("wolfsync_mutex needs at least 2 CPUs for its inversions")
	}
	plan := newWsPlan(seed, nproc)
	wsLocks := make([]*wolfsync.Mutex, plan.numLocks())
	syncLocks := make([]*sync.Mutex, plan.numLocks())
	for i := range wsLocks {
		wsLocks[i] = wolfsync.NewMutex(fmt.Sprintf("L%d", i))
		syncLocks[i] = &sync.Mutex{}
	}
	want := make(map[string]bool)
	for _, inv := range plan.planted {
		want[lockPair(wsLocks[inv.x].Name(), wsLocks[inv.y].Name())] = true
	}
	ws := &wsRun{plan: plan, wsLocks: wsLocks, syncLocks: syncLocks, want: want}

	phase := dur
	if traced {
		phase = dur / 2
	}
	if err := ws.rounds(o, phase, nil, nil); err != nil {
		return nil, err
	}
	o.e2e["peak_heap_mb"] = median(ws.heaps)
	o.e2e["verdict_p50_ms"] = median(ws.verdicts)
	tailV, tailPct, tailN := tail(ws.verdicts)
	o.e2e["verdict_tail_ms"] = tailV
	o.e2e["jobs_per_s"] = float64(len(ws.verdicts)) / ws.wall.Seconds()
	o.e2e["setup_s"] = median(ws.setup)
	perG := float64(plan.pairs(0))
	o.layer["verdict_tail_pct"], o.layer["verdict_tail_samples"] = tailPct, float64(tailN)
	o.layer["lock_pair_ns"] = median(ws.wsNs) / perG
	o.layer["record_overhead_x"] = ratio(median(ws.wsNs), median(ws.syncNs))
	o.layer["wolfsync.events"] = ratio(float64(ws.events), float64(len(ws.wsNs)))
	o.layer["wolfsync.snapshot_ms"] = median(ws.snaps)
	o.notef("%d recorded rounds of %d goroutines × %d lock pairs, %d planted inversions; lock pair %.1f ns (sync.Mutex %.1f ns), tail p%.1f of %d samples",
		len(ws.wsNs), nproc, int(perG), len(plan.planted), median(ws.wsNs)/perG, median(ws.syncNs)/perG, tailPct, tailN)
	if traced {
		untraced := median(ws.verdicts)
		tr := newTracer()
		var lc layerCounts
		ws.verdicts = nil
		if err := ws.rounds(o, phase, tr, &lc); err != nil {
			return nil, err
		}
		layerMetrics(tr, &lc, o)
		o.layer["tracing_overhead_frac"] = ratio(median(ws.verdicts)-untraced, untraced)
		if err := tr.write(".bench_build/spans", fmt.Sprintf("wolfsync_mutex-seed%d.json", seed)); err != nil {
			o.notef("spans not written: %v", err)
		}
	}
	o.layer["wolfsync.dropped"] = float64(o.failed)
	return o, nil
}

// wsRun accumulates a wolfsync_mutex run's measurements.
type wsRun struct {
	plan      *wsPlan
	wsLocks   []*wolfsync.Mutex
	syncLocks []*sync.Mutex
	want      map[string]bool // planted inversions as lock pairs

	verdicts, setup, snaps []float64 // ms, s, ms
	heaps                  []float64 // live heap per round, MiB
	wsNs, syncNs           []float64 // round times
	events                 int
	wall                   time.Duration
}

// rounds runs recorded rounds, each followed or preceded (alternately)
// by the same round on sync.Mutex, until d has passed. With tr set the
// analysis runs layer by layer under spans.
func (ws *wsRun) rounds(o *outcome, d time.Duration, tr *tracer, lc *layerCounts) error {
	goSpawn := func(_ string, fn func()) { go fn() }
	syncRound := func() { ws.syncNs = append(ws.syncNs, float64(runRound(ws.plan, ws.syncLocks, goSpawn))) }
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		if round%2 == 1 {
			syncRound()
		}
		group := fmt.Sprintf("round-%d", round)
		root := tr.begin(group, "round", 0)
		t0 := time.Now()
		rec, err := wolfsync.Start()
		if err != nil {
			return err
		}
		ws.setup = append(ws.setup, time.Since(t0).Seconds())
		var rd time.Duration
		tr.do(group, "wolfsync.round", root, func() { rd = runRound(ws.plan, ws.wsLocks, wolfsync.Go) })
		ws.wsNs = append(ws.wsNs, float64(rd))
		var buf bytes.Buffer
		ts := time.Now()
		tr.do(group, "wolfsync.snapshot", root, func() { _, err = rec.WriteTo(&buf) })
		ws.snaps = append(ws.snaps, ms(time.Since(ts)))
		st := rec.Stats()
		rec.Stop()
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		var t *trace.Trace
		tr.do(group, "trace.decode", root, func() { t, err = trace.ReadBinary(&buf) })
		if err != nil {
			return fmt.Errorf("decode snapshot: %w", err)
		}
		tr.do(group, "trace.validate", root, func() { err = trace.Validate(t) })
		if err != nil {
			o.problemf("round %d: recorded trace invalid: %v", round, err)
		}
		var cycles []*detect.Cycle
		if tr == nil {
			for _, cr := range core.AnalyzeTrace(t, core.Config{}).Cycles {
				cycles = append(cycles, cr.Cycle)
			}
		} else {
			for _, cr := range analyzeLayers(context.Background(), tr, group, root, t, lc).Cycles {
				cycles = append(cycles, cr.Cycle)
			}
			lc.jobs++
		}
		ws.verdicts = append(ws.verdicts, ms(time.Since(t0)))
		tr.end(root)
		if round%2 == 0 {
			syncRound()
		}
		if tr == nil {
			ws.heaps = append(ws.heaps, liveHeapMB())
			runtime.KeepAlive(rec)
			runtime.KeepAlive(t)
		}

		// Checks: every acquisition recorded, none dropped, and the
		// cycles are exactly the planted inversions.
		made := ws.plan.pairsTotal()
		ws.events += len(t.Tuples)
		o.attempted += made
		o.failed += int(st.Dropped)
		if st.Dropped != 0 {
			o.problemf("round %d: recorder dropped %d events", round, st.Dropped)
		}
		if len(t.Tuples) != made {
			o.problemf("round %d: %d acquisitions recorded, %d made", round, len(t.Tuples), made)
		}
		got := make(map[string]bool)
		for _, c := range cycles {
			var locks []string
			for _, tp := range c.Tuples {
				locks = append(locks, tp.Lock)
			}
			got[lockPair(locks...)] = true
		}
		if len(cycles) != len(ws.want) || !sameSet(got, ws.want) {
			o.problemf("round %d: cycles on %v, planted %v", round, keys(got), keys(ws.want))
		}
	}
	ws.wall = time.Since(start)
	return nil
}

func (p *wsPlan) pairsTotal() int {
	n := 0
	for g := range p.sections {
		n += p.pairs(g)
	}
	return n
}

func lockPair(locks ...string) string {
	s := append([]string(nil), locks...)
	sort.Strings(s)
	return strings.Join(s, "+")
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
