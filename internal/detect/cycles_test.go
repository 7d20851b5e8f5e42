package detect_test

import (
	"fmt"
	"slices"
	"testing"

	"wolf/internal/core"
	"wolf/internal/detect"
	"wolf/internal/trace"
	"wolf/internal/workloads"
)

// isChain reports whether seq satisfies every cycle rule that does not
// involve closing the cycle: distinct threads, pairwise disjoint
// locksets, each tuple's lock held by the next, and the first tuple on
// the lexicographically smallest thread (the canonical rotation).
func isChain(seq []*trace.Tuple) bool {
	for i, a := range seq {
		if i > 0 && a.Thread <= seq[0].Thread {
			return false
		}
		if i+1 < len(seq) && !seq[i+1].HoldsLock(a.Lock) {
			return false
		}
		for _, b := range seq[i+1:] {
			if a.Thread == b.Thread {
				return false
			}
			for _, h := range a.Held {
				if b.HoldsLock(h.Lock) {
					return false
				}
			}
		}
	}
	return true
}

// bruteCycles is the reference the chain search is checked against. It
// enumerates sequences of 2..maxLen tuples straight from the cycle rules,
// trying every tuple at every step, with no postings or arrival order.
// The loops run in trace-position order and emit a sequence before its
// extensions, so cycles come out sorted position by position, shorter
// first when one is a prefix of another.
func bruteCycles(tuples []*trace.Tuple, maxLen int) [][]*trace.Tuple {
	var out [][]*trace.Tuple
	var seq []*trace.Tuple
	var grow func()
	grow = func() {
		if n := len(seq); n >= 2 && seq[0].HoldsLock(seq[n-1].Lock) {
			out = append(out, append([]*trace.Tuple(nil), seq...))
		}
		if len(seq) == maxLen {
			return
		}
		for _, tp := range tuples {
			if seq = append(seq, tp); isChain(seq) {
				grow()
			}
			seq = seq[:len(seq)-1]
		}
	}
	grow()
	return out
}

// checkAgainstOracle compares Cycles with bruteCycles, tuple for tuple
// and in order.
func checkAgainstOracle(t *testing.T, name string, tr *trace.Trace, maxLen int) {
	t.Helper()
	got := detect.Cycles(tr, detect.Config{MaxLength: maxLen})
	want := bruteCycles(tr.Tuples, maxLen)
	if len(got) != len(want) {
		t.Fatalf("%s: Cycles found %d, oracle %d", name, len(got), len(want))
	}
	for i, c := range got {
		if !slices.Equal(c.Tuples, want[i]) {
			t.Fatalf("%s: cycle %d is %v, oracle has %v", name, i, c, &detect.Cycle{Tuples: want[i]})
		}
	}
}

// TestCyclesMatchOracleRandom: on random lock programs under random
// schedules, Cycles returns exactly the oracle's cycles in its order.
func TestCyclesMatchOracleRandom(t *testing.T) {
	for progSeed := int64(0); progSeed < 60; progSeed++ {
		f := randomLockProgram(progSeed)
		for schedSeed := int64(1); schedSeed <= 3; schedSeed++ {
			tr := recordSeed(t, f, schedSeed)
			name := fmt.Sprintf("prog %d seed %d", progSeed, schedSeed)
			checkAgainstOracle(t, name, tr, detect.DefaultMaxLength)
			checkAgainstOracle(t, name+" maxlen 2", tr, 2)
		}
	}
}

// oracleTupleCap bounds the trace prefix the oracle enumerates over;
// its cost grows with the tuple count to the power of the cycle length.
const oracleTupleCap = 300

// TestCyclesMatchOracleRegistry: on every registry workload, cut to its
// first oracleTupleCap tuples, Cycles matches the oracle exactly.
func TestCyclesMatchOracleRegistry(t *testing.T) {
	for _, wl := range workloads.Registry() {
		t.Run(wl.Name, func(t *testing.T) {
			seed, ok := workloads.FindTerminatingSeed(wl.New, 300)
			if !ok {
				t.Skipf("no terminating seed for %s", wl.Name)
			}
			tr := core.Record(wl.New, seed, 0)
			if len(tr.Tuples) > oracleTupleCap {
				tr = &trace.Trace{Tuples: tr.Tuples[:oracleTupleCap]}
			}
			checkAgainstOracle(t, wl.Name, tr, detect.DefaultMaxLength)
		})
	}
}

// registryTrace records a terminating run of the named workload.
func registryTrace(tb testing.TB, name string) *trace.Trace {
	tb.Helper()
	wl, ok := workloads.ByName(name)
	if !ok {
		tb.Fatalf("no workload %s", name)
	}
	seed, ok := workloads.FindTerminatingSeed(wl.New, 300)
	if !ok {
		tb.Fatalf("no terminating seed for %s", name)
	}
	return core.Record(wl.New, seed, 0)
}

// BenchmarkCycles measures batch detection, reduction plus chain
// search, on two registry workloads and on the chain-traffic trace.
func BenchmarkCycles(b *testing.B) {
	for _, name := range []string{"Jigsaw", "AppServer", "ChainTraffic"} {
		b.Run(name, func(b *testing.B) {
			var tr *trace.Trace
			if name == "ChainTraffic" {
				tr = chainTrafficTrace(b)
			} else {
				tr = registryTrace(b, name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				detect.Cycles(tr, detect.Config{})
			}
		})
	}
}
