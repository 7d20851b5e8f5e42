package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"wolf/internal/core"
	"wolf/internal/detect"
	"wolf/internal/fingerprint"
	"wolf/internal/pruner"
	"wolf/internal/sdg"
	"wolf/internal/store"
	"wolf/internal/stream"
	"wolf/internal/trace"
)

// layerCounts are the counts taken at layer boundaries while the traced
// run calls the layers directly; ratios are formed from them where the
// work happens.
type layerCounts struct {
	jobs         int
	tuples       int
	reducedKept  int
	cycles       int
	pruned       int
	graphs       int
	gsVertices   int
	refuted      int
	streamJobs   int
	streamBytes  int
	streamTuples int
	candidates   int
	puts, dedups int
}

// blockingSteps are the spans of a wolfd job that run between the
// server's Started and Finished stamps: the analysis (in fleet mode also
// the analyzer's decode of the pulled blob, see tracedWolfd). Their self
// times should account for service_ms.
var blockingSteps = map[string]bool{
	"trace.index": true, "detect.cycles": true, "pruner.prune": true, "sdg.build": true,
}

// analyzeLayers runs wolfd's offline analysis (core.AnalyzeTraceCtx)
// one layer call at a time under spans: index, cycle search, batched
// pruning, one Gs per surviving cycle. It returns the report the
// server would build.
func analyzeLayers(ctx context.Context, tr *tracer, group string, parent int, t *trace.Trace, lc *layerCounts) *core.Report {
	tr.do(group, "trace.index", parent, func() { t.Index() })
	var cycles []*detect.Cycle
	tr.do(group, "detect.cycles", parent, func() { cycles = detect.CyclesCtx(ctx, t, detect.Config{}) })
	rep := &core.Report{}
	for _, c := range cycles {
		rep.Cycles = append(rep.Cycles, &core.CycleReport{Cycle: c, Trace: t})
	}
	if t.Clocks != nil && len(cycles) > 0 {
		tr.do(group, "pruner.prune", parent, func() {
			res := pruner.PruneCtx(ctx, cycles, t.Clocks)
			for i, v := range res.Verdicts {
				if v == pruner.False {
					rep.Cycles[i].Class = core.FalseByPruner
					lc.pruned++
				}
			}
		})
	}
	tr.do(group, "sdg.build", parent, func() {
		for _, cr := range rep.Cycles {
			if cr.Class == core.FalseByPruner {
				continue
			}
			cr.Gs = sdg.BuildKindsCtx(ctx, cr.Cycle, t, sdg.AllKinds)
			cr.GsSize = cr.Gs.Size()
			lc.graphs++
			lc.gsVertices += cr.GsSize
			if cr.Gs.Cyclic() {
				cr.Class = core.FalseByGenerator
				lc.refuted++
			}
		}
	})
	lc.tuples += len(t.Tuples)
	lc.reducedKept += len(detect.Reduce(t.Tuples))
	lc.cycles += len(cycles)
	return rep
}

// classCounts keys a report's cycles like the oracle.
func classCounts(rep *core.Report) map[string]int {
	out := make(map[string]int, len(rep.Cycles))
	for _, cr := range rep.Cycles {
		out[fingerprint.Of(cr.Cycle)+" "+cr.Class.String()]++
	}
	return out
}

// replayJob performs one wolfd job by calling each layer the way the
// server does: decode and validate the upload (or feed the stream
// decoder and the online engine 4 KiB at a time), archive the trace and
// journal the admission, analyze, then fold the verdict into the corpus
// and journal the terminal state. The wolfd under test runs without a
// corpus (see wolfdWorkload), so st is the corpus a wolfd with
// -data-dir would write, and the corpus is measured here. In fleet mode
// the analysis runs on the analyzer's own decode of the blob it pulled.
// It checks the verdict against the oracle.
func replayJob(tr *tracer, st *store.Store, group string, in *input, fleet bool, lc *layerCounts) error {
	ctx := context.Background()
	root := tr.begin(group, "job", 0)
	defer tr.end(root)
	var t *trace.Trace
	var err error
	if fleet {
		dec := stream.NewDecoder(16 << 20)
		eng := stream.NewEngine(stream.EngineConfig{})
		armed := false
		for off := 0; off < len(in.wtrc) && err == nil; off += chunkSize {
			chunk := in.wtrc[off:min(off+chunkSize, len(in.wtrc))]
			tr.do(group, "stream.decode", root, func() { err = dec.Write(chunk) })
			if err != nil {
				break
			}
			tr.do(group, "stream.engine", root, func() {
				if !armed && dec.HeaderDone() {
					eng.SetClocks(dec.Clocks())
					armed = true
				}
				for _, tp := range dec.Events() {
					lc.candidates += len(eng.Add(tp))
				}
			})
		}
		if err == nil {
			tr.do(group, "stream.decode", root, func() { t, err = dec.Finalize() })
		}
		lc.streamJobs++
		lc.streamBytes += len(in.wtrc)
		lc.streamTuples += eng.Events()
	} else {
		tr.do(group, "trace.decode", root, func() { t, err = trace.Decode(bytes.NewReader(in.wtrc)) })
		if err == nil {
			tr.do(group, "trace.validate", root, func() { err = trace.Validate(t) })
		}
	}
	if err != nil {
		return fmt.Errorf("%s: decode: %w", group, err)
	}
	putID := tr.begin(group, "store.put_trace", root)
	hash, created, err := st.PutTrace(ctx, t)
	tr.end(putID)
	if err != nil {
		return fmt.Errorf("%s: put trace: %w", group, err)
	}
	lc.puts++
	if !created {
		lc.dedups++
		tr.rename(putID, "store.put_trace_dedup")
	}
	rec := store.JobRecord{ID: group, State: "queued", Source: "upload", TraceHash: hash, Created: time.Now()}
	tr.do(group, "store.journal_append", root, func() { err = st.AppendJob(rec) })
	if err != nil {
		return fmt.Errorf("%s: journal: %w", group, err)
	}
	if fleet {
		tr.do(group, "trace.decode", root, func() { t, err = trace.ReadBinary(bytes.NewReader(in.wtrc)) })
		if err != nil {
			return fmt.Errorf("%s: analyzer decode: %w", group, err)
		}
	}
	rep := analyzeLayers(ctx, tr, group, root, t, lc)
	tr.do(group, "store.record", root, func() { _, err = st.Record(ctx, hash, rep, "upload", time.Now()) })
	if err != nil {
		return fmt.Errorf("%s: record: %w", group, err)
	}
	rec.State, rec.Started, rec.Finished = "done", rec.Created, time.Now()
	tr.do(group, "store.journal_append", root, func() { err = st.AppendJob(rec) })
	if err != nil {
		return fmt.Errorf("%s: journal: %w", group, err)
	}
	lc.jobs++
	if got := classCounts(rep); !sameCounts(got, in.oracle) {
		return fmt.Errorf("%s: layer-by-layer verdict %v differs from core.AnalyzeTrace %v", group, got, in.oracle)
	}
	return nil
}

// layerMetrics turns the traced run's spans and boundary counts into
// the per-layer metrics every workload shares.
func layerMetrics(tr *tracer, lc *layerCounts, o *outcome) {
	self := tr.selfByName()
	for name, span := range map[string]string{
		"trace.decode_ms":          "trace.decode",
		"trace.validate_ms":        "trace.validate",
		"trace.index_ms":           "trace.index",
		"detect.cycles_ms":         "detect.cycles",
		"pruner.prune_ms":          "pruner.prune",
		"sdg.build_ms":             "sdg.build",
		"store.put_trace_ms":       "store.put_trace",
		"store.put_trace_dedup_ms": "store.put_trace_dedup",
		"store.record_ms":          "store.record",
		"store.journal_append_ms":  "store.journal_append",
		"core.record_ms":           "core.record",
		"wolfsync.snapshot_ms":     "wolfsync.snapshot",
	} {
		o.layer[name] = median(self[span])
	}
	if lc.streamJobs > 0 {
		o.layer["stream.decode_mb_per_s"] = ratio(float64(lc.streamBytes)/1e6, sum(self["stream.decode"])/1e3)
		o.layer["stream.engine_ns_per_tuple"] = ratio(sum(self["stream.engine"])*1e6, float64(lc.streamTuples))
		o.layer["stream.candidates"] = ratio(float64(lc.candidates), float64(lc.streamJobs))
	}
	o.layer["detect.reduce_kept_ratio"] = ratio(float64(lc.reducedKept), float64(lc.tuples))
	o.layer["detect.cycles"] = ratio(float64(lc.cycles), float64(lc.jobs))
	o.layer["pruner.pruned_ratio"] = ratio(float64(lc.pruned), float64(lc.cycles))
	o.layer["sdg.gs_vertices"] = ratio(float64(lc.gsVertices), float64(lc.graphs))
	o.layer["sdg.refuted_ratio"] = ratio(float64(lc.refuted), float64(lc.graphs))
	o.layer["store.dedup_hit_ratio"] = ratio(float64(lc.dedups), float64(lc.puts))
}
