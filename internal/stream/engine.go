package stream

import (
	"wolf/internal/detect"
	"wolf/internal/fingerprint"
	"wolf/internal/pruner"
	"wolf/internal/trace"
	"wolf/internal/vclock"
)

// Candidate is one potential deadlock emitted mid-stream, the moment
// its closing acquisition arrived. It carries everything downstream
// consumers (corpus, wolfctl, dashboards) need without re-running
// detection on close.
type Candidate struct {
	// Cycle is the underlying chain in batch-canonical rotation
	// (first tuple belongs to the lexicographically smallest thread).
	Cycle *detect.Cycle `json:"-"`
	// Event is the 1-based stream position of the closing acquisition.
	Event int `json:"event"`
	// Fingerprint is the stable defect identity (fingerprint.Of).
	Fingerprint string `json:"fingerprint"`
	// Signature is the paper's sorted-sites defect signature.
	Signature string `json:"signature"`
	// Threads and Sites describe the cycle in cycle order.
	Threads []string `json:"threads"`
	Sites   []string `json:"sites"`
	// Pruned reports the online (S,J) vector-clock verdict: true means
	// the Pruner refuted the cycle as it closed (PruneRule says how).
	Pruned    bool   `json:"pruned"`
	PruneRule string `json:"prune_rule,omitempty"`
}

// EngineConfig controls the incremental detector.
type EngineConfig struct {
	// MaxLength bounds the number of threads per cycle;
	// detect.DefaultMaxLength when zero.
	MaxLength int
}

// Engine emits stream candidates around the one chain search,
// detect.Engine: each cycle is reported exactly once, when the tuple
// that closes it arrives, already in batch-canonical rotation, so
// fingerprints, signatures, and chain order are byte-identical to the
// batch path. On top of the search it fingerprints each cycle and runs
// the online Pruner.
//
// Engine is not safe for concurrent use; the server serializes chunk
// appends per stream.
type Engine struct {
	search *detect.Engine
	clocks []vclock.Vector
	events int
	total  int
}

// NewEngine returns an empty incremental detector.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{search: detect.NewEngine(detect.Config{MaxLength: cfg.MaxLength})}
}

// SetClocks arms the online Pruner with the trace's (S,J) vector-clock
// table (available from the stream header before the first tuple).
// Without clocks, candidates are emitted unpruned, exactly as batch
// detection without the Pruner stage.
func (e *Engine) SetClocks(clocks []vclock.Vector) { e.clocks = clocks }

// Events returns the number of tuples fed so far.
func (e *Engine) Events() int { return e.events }

// Total returns the number of candidates emitted so far.
func (e *Engine) Total() int { return e.total }

// Add feeds the next tuple in trace order and returns the candidates
// it closes (usually none). The returned slice is freshly allocated.
func (e *Engine) Add(tp *trace.Tuple) []Candidate {
	e.events++
	if tp == nil {
		return nil
	}
	var out []Candidate
	for _, cyc := range e.search.Add(tp) {
		out = append(out, e.emit(cyc))
	}
	return out
}

// emit materializes a Candidate, running the online Pruner when clocks
// are armed.
func (e *Engine) emit(cyc *detect.Cycle) Candidate {
	e.total++
	c := Candidate{
		Cycle:       cyc,
		Event:       e.events,
		Fingerprint: fingerprint.Of(cyc),
		Signature:   cyc.Signature(),
		Threads:     cyc.Threads(),
		Sites:       cyc.Sites(),
	}
	if len(e.clocks) > 0 {
		res := pruner.Prune([]*detect.Cycle{cyc}, e.clocks)
		if res.Verdicts[0] == pruner.False {
			c.Pruned = true
			c.PruneRule = res.Reasons[0].Rule
		}
	}
	return c
}
