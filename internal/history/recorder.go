package history

import "sync"

// Recorder is the transaction engine's append-only event buffer: one per
// engine, so its history is the one total order in which the events were
// recorded. The engine calls Record while holding the object latch, which
// makes record order agree with each object's true execution order (and,
// since a transaction is single-goroutine, with each transaction's program
// order) — exactly the properties the well-formedness and atomicity
// checkers need. The zero value is an empty recorder.
type Recorder struct {
	mu  sync.Mutex
	buf History
}

// Record appends ev.
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	r.buf = append(r.buf, ev)
	r.mu.Unlock()
}

// History returns a copy of the buffer in record order.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Clone()
}
