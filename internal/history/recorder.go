package history

import (
	"sync"
	"sync/atomic"
)

// SeqEvent is an Event stamped with its position in the global total order.
// Stamps are assigned from a single engine-wide atomic counter, so they are
// unique across all recorders sharing that counter.
type SeqEvent struct {
	Seq int64
	Event
}

// Recorder is an append-only event buffer used by one shard of the
// transaction engine. Each shard records only the events of the objects it
// owns; Merge reconstructs the totally ordered global history from all
// shards afterwards, so the hot path never takes an engine-wide lock.
//
// Record assigns the stamp and appends under one mutex, so each recorder's
// buffer is sorted by stamp. The engine calls Record while holding the
// object latch, which makes stamp order agree with each object's true
// execution order (and, since a transaction is single-goroutine, with each
// transaction's program order) — exactly the properties the well-formedness
// and atomicity checkers need from the merged history.
type Recorder struct {
	mu  sync.Mutex
	seq *atomic.Int64
	buf []SeqEvent
}

// NewRecorder builds a recorder stamping events from the shared counter.
func NewRecorder(seq *atomic.Int64) *Recorder {
	return &Recorder{seq: seq}
}

// Record stamps ev with the next global sequence number, appends it, and
// returns the stamp.
func (r *Recorder) Record(ev Event) int64 {
	r.mu.Lock()
	s := r.seq.Add(1)
	r.buf = append(r.buf, SeqEvent{Seq: s, Event: ev})
	r.mu.Unlock()
	return s
}

// Snapshot returns a copy of the buffer in stamp order.
func (r *Recorder) Snapshot() []SeqEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SeqEvent(nil), r.buf...)
}

// Merge reconstructs the totally ordered history from per-shard recorders
// by k-way merging their stamp-sorted buffers. The result is the global
// history the atomicity checkers, the abstract automaton, and cmd/histcheck
// consume — identical in order to what a single globally locked recorder
// would have produced.
func Merge(recorders ...*Recorder) History {
	bufs := make([][]SeqEvent, 0, len(recorders))
	total := 0
	for _, r := range recorders {
		if r == nil {
			continue
		}
		b := r.Snapshot()
		if len(b) > 0 {
			bufs = append(bufs, b)
			total += len(b)
		}
	}
	out := make(History, 0, total)
	heads := make([]int, len(bufs))
	for len(out) < total {
		best := -1
		var bestSeq int64
		for i, b := range bufs {
			if heads[i] >= len(b) {
				continue
			}
			if s := b[heads[i]].Seq; best == -1 || s < bestSeq {
				best, bestSeq = i, s
			}
		}
		out = append(out, bufs[best][heads[best]].Event)
		heads[best]++
	}
	return out
}
