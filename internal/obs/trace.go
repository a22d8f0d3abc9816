package obs

import "sync"

// DefaultTraceMaxEvents bounds the tracer's memory when no explicit cap
// is configured: at ~8 events per sampled transaction this retains on
// the order of 100k transactions.
const DefaultTraceMaxEvents = 1 << 20

// TraceEvent is one Chrome trace-event record ("trace event format",
// the JSON the chrome://tracing and Perfetto UIs load). Ph is "X" for a
// complete span (TS + Dur) and "i" for an instant. Timestamps and
// durations are microseconds, as the format requires; TID is the
// transaction sequence number (0 for process-scoped events) so each
// sampled transaction renders as its own row.
type TraceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int64             `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
	S    string            `json:"s,omitempty"` // instant scope ("t" = thread)
}

// Tracer collects lifecycle events from sampled transactions. The hot
// path never touches it: unsampled transactions carry a nil *TxnTrace
// and every event call on nil returns immediately. Sampled
// transactions accumulate events locally (their own goroutine, no
// lock) and publish once, at termination, under the tracer mutex.
type Tracer struct {
	sampleAll bool
	threshold uint64
	seed      uint64
	maxEvents int

	mu      sync.Mutex
	events  []TraceEvent
	sampled int64
	dropped int64
}

func newTracer(rate float64, seed uint64, maxEvents int) *Tracer {
	t := &Tracer{seed: seed, maxEvents: maxEvents}
	if t.maxEvents <= 0 {
		t.maxEvents = DefaultTraceMaxEvents
	}
	if rate >= 1 {
		t.sampleAll = true
	} else {
		// rate in (0,1): threshold = rate * 2^64, compared against a
		// 64-bit hash. float64 has 53 bits of mantissa — far more
		// resolution than any sampling decision needs.
		t.threshold = uint64(rate * float64(1<<32) * float64(1<<32))
	}
	return t
}

// splitmix64 is the SplitMix64 finalizer: a full-avalanche 64-bit
// mixer, so consecutive sequence numbers sample independently.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// sample returns an accumulator for the transaction iff its sequence
// number hashes under the threshold.
func (t *Tracer) sample(seq int64) *TxnTrace {
	if !t.sampleAll && splitmix64(t.seed^uint64(seq)) >= t.threshold {
		return nil
	}
	return &TxnTrace{t: t, tid: seq}
}

// global publishes one process-scoped span immediately.
func (t *Tracer) global(name string, startNS, endNS int64, args map[string]string) {
	ev := TraceEvent{
		Name: name, Ph: "X",
		TS: float64(startNS) / 1e3, Dur: float64(endNS-startNS) / 1e3,
		Args: args,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.maxEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Events returns a copy of the published events.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	return out
}

// Stats returns (sampled transactions, published events, dropped
// events).
func (t *Tracer) Stats() (sampled int64, events int, dropped int64) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sampled, len(t.events), t.dropped
}

// KindCounts returns how many events were published under each name —
// the "≥ N distinct event kinds" acceptance check and a cheap
// completeness probe.
func (t *Tracer) KindCounts() map[string]int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kinds := make(map[string]int)
	for _, ev := range t.events {
		kinds[ev.Name]++
	}
	return kinds
}

// TxnTrace accumulates one sampled transaction's events. It is owned by
// the transaction's goroutine (the engine's single-goroutine-per-txn
// contract) until Finish publishes the batch. All methods are nil-safe:
// an unsampled transaction is a nil *TxnTrace.
type TxnTrace struct {
	t      *Tracer
	tid    int64
	events []TraceEvent
}

// Instant records a point event at tsNS (nanoseconds since the
// observer's epoch).
func (tt *TxnTrace) Instant(name string, tsNS int64, args map[string]string) {
	if tt == nil {
		return
	}
	tt.events = append(tt.events, TraceEvent{
		Name: name, Ph: "i", S: "t",
		TS: float64(tsNS) / 1e3, TID: tt.tid, Args: args,
	})
}

// Span records a complete [startNS, endNS) interval event.
func (tt *TxnTrace) Span(name string, startNS, endNS int64, args map[string]string) {
	if tt == nil {
		return
	}
	tt.events = append(tt.events, TraceEvent{
		Name: name, Ph: "X",
		TS: float64(startNS) / 1e3, Dur: float64(endNS-startNS) / 1e3,
		TID: tt.tid, Args: args,
	})
}

// Finish publishes the accumulated events to the tracer. Idempotent:
// the second call finds an empty batch. Events past the tracer cap are
// dropped (and counted), keeping memory bounded on long runs.
func (tt *TxnTrace) Finish() {
	if tt == nil || len(tt.events) == 0 {
		return
	}
	batch := tt.events
	tt.events = nil
	tr := tt.t
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.sampled++
	room := tr.maxEvents - len(tr.events)
	if room <= 0 {
		tr.dropped += int64(len(batch))
		return
	}
	if len(batch) > room {
		tr.dropped += int64(len(batch) - room)
		batch = batch[:room]
	}
	tr.events = append(tr.events, batch...)
}
