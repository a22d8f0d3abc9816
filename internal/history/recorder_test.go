package history

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/spec"
)

func TestRecorderStampsAndMergeOrder(t *testing.T) {
	var seq atomic.Int64
	a := NewRecorder(&seq)
	b := NewRecorder(&seq)
	// Interleave records across two recorders; stamps must be globally
	// unique and Merge must restore the interleaved order.
	a.Record(Event{Kind: Invoke, Obj: "X", Txn: "A", Inv: spec.Invocation{Name: "i1"}})
	b.Record(Event{Kind: Invoke, Obj: "Y", Txn: "B", Inv: spec.Invocation{Name: "i2"}})
	a.Record(Event{Kind: Respond, Obj: "X", Txn: "A", Res: "r1"})
	b.Record(Event{Kind: Respond, Obj: "Y", Txn: "B", Res: "r2"})
	if la, lb := len(a.Snapshot()), len(b.Snapshot()); la != 2 || lb != 2 {
		t.Fatalf("lens = %d, %d", la, lb)
	}
	h := Merge(a, b)
	if len(h) != 4 {
		t.Fatalf("merged %d events", len(h))
	}
	wantObjs := []ObjectID{"X", "Y", "X", "Y"}
	for i, e := range h {
		if e.Obj != wantObjs[i] {
			t.Fatalf("merge order wrong at %d: got %s\n%s", i, e.Obj, h)
		}
	}
	// Per-recorder buffers are stamp-sorted.
	for _, r := range []*Recorder{a, b} {
		snap := r.Snapshot()
		for i := 1; i < len(snap); i++ {
			if snap[i].Seq <= snap[i-1].Seq {
				t.Fatalf("buffer not sorted: %v", snap)
			}
		}
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	var seq atomic.Int64
	if h := Merge(); len(h) != 0 {
		t.Fatalf("Merge() = %v", h)
	}
	if h := Merge(nil, NewRecorder(&seq)); len(h) != 0 {
		t.Fatalf("Merge(nil, empty) = %v", h)
	}
}

// TestRecorderConcurrentRace hammers recorders from many goroutines; under
// -race this validates the locking, and afterwards the merged history must
// contain every event with globally unique, totally ordered stamps.
func TestRecorderConcurrentRace(t *testing.T) {
	var seq atomic.Int64
	recs := make([]*Recorder, 4)
	for i := range recs {
		recs[i] = NewRecorder(&seq)
	}
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := recs[g%len(recs)]
			for i := 0; i < perG; i++ {
				r.Record(Event{Kind: Commit, Obj: "X", Txn: TxnID(rune('A' + g))})
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, r := range recs {
		total += len(r.Snapshot())
	}
	if total != 8*perG {
		t.Fatalf("recorded %d events, want %d", total, 8*perG)
	}
	h := Merge(recs...)
	if len(h) != 8*perG {
		t.Fatalf("merged %d events, want %d", len(h), 8*perG)
	}
	if got := seq.Load(); got != 8*perG {
		t.Fatalf("sequence advanced to %d, want %d", got, 8*perG)
	}
}
