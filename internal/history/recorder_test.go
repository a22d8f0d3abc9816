package history

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/spec"
)

// TestRecorderKeepsRecordOrder: the recorder's history is its events in
// record order, across objects, and a copy the recorder does not share.
func TestRecorderKeepsRecordOrder(t *testing.T) {
	var r Recorder
	if h := r.History(); len(h) != 0 {
		t.Fatalf("empty recorder's history = %v", h)
	}
	want := History{
		{Kind: Invoke, Obj: "X", Txn: "A", Inv: spec.Invocation{Name: "i1"}},
		{Kind: Invoke, Obj: "Y", Txn: "B", Inv: spec.Invocation{Name: "i2"}},
		{Kind: Respond, Obj: "X", Txn: "A", Res: "r1"},
		{Kind: Respond, Obj: "Y", Txn: "B", Res: "r2"},
	}
	for _, ev := range want {
		r.Record(ev)
	}
	got := r.History()
	if len(got) != len(want) {
		t.Fatalf("history has %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %s, want %s", i, got[i], want[i])
		}
	}
	got[0].Obj = "Z"
	if r.History()[0].Obj != "X" {
		t.Fatal("History shares its buffer with the recorder")
	}
}

// TestRecorderConcurrentRace hammers one recorder from many goroutines;
// under -race this validates the locking, and afterwards the history must
// hold every event, each goroutine's in its program order.
func TestRecorderConcurrentRace(t *testing.T) {
	var r Recorder
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Record(Event{Kind: Commit, Obj: "X", Txn: TxnID(rune('A' + g)), Res: spec.Response(strconv.Itoa(i))})
			}
		}(g)
	}
	wg.Wait()
	h := r.History()
	if len(h) != goroutines*perG {
		t.Fatalf("recorded %d events, want %d", len(h), goroutines*perG)
	}
	next := map[TxnID]int{}
	for _, ev := range h {
		if want := strconv.Itoa(next[ev.Txn]); string(ev.Res) != want {
			t.Fatalf("%s's event %s out of program order, want %s", ev.Txn, ev.Res, want)
		}
		next[ev.Txn]++
	}
}

// TestRecorderConcurrentInterleavings: one goroutine per transaction
// replays its event stream into one recorder — the engine's concurrency
// shape (a transaction is single-goroutine; the recorder is shared).
// Whatever interleaving the scheduler produces, the history must hold
// every event, preserve every transaction's program order, and pass the
// well-formedness check the verification stack starts with.
func TestRecorderConcurrentInterleavings(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomWellFormed(rng, 2+rng.Intn(5), 1+rng.Intn(4), 80)
		var r Recorder
		var wg sync.WaitGroup
		for _, txn := range h.Txns() {
			wg.Add(1)
			go func(stream History) {
				defer wg.Done()
				for _, ev := range stream {
					r.Record(ev)
					runtime.Gosched()
				}
			}(h.ProjectTxn(txn))
		}
		wg.Wait()
		got := r.History()
		if len(got) != len(h) {
			return false
		}
		for _, txn := range h.Txns() {
			want, have := h.ProjectTxn(txn), got.ProjectTxn(txn)
			if len(want) != len(have) {
				return false
			}
			for i := range want {
				if want[i] != have[i] {
					return false
				}
			}
		}
		return WellFormed(got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
