package txn

// Tests of the observability wiring: attaching a sampling observer must
// not perturb what the engine commits, and the unified snapshot of a
// durable, checkpointed, traced run — with a crash restart's stats folded
// in — carries every section and loads back as JSON.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// runBankScript drives txns seeded deposit/withdraw/balance transactions
// over objs from one goroutine. A refused operation or deadlock ends its
// transaction as an abort, and so does every fifth transaction.
func runBankScript(e *Engine, objs []history.ObjectID, seed int64, txns int) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < txns; i++ {
		tx := e.Begin()
		var err error
		for s := 0; s < 3 && err == nil; s++ {
			obj := objs[rng.Intn(len(objs))]
			switch rng.Intn(3) {
			case 0:
				_, err = tx.Invoke(obj, adt.Deposit(1+rng.Intn(3)))
			case 1:
				_, err = tx.Invoke(obj, adt.Withdraw(1+rng.Intn(3)))
			default:
				_, err = tx.Invoke(obj, adt.Balance())
			}
		}
		switch {
		case errors.Is(err, ErrAborted):
			// A deadlock victim is already aborted.
		case err != nil || i%5 == 4:
			if err := tx.Abort(); err != nil {
				return err
			}
		default:
			if err := tx.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestObsSamplingLeavesStateIdentical runs one seeded single-goroutine
// script with no observer and again with sampled tracing attached: every
// lifecycle counter and every committed balance must be byte-identical.
// Tracing draws no workload randomness and reads no state it could
// perturb.
func TestObsSamplingLeavesStateIdentical(t *testing.T) {
	objs := []history.ObjectID{"a", "b", "c", "d"}
	run := func(o *obs.Observer) string {
		e := NewEngine(Options{Shards: 4, Obs: o})
		defer e.Close()
		ba := adt.BankAccount{InitialBalance: 5, MaxBalance: 12, Amounts: []int{1, 2, 3}}
		for _, id := range objs {
			e.MustRegister(id, ba, ba.NRBC(), UndoLogRecovery)
		}
		if err := runBankScript(e, objs, 7, 60); err != nil {
			t.Fatal(err)
		}
		m := &e.Metrics
		var b strings.Builder
		fmt.Fprintf(&b, "begins=%d commits=%d aborts=%d deadlocks=%d ops=%d notenabled=%d blocked=%d;",
			m.Begins.Load(), m.Commits.Load(), m.Aborts.Load(), m.Deadlocks.Load(),
			m.Operations.Load(), m.NotEnabled.Load(), m.Blocked.Load())
		for _, id := range objs {
			store, _ := e.Object(id)
			fmt.Fprintf(&b, "%s=%s;", id, store.CommittedValue().Encode())
		}
		return b.String()
	}
	plain := run(nil)
	o := obs.New(obs.Options{Epoch: time.Now(), SampleRate: 0.5, TraceSeed: 1})
	sampled := run(o)
	if sampled != plain {
		t.Fatalf("sampled run diverged:\n  plain   %s\n  sampled %s", plain, sampled)
	}
	if _, events, _ := o.Trace().Stats(); events == 0 {
		t.Fatal("the sampled run traced nothing; the comparison proves nothing")
	}
}

// TestObsSnapshotDurableRestart builds a durable engine with full
// sampling, runs two concurrent workers whose commit barriers lead the
// flush rounds, takes one checkpoint, and checks the unified snapshot:
// engine counters,
// WAL flushes, checkpoint progress, phase histograms, and trace stats
// whose events load as Chrome trace JSON. A crash restart of the durable
// artifacts then folds its stats into the document, which must survive
// a JSON round trip.
func TestObsSnapshotDurableRestart(t *testing.T) {
	o := obs.New(obs.Options{Epoch: time.Now(), SampleRate: 1, TraceSeed: 1})
	d := DurabilityOptions{Dir: t.TempDir()}
	e, err := NewDurableEngine(Options{Shards: 4, Obs: o}, d)
	if err != nil {
		t.Fatal(err)
	}
	ba := adt.BankAccount{InitialBalance: 5, MaxBalance: 12, Amounts: []int{1, 2, 3}}
	objs := []history.ObjectID{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, id := range objs {
		e.MustRegister(id, ba, ba.NRBC(), UndoLogRecovery)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runBankScript(e, objs, int64(w+1), 30)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := e.ObsSnapshot()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if snap.Engine.Commits == 0 {
		t.Error("snapshot has no commits")
	}
	if snap.WAL.Flushes == 0 {
		t.Error("snapshot has no WAL flushes")
	}
	if snap.Checkpoint.Completed != 1 {
		t.Errorf("Checkpoint.Completed = %d, want 1", snap.Checkpoint.Completed)
	}
	if snap.Phases == nil || snap.Phases.TxnE2E.Count == 0 {
		t.Fatal("snapshot has no phase histograms")
	}
	if snap.Phases.CkptCapture.Count != 1 {
		t.Errorf("CkptCapture count = %d, want 1", snap.Phases.CkptCapture.Count)
	}
	if snap.Phases.TxnE2E.Quantile(0.99) <= 0 {
		t.Error("end-to-end p99 is zero")
	}
	if snap.Trace == nil || snap.Trace.Sampled == 0 || snap.Trace.Events == 0 {
		t.Fatalf("snapshot trace stats empty: %+v", snap.Trace)
	}
	if snap.Trace.Kinds < 5 {
		t.Errorf("trace has %d event kinds, want >= 5", snap.Trace.Kinds)
	}
	if n := len(o.Trace().Events()); n != snap.Trace.Events {
		t.Errorf("tracer holds %d events, snapshot says %d", n, snap.Trace.Events)
	}

	// Crash-restart the durable artifacts and fold the restart stats in.
	backend, err := wal.OpenSegmentedBackend(d.WALDir(), d.SegmentConfig())
	if err != nil {
		t.Fatal(err)
	}
	relog, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer relog.Close()
	store, err := checkpoint.OpenFileStore(d.CheckpointDir())
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := recovery.RestartAllWithConfig(objs,
		func(history.ObjectID) adt.Machine { return ba.Machine() }, relog, ckpt, recovery.RestartConfig{})
	if err != nil {
		t.Fatal(err)
	}
	snap.Restart = stats
	jbuf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(jbuf, &back); err != nil {
		t.Fatalf("snapshot JSON does not load: %v", err)
	}
	var restart struct {
		LogRecords int `json:"log_records"`
	}
	if err := json.Unmarshal(back["restart"], &restart); err != nil {
		t.Fatalf("restart stats do not round-trip: %v", err)
	}
	if restart.LogRecords == 0 {
		t.Error("restart stats carry no log records")
	}
}
