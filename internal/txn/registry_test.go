package txn

// The registry, the recorder and the detector are one structure each per
// engine. These tests pin what that buys and what it must keep: a
// Register whose cost does not grow with the registry, registration
// racing operations and checkpoints, and a detector that holds an entry
// only while an Invoke waits.

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// registerBytes returns the mean bytes one Register allocates on an
// engine that already holds size objects, over trials fresh engines.
func registerBytes(size, trials int) float64 {
	ba := adt.DefaultBankAccount()
	ids := make([]history.ObjectID, size+1)
	for i := range ids {
		ids[i] = history.ObjectID("obj" + strconv.Itoa(i))
	}
	var total uint64
	for trial := 0; trial < trials; trial++ {
		e := NewEngine(Options{})
		for _, id := range ids[:size] {
			e.MustRegister(id, ba, ba.NRBC(), UndoLogRecovery)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.MustRegister(ids[size], ba, ba.NRBC(), UndoLogRecovery)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	return float64(total) / float64(trials)
}

// TestRegisterCostFlatInRegistrySize: one Register allocates about as
// much on a registry of 1,024 objects as on one of 8. A registry that
// copied itself on every insert would allocate in proportion to its size.
func TestRegisterCostFlatInRegistrySize(t *testing.T) {
	small := registerBytes(8, 16)
	large := registerBytes(1024, 16)
	t.Logf("bytes per Register: %.0f at 8 objects, %.0f at 1,024", small, large)
	if large > 2*small {
		t.Fatalf("Register allocates %.0f B at 1,024 objects against %.0f B at 8: its cost grows with the registry", large, small)
	}
}

// TestRegisterOpsCheckpointsRace runs, at once on one durable engine:
// registrars adding fresh IDs, two goroutines registering the same ID
// (exactly one may win), clients committing deposits on objects
// registered beforehand, and a checkpointer. Afterwards every registered
// ID must be found, and a restart from the checkpoint and the log must
// reproduce the committed balances.
func TestRegisterOpsCheckpointsRace(t *testing.T) {
	d := DurabilityOptions{Dir: t.TempDir()}
	e, err := NewDurableEngine(Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	ba := adt.BankAccount{InitialBalance: 100, MaxBalance: 1 << 20, Amounts: []int{1, 2, 3}}
	rel := adt.DefaultBankAccount().NRBC()
	const base, registrars, fresh, clients, txns = 8, 2, 24, 3, 40
	var ids []history.ObjectID
	for i := 0; i < base; i++ {
		id := history.ObjectID(fmt.Sprintf("base%d", i))
		ids = append(ids, id)
		e.MustRegister(id, ba, rel, UndoLogRecovery)
	}
	freshIDs := make([][]history.ObjectID, registrars)
	for r := range freshIDs {
		for i := 0; i < fresh; i++ {
			freshIDs[r] = append(freshIDs[r], history.ObjectID(fmt.Sprintf("fresh%d-%d", r, i)))
		}
		ids = append(ids, freshIDs[r]...)
	}
	ids = append(ids, "dup")

	var wg sync.WaitGroup
	for r := range freshIDs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, id := range freshIDs[r] {
				if err := e.Register(id, ba, rel, UndoLogRecovery); err != nil {
					t.Errorf("register %s: %v", id, err)
				}
				runtime.Gosched()
			}
		}(r)
	}
	var dupWins atomic.Int32
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Register("dup", ba, rel, UndoLogRecovery); err == nil {
				dupWins.Add(1)
			}
		}()
	}
	deposits := make([]map[history.ObjectID]int, clients)
	for c := range deposits {
		deposits[c] = map[history.ObjectID]int{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				obj := ids[(c*7+i)%base]
				tx := e.Begin()
				if _, err := tx.Invoke(obj, adt.Deposit(1)); err != nil {
					t.Errorf("deposit on %s: %v", obj, err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				deposits[c][obj]++
			}
		}(c)
	}
	ckptErr := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			_, err = e.Checkpoint()
			runtime.Gosched()
		}
		ckptErr <- err
	}()
	wg.Wait()
	if err := <-ckptErr; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if n := dupWins.Load(); n != 1 {
		t.Fatalf("%d of 2 racing registrations of one ID succeeded, want exactly 1", n)
	}
	for _, id := range ids {
		if _, ok := e.Object(id); !ok {
			t.Fatalf("registered object %s not found", id)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	want := map[history.ObjectID]int{}
	for _, id := range ids {
		want[id] = ba.InitialBalance
	}
	for _, m := range deposits {
		for obj, n := range m {
			want[obj] += n
		}
	}
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
	stores, _, err := recovery.RestartAllWithConfig(ids,
		func(history.ObjectID) adt.Machine { return ba.Machine() }, relog, ckpt, recovery.RestartConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got, w := stores[id].CommittedValue().Encode(), strconv.Itoa(want[id]); got != w {
			t.Errorf("restarted %s = %s, want committed balance %s", id, got, w)
		}
	}
}

// TestNoDetectorEntryOutlivesInvoke runs a deadlock-heavy script — clients
// writing two objects in opposite orders, retrying every deadlock victim
// — and checks that the detector is empty afterwards. Every exit from
// Invoke's wait loop removes the waiter's entry, which is why commit and
// abort need not touch the detector.
func TestNoDetectorEntryOutlivesInvoke(t *testing.T) {
	kv := adt.DefaultKVStore()
	e := NewEngine(Options{RecordHistory: true})
	e.MustRegister("X", kv, kv.NFC(), IntentionsRecovery)
	e.MustRegister("Y", kv, kv.NFC(), IntentionsRecovery)
	const clients, txns = 4, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first, second := history.ObjectID("X"), history.ObjectID("Y")
			if c%2 == 1 {
				first, second = second, first
			}
			val := strconv.Itoa(c)
			for i := 0; i < txns; {
				tx := e.Begin()
				_, err := tx.Invoke(first, adt.Put("x", val))
				runtime.Gosched()
				if err == nil {
					_, err = tx.Invoke(second, adt.Put("x", val))
				}
				if errors.Is(err, ErrAborted) {
					// Deadlock victim: yield before the retry, so the
					// survivor its abort woke takes the lock first; an
					// immediate retry on one core could retake the lock
					// and be the victim again forever.
					runtime.Gosched()
					continue
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if i%4 == 3 {
					err = tx.Abort()
				} else {
					err = tx.Commit()
				}
				if err != nil {
					t.Errorf("client %d: end: %v", c, err)
					return
				}
				i++
			}
		}(c)
	}
	wg.Wait()
	if e.Metrics.BlockEvents.Load() == 0 {
		t.Fatal("no client ever waited: the script exercised no detector entry")
	}
	if n := e.detector.WaitCount(); n != 0 {
		t.Fatalf("detector holds %d entries after every client finished, want 0", n)
	}
	if err := history.WellFormed(e.History()); err != nil {
		t.Fatalf("history not well-formed: %v", err)
	}
	t.Logf("deadlocks %d, block events %d", e.Metrics.Deadlocks.Load(), e.Metrics.BlockEvents.Load())
}
