package recovery_test

// Segmented-backend crash coverage: the transfer crash sweep and the
// checkpointed (truncating) transfer sweep re-run on wal.SegmentedBackend
// with a deliberately tiny segment size, so segment rotation happens every
// few batches and crash points land at and around rotation boundaries —
// the new failure surface the segmented backend introduces (a batch
// acknowledged against a just-created segment file whose dirent must be
// durable, a truncation that unlinked some dead segments before dying).
// Plus the parallel-restart property test: restarting the same durable
// artifacts with parallelism 1 and parallelism 8 must produce identical
// recovered values, winner sets, post-restart logs, and aggregate replay
// counters (run under -race in CI).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/wal"
)

// segCrashBytes keeps segments a few batches long for the transfer
// workload (~20-40 bytes per record), so every sweep run rotates many
// times.
const segCrashBytes = 512

func segCrashConfig() wal.SegmentConfig {
	return wal.SegmentConfig{MaxSegmentBytes: segCrashBytes}
}

// readSegmentedLog returns the durable records of a segmented WAL
// directory (the oracle's view of what survived the crash).
func readSegmentedLog(t *testing.T, dir string) []wal.Record {
	t.Helper()
	b, err := wal.OpenSegmentedBackend(dir, segCrashConfig())
	if err != nil {
		t.Fatalf("read segmented log %s: %v", dir, err)
	}
	recs := append([]wal.Record(nil), b.Replay()...)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// runTransferCrashWorkloadSegmented is runTransferCrashWorkload over a
// segmented backend: same workload, same crash contract, rotated segment
// files instead of one append-only file.
func runTransferCrashWorkloadSegmented(t *testing.T, dir string, crashAt int, seed int64) int {
	t.Helper()
	cfg := transferCrashConfig(seed)
	backend, err := wal.CreateSegmentedBackend(dir, segCrashConfig())
	if err != nil {
		t.Fatal(err)
	}
	var cp wal.CrashPoint
	if crashAt >= 0 {
		cp = func(batch int, _ []wal.Record) bool { return batch >= crashAt }
	}
	log, err := wal.Open(wal.Config{Async: true, Backend: backend, CrashPoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewTransferEngine(cfg, log)
	sim.RunTransfers(e, cfg)
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	if err := history.WellFormed(e.History()); err != nil {
		t.Fatalf("live history malformed: %v", err)
	}
	return int(e.WAL().Flushes())
}

// restartSegmentedOf reopens a segmented WAL directory and restarts every
// listed object at the given parallelism, returning the recovered values,
// the post-restart records, and the restart stats.
func restartSegmentedOf(t *testing.T, dir string, point int, objs []history.ObjectID,
	parallelism int) (map[history.ObjectID]string, []wal.Record, recovery.RestartStats) {
	t.Helper()
	backend, err := wal.OpenSegmentedBackend(dir, segCrashConfig())
	if err != nil {
		t.Fatalf("crash point %d: reopen segmented: %v", point, err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatalf("crash point %d: replay: %v", point, err)
	}
	stores, stats, err := recovery.RestartAllWithConfig(objs,
		func(history.ObjectID) adt.Machine { return crashMachine() }, log, nil,
		recovery.RestartConfig{Parallelism: parallelism})
	if err != nil {
		t.Fatalf("crash point %d: %v", point, err)
	}
	vals := map[history.ObjectID]string{}
	for obj, st := range stores {
		vals[obj] = st.CommittedValue().Encode()
	}
	recs := log.Snapshot()
	if err := log.Close(); err != nil {
		t.Fatalf("crash point %d: close restarted log: %v", point, err)
	}
	return vals, recs, stats
}

// TestTransferCrashSweepSegmented: the transfer crash sweep of
// transfer_crash_test.go on the segmented backend. Tiny segments put many
// rotation boundaries inside the sweep's crash range; at every injection
// point the reopened segment set must recover to the oracle balance,
// conserve the total, terminate every loser, and be a fixed point under a
// second restart.
func TestTransferCrashSweepSegmented(t *testing.T) {
	dir := t.TempDir()
	cfg := transferCrashConfig(1)
	objs := transferObjects(cfg)
	total := cfg.Accounts * cfg.InitialBalance

	calDir := filepath.Join(dir, "cal")
	batches := runTransferCrashWorkloadSegmented(t, calDir, -1, 1)
	if batches < 5 {
		t.Fatalf("workload produced only %d batches; sweep needs more boundaries", batches)
	}
	// The tiny segment size must actually rotate, or the sweep degenerates
	// into the single-file case.
	calBackend, err := wal.OpenSegmentedBackend(calDir, segCrashConfig())
	if err != nil {
		t.Fatal(err)
	}
	calSegs := len(calBackend.Segments())
	calBackend.Close()
	if calSegs < 3 {
		t.Fatalf("calibration run produced only %d segments; crashes cannot land at rotation boundaries", calSegs)
	}

	losersSeen := 0
	sweep(t, batches, 24, 16, func(t *testing.T, k int) {
		wdir := filepath.Join(dir, fmt.Sprintf("crash%02d", k))
		runTransferCrashWorkloadSegmented(t, wdir, k, int64(1000+k))
		durable := readSegmentedLog(t, wdir)
		if countInFlight(durable) > 0 {
			losersSeen++
		}
		vals, recs, _ := restartSegmentedOf(t, wdir, k, objs, 0)
		sum := 0
		for _, obj := range objs {
			want := strconv.Itoa(expectedBalance(durable, obj, cfg.InitialBalance))
			if vals[obj] != want {
				t.Errorf("account %s: restarted state %s, oracle %s (durable prefix %d records)",
					obj, vals[obj], want, len(durable))
			}
			bal, err := strconv.Atoi(vals[obj])
			if err != nil {
				t.Fatalf("account %s: unparsable state %q", obj, vals[obj])
			}
			sum += bal
			assertLosersTerminated(t, recs, obj, k)
		}
		if sum != total {
			t.Errorf("crash point %d: recovered total %d, want %d — restart observed half a transfer",
				k, sum, total)
		}
		again, _, _ := restartSegmentedOf(t, wdir, k, objs, 0)
		for obj, v := range vals {
			if again[obj] != v {
				t.Errorf("account %s: second restart diverged: %s vs %s", obj, again[obj], v)
			}
		}
	})
	if losersSeen == 0 {
		t.Error("no injection point produced an in-flight loser; the sweep is not crashing inside transfers")
	}
}

// runCheckpointedTransferSegmented drives the checkpointing transfer
// workload (truncation enabled — segment unlinking live) on a segmented
// backend, with the WAL crash point and the checkpoint store's crash hook
// sharing one flag.
func runCheckpointedTransferSegmented(t *testing.T, walDir, ckptDir string, crashAt int, seed int64) int {
	t.Helper()
	cfg := transferCrashConfig(seed)
	backend, err := wal.CreateSegmentedBackend(walDir, segCrashConfig())
	if err != nil {
		t.Fatal(err)
	}
	var crashed atomic.Bool
	var cp wal.CrashPoint
	if crashAt >= 0 {
		cp = func(batch int, _ []wal.Record) bool {
			if batch >= crashAt {
				crashed.Store(true)
			}
			return crashed.Load()
		}
	}
	log, err := wal.Open(wal.Config{Async: true, Backend: backend, CrashPoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.OpenFileStore(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetCrashHook(func(*checkpoint.Snapshot) bool { return crashed.Load() })
	e := txn.NewEngine(txn.Options{
		RecordHistory: cfg.Record,
		Shards:        cfg.Shards,
		WAL:           log,
		Checkpoint:    &txn.CheckpointOptions{Store: store},
	})
	ba := cfg.BankAccount()
	for i := 0; i < cfg.Accounts; i++ {
		e.MustRegister(sim.TransferAccountID(i), ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
	}
	done := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := e.Checkpoint(); err != nil && !errors.Is(err, wal.ErrClosed) {
				t.Errorf("live checkpoint: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()
	sim.RunTransfers(e, cfg)
	close(done)
	ckptWG.Wait()
	batches := int(e.WAL().Flushes())
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	return max(batches, int(e.WAL().Flushes()))
}

// restartSegmentedCkptOf is restartSegmentedOf seeded from the newest
// durable snapshot of a checkpoint store.
func restartSegmentedCkptOf(t *testing.T, walDir, ckptDir string, point int, objs []history.ObjectID,
	parallelism int) (map[history.ObjectID]string, []wal.Record, *checkpoint.Snapshot, recovery.RestartStats) {
	t.Helper()
	backend, err := wal.OpenSegmentedBackend(walDir, segCrashConfig())
	if err != nil {
		t.Fatalf("crash point %d: reopen segmented: %v", point, err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatalf("crash point %d: replay: %v", point, err)
	}
	store, err := checkpoint.OpenFileStore(ckptDir)
	if err != nil {
		t.Fatalf("crash point %d: reopen checkpoint store: %v", point, err)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatalf("crash point %d: load checkpoint: %v", point, err)
	}
	stores, stats, err := recovery.RestartAllWithConfig(objs,
		func(history.ObjectID) adt.Machine { return crashMachine() }, log, snap,
		recovery.RestartConfig{Parallelism: parallelism})
	if err != nil {
		t.Fatalf("crash point %d: checkpointed restart: %v", point, err)
	}
	vals := map[history.ObjectID]string{}
	for obj, st := range stores {
		vals[obj] = st.CommittedValue().Encode()
	}
	recs := log.Snapshot()
	if err := log.Close(); err != nil {
		t.Fatalf("crash point %d: close restarted log: %v", point, err)
	}
	return vals, recs, snap, stats
}

// TestCheckpointTransferCrashSweepSegmented: the truncating checkpointed
// transfer sweep on the segmented backend — live truncation unlinks dead
// segments (aligned to segment starts) while the workload runs, then a
// crash leaves a segment-set-plus-snapshot pair the restart must recover
// from. Conservation oracles every point; the retained log must start at a
// segment boundary at or below the snapshot frontier.
func TestCheckpointTransferCrashSweepSegmented(t *testing.T) {
	dir := t.TempDir()
	cfg := transferCrashConfig(1)
	objs := transferObjects(cfg)
	total := cfg.Accounts * cfg.InitialBalance

	batches := runCheckpointedTransferSegmented(t, filepath.Join(dir, "cal"), filepath.Join(dir, "cal.ckpt"), -1, 1)
	if batches < 5 {
		t.Fatalf("workload produced only %d batches; sweep needs more boundaries", batches)
	}

	seeded, truncatedPoints := 0, 0
	sweep(t, batches, 30, 12, func(t *testing.T, k int) {
		walDir := filepath.Join(dir, fmt.Sprintf("crash%02d", k))
		ckptDir := filepath.Join(dir, fmt.Sprintf("crash%02d.ckpt", k))
		runCheckpointedTransferSegmented(t, walDir, ckptDir, k, int64(1000+k))
		durable := readSegmentedLog(t, walDir)
		vals, recs, snap, _ := restartSegmentedCkptOf(t, walDir, ckptDir, k, objs, 0)
		sum := 0
		for _, obj := range objs {
			bal, err := strconv.Atoi(vals[obj])
			if err != nil {
				t.Fatalf("account %s: unparsable state %q", obj, vals[obj])
			}
			sum += bal
			assertLosersTerminated(t, recs, obj, k)
		}
		if sum != total {
			t.Errorf("crash point %d: recovered total %d, want %d (snapshot %v, %d retained records)",
				k, sum, total, snap != nil, len(durable))
		}
		if snap != nil {
			seeded++
			if len(durable) > 0 && durable[0].LSN > 1 {
				truncatedPoints++
				if durable[0].LSN > snap.Frontier {
					t.Errorf("retained log starts at %d, past the snapshot frontier %d — truncation outran its checkpoint",
						durable[0].LSN, snap.Frontier)
				}
			}
		}
		again, _, _, _ := restartSegmentedCkptOf(t, walDir, ckptDir, k, objs, 0)
		for obj, v := range vals {
			if again[obj] != v {
				t.Errorf("account %s: second restart diverged: %s vs %s", obj, again[obj], v)
			}
		}
	})
	if seeded == 0 {
		t.Error("no injection point restarted from a durable checkpoint")
	}
	if truncatedPoints == 0 {
		t.Error("no injection point saw a truncated (segment-unlinked) durable log")
	}
	t.Logf("sweep: %d points checkpoint-seeded, %d with unlinked segments", seeded, truncatedPoints)
}

// copySegmentDir clones a segmented WAL directory so two restart variants
// can each mutate (append their undo tails to) identical durable
// artifacts.
func copySegmentDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelRestartEquivalence is the property test of the parallel
// restart: over the same crashed, checkpointed, truncated durable
// artifacts, RestartAllWithConfig at parallelism 1 (fully sequential) and
// parallelism 8 must produce identical recovered values, identical winner
// sets, identical post-restart logs (the undo tails land in object order
// regardless of which worker produced them), and identical aggregate
// replay/skip/undo counters — with the per-worker breakdown at
// parallelism 8 actually spreading the replay over multiple workers.
func TestParallelRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := transferCrashConfig(1)
	objs := transferObjects(cfg)

	srcWal := filepath.Join(dir, "src")
	ckptDir := filepath.Join(dir, "src.ckpt")
	batches := runCheckpointedTransferSegmented(t, srcWal, ckptDir, -1, 7)
	// Re-run crashed near the middle so the restart has real losers to
	// undo (the crash-free artifacts would exercise redo only).
	srcWal = filepath.Join(dir, "crashed")
	ckptDir = filepath.Join(dir, "crashed.ckpt")
	runCheckpointedTransferSegmented(t, srcWal, ckptDir, batches/2, 7)

	// Winner sets are decided by the durable artifacts alone; both
	// variants read clones of the same bytes.
	durable := readSegmentedLog(t, srcWal)
	wantWinners := recovery.Winners(durable)

	type result struct {
		vals  map[history.ObjectID]string
		recs  []wal.Record
		stats recovery.RestartStats
	}
	variants := map[string]int{"seq": 1, "par8": 8}
	results := map[string]result{}
	for name, p := range variants {
		vdir := filepath.Join(dir, "variant-"+name)
		copySegmentDir(t, srcWal, vdir)
		if got := readSegmentedLog(t, vdir); !reflect.DeepEqual(got, durable) {
			t.Fatalf("variant %s: cloned artifacts differ from source", name)
		}
		vals, recs, _, stats := restartSegmentedCkptOf(t, vdir, ckptDir, batches/2, objs, p)
		results[name] = result{vals, recs, stats}
	}

	seq, par := results["seq"], results["par8"]
	if seq.stats.Parallelism != 1 {
		t.Fatalf("sequential variant ran at parallelism %d", seq.stats.Parallelism)
	}
	if par.stats.Parallelism != 8 {
		t.Fatalf("parallel variant ran at parallelism %d", par.stats.Parallelism)
	}
	if !reflect.DeepEqual(seq.vals, par.vals) {
		t.Errorf("recovered values diverge:\nseq: %v\npar: %v", seq.vals, par.vals)
	}
	if !reflect.DeepEqual(seq.recs, par.recs) {
		t.Errorf("post-restart logs diverge: %d vs %d records", len(seq.recs), len(par.recs))
		for i := range seq.recs {
			if i < len(par.recs) && !reflect.DeepEqual(seq.recs[i], par.recs[i]) {
				t.Errorf("first divergence at index %d: %+v vs %+v", i, seq.recs[i], par.recs[i])
				break
			}
		}
	}
	for _, r := range []result{seq, par} {
		if got := recovery.Winners(r.recs); !reflect.DeepEqual(got, wantWinners) {
			t.Errorf("winner set changed by restart: %v vs %v", got, wantWinners)
		}
	}
	agg := func(s recovery.RestartStats) [6]int {
		return [6]int{s.LogRecords, s.Replayed, s.Skipped, s.SeededObjects, s.SeededTxns, s.Undone}
	}
	if agg(seq.stats) != agg(par.stats) {
		t.Errorf("aggregate stats diverge: seq %v, par %v", agg(seq.stats), agg(par.stats))
	}
	// The parallel variant's replay must actually be distributed: more
	// than one worker touched objects (6 accounts over 8 hash buckets).
	busy := 0
	for _, w := range par.stats.PerWorker {
		if w.Objects > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("parallel restart used %d workers for %d objects; expected the hash to spread them", busy, len(objs))
	}
	// Per-worker replay counts must sum to the aggregate.
	sumReplayed := 0
	for _, w := range par.stats.PerWorker {
		sumReplayed += w.Replayed
	}
	if sumReplayed != par.stats.Replayed {
		t.Errorf("per-worker replayed sums to %d, aggregate is %d", sumReplayed, par.stats.Replayed)
	}
}
