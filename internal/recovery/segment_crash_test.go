package recovery_test

// The parallel-restart property test: restarting the same crashed,
// checkpointed, truncated segment set with parallelism 1 and parallelism 8
// must produce identical recovered values, winner sets, post-restart logs,
// and aggregate replay counters (run under -race in CI).

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/recovery"
)

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

	base := crashRun{walDir: filepath.Join(dir, "src"), ckptDir: filepath.Join(dir, "src.ckpt"), truncate: true,
		segBytes: segCrashBytes, crashAt: -1, seed: 7}
	cal := runTransferCrash(t, base)
	// Re-run crashed near the middle so the restart has real losers to
	// undo (the crash-free artifacts would exercise redo only).
	run := base.point(dir, cal.batches/2, 7)
	runTransferCrash(t, run)

	// Winner sets are decided by the durable artifacts alone; both
	// variants read clones of the same bytes.
	durable := readDurable(t, run.walDir)
	wantWinners := recovery.Winners(durable)

	variants := map[string]int{"seq": 1, "par8": 8}
	results := map[string]restarted{}
	for name, p := range variants {
		vdir := filepath.Join(dir, "variant-"+name)
		copySegmentDir(t, run.walDir, vdir)
		if got := readDurable(t, vdir); !reflect.DeepEqual(got, durable) {
			t.Fatalf("variant %s: cloned artifacts differ from source", name)
		}
		results[name] = restartDurable(t, vdir, run.ckptDir, objs, p)
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
	for _, r := range []restarted{seq, par} {
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
