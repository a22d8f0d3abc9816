package recovery

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/wal"
)

// WorkerStats counts the pass-2 work one restart worker performed — the
// per-worker distribution that shows replay actually spreading across the
// pool.
type WorkerStats struct {
	// Objects is the number of objects dealt to this worker.
	Objects int `json:"objects"`
	// Replayed/Skipped/Undone are this worker's shares of the aggregate
	// counters (see RestartStats).
	Replayed int `json:"replayed"`
	Skipped  int `json:"skipped"`
	Undone   int `json:"undone"`
}

// RestartStats counts the work one restart performed. Without a checkpoint, Replayed
// grows with the whole log; with one, it is bounded by the suffix past the
// checkpoint frontier. The aggregate counters are identical for any
// parallelism (object assignment only moves work between workers); only
// PerWorker and the wall-clock fields vary.
type RestartStats struct {
	// LogRecords is the number of records in the scanned (retained) log —
	// what pass 1's winner scan walks.
	LogRecords int `json:"log_records"`
	// Replayed counts the per-object records pass 2 processed (updates
	// redone, compensations re-applied, commit/abort records consumed).
	Replayed int `json:"replayed"`
	// Skipped counts per-object records pass 2 skipped because the
	// checkpoint's capture already reflects them (LSN at or below the
	// object's marker).
	Skipped int `json:"skipped"`
	// SeededObjects and SeededTxns count checkpoint seeding: objects whose
	// state came from the snapshot, and in-flight transactions whose undo
	// tables were reconstructed from it.
	SeededObjects int `json:"seeded_objects"`
	SeededTxns    int `json:"seeded_txns"`
	// Undone counts loser updates rolled back by the undo phase.
	Undone int `json:"undone"`

	// Segments is the number of partitions pass 1's winner scan fanned out
	// over: the durable segment count for a segmented backend, otherwise
	// the even-chunk count (1 when the scan ran sequentially).
	Segments int `json:"segments"`
	// Parallelism is the pass-2 worker-pool size actually used.
	Parallelism int `json:"parallelism"`
	// PerWorker is each pass-2 worker's share of the object set and the
	// replay counters, in worker order.
	PerWorker []WorkerStats `json:"per_worker,omitempty"`
	// Pass1NS, Pass2NS, and WallNS are wall-clock nanoseconds for the
	// winner scan, the redo/undo phase, and the whole restart. On a loaded
	// or single-vCPU machine these are ordinal signals only; the record
	// counts above are the machine-independent measurement.
	Pass1NS int64 `json:"pass1_ns"`
	Pass2NS int64 `json:"pass2_ns"`
	WallNS  int64 `json:"wall_ns"`
}

// maxRestartWorkers caps the pass-2 worker pool: past it, more workers
// cannot help.
const maxRestartWorkers = 256

// RestartConfig parameterizes RestartAllWithConfig.
type RestartConfig struct {
	// Parallelism is the pass-2 worker-pool size (at most
	// maxRestartWorkers; 0 selects GOMAXPROCS). Pass 1
	// fans out one goroutine per durable log segment (or per even chunk,
	// up to Parallelism, for unsegmented backends). Parallelism 1 is the
	// fully sequential restart; any value yields an identical recovered
	// state, winner set, and aggregate counters.
	Parallelism int
}

// Winners scans log records for transaction-level commit records and
// returns the set of transactions that durably committed. This is pass 1
// of the restart protocol, shared across the per-object restarts of one
// log: recovery is presumed-abort, so a transaction absent from this set
// is a loser — even if some of its per-object CommitRecs reached the
// durable log before the crash.
func Winners(recs []wal.Record) map[history.TxnID]bool {
	w := make(map[history.TxnID]bool)
	for _, rec := range recs {
		if rec.Kind == wal.TxnCommitRec {
			w[rec.Txn] = true
		}
	}
	return w
}

// winnersParallel is Winners fanned out over the partitions of snap
// induced by the durable segment bounds (each bound is the first LSN of
// one segment; snap is LSN-contiguous, so a bound maps to an index by
// plain arithmetic). Commit records are only ever added to the winner set,
// so partition-local scans merge by union. Falls back to p even chunks
// when the backend is unsegmented, and to a plain scan for small logs.
// Returns the winner set and the partition count.
func winnersParallel(snap []wal.Record, bounds []wal.LSN, p int) (map[history.TxnID]bool, int) {
	if len(snap) == 0 {
		return map[history.TxnID]bool{}, 1
	}
	// Partition start indices into snap, ascending, starting at 0.
	var starts []int
	if len(bounds) > 0 {
		first := snap[0].LSN
		for _, b := range bounds {
			idx := 0
			if b > first {
				idx = int(b - first)
			}
			if idx >= len(snap) {
				continue
			}
			if len(starts) == 0 || idx > starts[len(starts)-1] {
				starts = append(starts, idx)
			}
		}
		if len(starts) == 0 || starts[0] != 0 {
			starts = append([]int{0}, starts...)
		}
	} else {
		if p < 1 {
			p = 1
		}
		chunk := (len(snap) + p - 1) / p
		for i := 0; i < len(snap); i += chunk {
			starts = append(starts, i)
		}
	}
	if len(starts) <= 1 {
		return Winners(snap), len(starts)
	}
	sets := make([]map[history.TxnID]bool, len(starts))
	var wg sync.WaitGroup
	for i := range starts {
		lo := starts[i]
		hi := len(snap)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			sets[i] = Winners(snap[lo:hi])
		}(i, lo, hi)
	}
	wg.Wait()
	merged := make(map[history.TxnID]bool)
	for _, s := range sets {
		for t := range s {
			merged[t] = true
		}
	}
	return merged, len(starts)
}

// appendTail writes the compensation and abort records a restart's undo
// phase produced. Restart workers never touch the log themselves; their
// tails are appended here, in object order, so the records land in the
// same sequence regardless of parallelism.
func appendTail(log *wal.Log, tail []wal.Record) {
	for _, r := range tail {
		log.Append(r)
	}
}

// RestartAllWithConfig reconstructs an UndoLog store for every listed
// object of one shared write-ahead log after a crash, as a two-pass
// presumed-abort protocol in the style of ARIES-lineage restart:
//
//  1. Outcomes (pass 1): scan the whole durable log for transaction-level
//     commit records (wal.TxnCommitRec). A transaction is a winner iff its
//     TxnCommitRec survived; everything else is presumed aborted. Because
//     Txn.Commit stages the TxnCommitRec after every per-object CommitRec
//     and batches are consistent cuts, a winner's per-object records are
//     always durable too — but the converse does not hold, and a crash
//     between two objects' CommitRecs of one transaction (or before the
//     TxnCommitRec) makes the whole transaction a loser at every object,
//     never half of one.
//
//  2. Redo + undo (pass 2): replay every Update record for each object in
//     LSN order against a fresh machine from machineFor, checking that each
//     operation reproduces its logged response (the machine is a
//     deterministic refinement, so divergence means a corrupt log or
//     mismatched machine). Compensation records re-apply the undo they
//     logged. A per-object CommitRec is a redo hint only: it discharges a
//     winner's pending undo records, but for a loser it is ignored, so the
//     loser's updates stay undoable. Losers' un-compensated updates are
//     then undone newest-first, exactly as live abort processing would
//     have done, and compensation plus abort records are appended so the
//     log ends in a state equivalent to "every loser aborted".
//
// The paper deliberately leaves crash recovery out of scope (Section 1);
// restart is the natural engineering extension the paper's abort-recovery
// analysis anticipates: because undo is logical (operation-level), the
// reconstructed state is exactly the one obtained by aborting the losers,
// and the correctness argument is Theorem 9's. The presumed-abort outcome
// rule is the commit protocol the paper's model assumes delegated to the
// log: the transaction-level record is the atomic commit point for all
// objects at once. The returned stores own the same log and are ready for
// new transactions.
//
// A log with no backend (wal.New) is refused: it retains no records, so
// "restarting" from it would silently return every object in its initial
// state.
//
// A non-nil ckpt seeds the restart from a fuzzy checkpoint: each object
// covered by the snapshot starts from its captured state with its
// in-flight transaction table reconstructed, and pass 2 replays only the
// records past that object's marker — the bounded-suffix restart the
// checkpoint exists for. Objects the snapshot does not cover (registered
// after the checkpoint's registry walk began) replay in full from the
// retained log.
// The winner scan runs over the retained log, which by the checkpoint
// contract contains every decision record restart can need: any
// transaction pending at a capture, or starting after one, stages its
// transaction-level commit record past the checkpoint frontier, and any
// transaction wholly decided before the frontier is already folded into
// the captured states. A truncated log cannot be restarted without its
// snapshot.
//
// Pass 1's winner scan fans out one goroutine per durable log segment (see
// wal.Log.SegmentBounds; unsegmented backends scan in even chunks), and
// pass 2 runs a pool of cfg.Parallelism workers (default GOMAXPROCS), the
// objects dealt to them round-robin in the caller's order — an object's
// records replay on exactly one goroutine, in LSN order, so per-object
// ordering needs no synchronization at all. Undo-phase appends are collected per object and written after the
// pool joins, in object order: the recovered state, winner set, appended
// records, and aggregate stats are bit-identical at every parallelism. The
// returned stats separate bounded work (Replayed) from skipped prefix
// records, report the seeding volume, and carry the per-worker and
// per-pass breakdown.
//
// The logging discipline is detected from the log itself: a log carrying
// the redo-only discipline marker (see wal.DisciplineMarker) restarts via
// the winners-only forward replay of restartRedoWith; an unmarked log
// restarts via the redo+undo protocol of restartWith. A log or checkpoint
// whose contents contradict the detected discipline is rejected before any
// replay — see checkLogDiscipline.
func RestartAllWithConfig(objs []history.ObjectID, machineFor func(history.ObjectID) adt.Machine,
	log *wal.Log, ckpt *checkpoint.Snapshot, cfg RestartConfig) (map[history.ObjectID]*UndoLog, RestartStats, error) {
	start := time.Now() //lint:ignore detreplay wall-clock stats only (RestartStats timing); never feeds replayed state
	var stats RestartStats
	if !log.Durable() {
		return nil, stats, fmt.Errorf("recovery: restart: log has no backend and retains no records to replay")
	}
	if ckpt == nil && log.Base() > 0 {
		// A truncated log is only replayable from the checkpoint that
		// justified the truncation. Replaying the bare suffix from initial
		// state would often pass the response checks (deltas reproduce
		// against many wrong states) and return silently wrong values, so
		// a missing snapshot is an error, not a degraded restart.
		return nil, stats, fmt.Errorf("recovery: log truncated to base %d but no checkpoint snapshot supplied",
			log.Base())
	}
	if ckpt != nil && log.Base() >= ckpt.Frontier {
		return nil, stats, fmt.Errorf("recovery: log truncated to base %d past checkpoint %s frontier %d",
			log.Base(), ckpt.ID, ckpt.Frontier)
	}
	redo := log.Discipline() == wal.DisciplineRedo
	if ckpt != nil {
		if ckptRedo := ckpt.Discipline == wal.DisciplineRedo; ckptRedo != redo {
			return nil, stats, fmt.Errorf("recovery: checkpoint %s discipline %q does not match log discipline %q",
				ckpt.ID, ckpt.Discipline, log.Discipline())
		}
	}
	p := cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	p = min(p, maxRestartWorkers)

	// Pass 1: partitioned winner scan over the consistent log snapshot.
	bounds := log.SegmentBounds()
	snap := log.Snapshot()
	stats.LogRecords = len(snap)
	if err := checkLogDiscipline(snap, redo); err != nil {
		return nil, stats, err
	}
	pass1 := time.Now() //lint:ignore detreplay wall-clock stats only (RestartStats timing); never feeds replayed state
	winners, parts := winnersParallel(snap, bounds, p)
	stats.Pass1NS = time.Since(pass1).Nanoseconds() //lint:ignore detreplay wall-clock stats only (RestartStats timing); never feeds replayed state
	stats.Segments = parts
	if redo && log.Base() == 0 {
		// On an untruncated log every winner's dependency set must itself
		// be durable — a cheap end-to-end audit of the consistent-cut
		// batching that the winners-only replay relies on. Truncation may
		// fold a dependency's commit record away, so the check is skipped
		// once the log has a base.
		if err := checkDepClosure(snap, winners); err != nil {
			return nil, stats, err
		}
	}

	seeds := make(map[history.ObjectID]*checkpoint.ObjectSnapshot)
	if ckpt != nil {
		for i := range ckpt.Objects {
			seeds[ckpt.Objects[i].Obj] = &ckpt.Objects[i]
		}
	}

	// Pass 2: deal the objects to the workers round-robin; every worker
	// replays its objects (in the caller's object order) with a private
	// stats block, writing results and undo tails into per-object slots.
	// The snapshot is grouped by object once, so each object's replay
	// visits only its own records (by index, in LSN order) instead of
	// scanning the whole log.
	pass2 := time.Now() //lint:ignore detreplay wall-clock stats only (RestartStats timing); never feeds replayed state
	recsOf := make(map[history.ObjectID][]int, len(objs))
	for _, obj := range objs {
		recsOf[obj] = nil
	}
	for i := range snap {
		if idxs, ok := recsOf[snap[i].Obj]; ok {
			recsOf[snap[i].Obj] = append(idxs, i)
		}
	}
	stats.Parallelism = p
	buckets := make([][]int, p) // worker -> indices into objs, ascending
	for i := range objs {
		buckets[i%p] = append(buckets[i%p], i)
	}
	stores := make([]*UndoLog, len(objs))
	tails := make([][]wal.Record, len(objs))
	errs := make([]error, len(objs))
	workerStats := make([]RestartStats, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		if len(buckets[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range buckets[w] {
				obj := objs[i]
				if redo {
					st, err := restartRedoWith(obj, machineFor(obj), log, snap, recsOf[obj], winners, seeds[obj], &workerStats[w])
					if err != nil {
						errs[i] = fmt.Errorf("recovery: restart %s: %w", obj, err)
						return
					}
					stores[i] = st
					continue
				}
				st, tail, err := restartWith(obj, machineFor(obj), log, snap, recsOf[obj], winners, seeds[obj], &workerStats[w])
				if err != nil {
					errs[i] = fmt.Errorf("recovery: restart %s: %w", obj, err)
					return
				}
				stores[i], tails[i] = st, tail
			}
		}(w)
	}
	wg.Wait()
	stats.Pass2NS = time.Since(pass2).Nanoseconds() //lint:ignore detreplay wall-clock stats only (RestartStats timing); never feeds replayed state

	// Merge per-worker counters deterministically (worker order) and
	// surface the first error in object order.
	stats.PerWorker = make([]WorkerStats, p)
	for w := 0; w < p; w++ {
		ws := &workerStats[w]
		stats.PerWorker[w] = WorkerStats{
			Objects:  len(buckets[w]),
			Replayed: ws.Replayed,
			Skipped:  ws.Skipped,
			Undone:   ws.Undone,
		}
		stats.Replayed += ws.Replayed
		stats.Skipped += ws.Skipped
		stats.SeededObjects += ws.SeededObjects
		stats.SeededTxns += ws.SeededTxns
		stats.Undone += ws.Undone
	}
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}

	// Undo tails are appended only now, in object order: identical log
	// contents at every parallelism.
	out := make(map[history.ObjectID]*UndoLog, len(objs))
	for i, obj := range objs {
		appendTail(log, tails[i])
		out[obj] = stores[i]
	}
	stats.WallNS = time.Since(start).Nanoseconds() //lint:ignore detreplay wall-clock stats only (RestartStats timing); never feeds replayed state
	return out, stats, nil
}

// restartWith is pass 2 of the undo restart against a pre-scanned log snapshot and
// winner set (so multi-object callers can share pass 1), optionally seeded
// from one object's checkpoint capture; idxs are the snapshot indices of
// obj's records, ascending. It never appends to the log
// itself — the undo phase's compensation and abort records are returned as
// a tail for the caller to append in a deterministic order (restart
// workers run concurrently; their tails must not interleave).
func restartWith(obj history.ObjectID, m adt.Machine, log *wal.Log,
	snap []wal.Record, idxs []int, winners map[history.TxnID]bool,
	seed *checkpoint.ObjectSnapshot, stats *RestartStats) (*UndoLog, []wal.Record, error) {
	type txnInfo struct {
		aborted bool
		// pending holds applied-but-not-compensated update records, in
		// apply order.
		pending []undoRec
	}
	txns := make(map[history.TxnID]*txnInfo)
	get := func(t history.TxnID) *txnInfo {
		ti := txns[t]
		if ti == nil {
			ti = &txnInfo{}
			txns[t] = ti
		}
		return ti
	}

	state := m.Init()
	bi, hasBI := m.(adt.BeforeImageUndoer)

	// Checkpoint seeding: start from the captured (dirty) state and rebuild
	// the in-flight transaction table exactly as it stood at the object's
	// marker. The suffix replay below then continues the same execution the
	// live object performed, and the undo phase can roll back in-table
	// losers even if their only records lie in the truncated prefix.
	var markerLSN wal.LSN
	if seed != nil {
		vc, ok := m.(adt.ValueCodec)
		if !ok {
			return nil, nil, fmt.Errorf("recovery: restart %s: machine %s has no value codec for checkpoint state",
				obj, m.Name())
		}
		v, err := vc.DecodeValue(seed.State)
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: restart %s: checkpoint state: %w", obj, err)
		}
		state = v
		markerLSN = seed.MarkerLSN
		stats.SeededObjects++
		for _, at := range seed.Active {
			ti := get(at.Txn)
			stats.SeededTxns++
			for _, po := range at.Ops {
				var before any
				if po.HasUndo {
					c, ok := m.(adt.UndoTokenCodec)
					if !ok {
						return nil, nil, fmt.Errorf("recovery: restart %s: machine %s has no undo token codec",
							obj, m.Name())
					}
					dec, err := c.DecodeUndoToken(po.Undo)
					if err != nil {
						return nil, nil, fmt.Errorf("recovery: restart %s: checkpoint undo token of %s: %w",
							obj, at.Txn, err)
					}
					before = dec
				}
				ti.pending = append(ti.pending, undoRec{op: po.Op, before: before})
			}
		}
	}

	undoOne := func(r undoRec) error {
		var next adt.Value
		var err error
		if hasBI && r.before != nil {
			next, err = bi.UndoWithBefore(state, r.op, r.before)
		} else {
			next, err = m.Undo(state, r.op)
		}
		if err != nil {
			return err
		}
		state = next
		return nil
	}

	// Pass 2, redo: replay obj's history from the log — all of it on a
	// plain restart, only the suffix past the object's capture marker on a
	// checkpointed one (the captured state already reflects the prefix).
	for _, i := range idxs {
		rec := &snap[i]
		if rec.LSN <= markerLSN {
			stats.Skipped++
			continue
		}
		if rec.Kind == wal.CheckpointRec {
			// A capture marker — this checkpoint's own (LSN == markerLSN,
			// already skipped above, unless the log was not truncated), an
			// older checkpoint's, or a newer incomplete one's. Markers carry
			// no state.
			continue
		}
		stats.Replayed++
		ti := get(rec.Txn)
		switch rec.Kind {
		case wal.Update:
			res, next, err := m.Apply(state, rec.Op.Inv)
			if err != nil {
				return nil, nil, fmt.Errorf("recovery: restart redo LSN %d: %w", rec.LSN, err)
			}
			if res != rec.Op.Res {
				return nil, nil, fmt.Errorf("recovery: restart redo LSN %d: operation %s replayed with response %q",
					rec.LSN, rec.Op, res)
			}
			state = next
			before := rec.Undo
			if enc, ok := before.(wal.EncodedUndo); ok {
				c, ok := m.(adt.UndoTokenCodec)
				if !ok {
					return nil, nil, fmt.Errorf("recovery: restart LSN %d: machine %s has no undo token codec",
						rec.LSN, m.Name())
				}
				dec, err := c.DecodeUndoToken(string(enc))
				if err != nil {
					return nil, nil, fmt.Errorf("recovery: restart LSN %d: %w", rec.LSN, err)
				}
				before = dec
			}
			ti.pending = append(ti.pending, undoRec{op: rec.Op, before: before})
		case wal.CompensationRec:
			if len(ti.pending) == 0 {
				return nil, nil, fmt.Errorf("recovery: restart LSN %d: compensation with no pending update for %s",
					rec.LSN, rec.Txn)
			}
			last := ti.pending[len(ti.pending)-1]
			if last.op != rec.Op {
				return nil, nil, fmt.Errorf("recovery: restart LSN %d: compensation order mismatch (%s vs %s)",
					rec.LSN, last.op, rec.Op)
			}
			if err := undoOne(last); err != nil {
				return nil, nil, fmt.Errorf("recovery: restart LSN %d: %w", rec.LSN, err)
			}
			ti.pending = ti.pending[:len(ti.pending)-1]
		case wal.CommitRec:
			// Redo hint only: for a winner the updates are durably
			// committed and need no undo records. For a loser (its
			// TxnCommitRec never became durable) the record is ignored —
			// presumed abort keeps the updates pending so the undo phase,
			// or a previous restart's compensation records, can undo them.
			if winners[rec.Txn] {
				ti.pending = nil
			}
		case wal.AbortRec:
			ti.aborted = true
			if len(ti.pending) != 0 {
				return nil, nil, fmt.Errorf("recovery: restart: abort record for %s with %d un-compensated updates",
					rec.Txn, len(ti.pending))
			}
		default:
			// Only a redo-only engine writes per-object records of any other
			// kind; callers dispatch on the discipline marker before getting
			// here (see checkLogDiscipline), so this is a torn handoff.
			return nil, nil, fmt.Errorf("recovery: restart LSN %d: unexpected %s record in undo-mode replay",
				rec.LSN, rec.Kind)
		}
	}

	// Pass 2, undo: roll back the losers, producing compensation records as
	// live abort would. Deterministic order: by transaction ID. A loser
	// whose updates were all compensated before the crash (the abort flush
	// died after the last CLR but before the abort record) has nothing left
	// to undo but is still terminated with an abort record, so the next
	// restart sees it closed.
	var tail []wal.Record
	var losers []history.TxnID
	for t, ti := range txns {
		if !winners[t] && !ti.aborted {
			losers = append(losers, t)
		}
	}
	slices.Sort(losers)
	for _, t := range losers {
		ti := txns[t]
		for i := len(ti.pending) - 1; i >= 0; i-- {
			r := ti.pending[i]
			if err := undoOne(r); err != nil {
				return nil, nil, fmt.Errorf("recovery: restart undo of loser %s: %w", t, err)
			}
			stats.Undone++
			tail = append(tail, wal.Record{Kind: wal.CompensationRec, Txn: t, Obj: obj, Op: r.op})
		}
		tail = append(tail, wal.Record{Kind: wal.AbortRec, Txn: t, Obj: obj})
	}

	return &UndoLog{
		obj:     obj,
		machine: m,
		current: state,
		log:     log,
		chain:   make(map[history.TxnID][]undoRec),
	}, tail, nil
}
