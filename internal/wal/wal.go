// Package wal implements a group-committed write-ahead log used by the
// update-in-place recovery manager: an append-only sequence of typed
// records with monotonically increasing LSNs and per-transaction backward
// chains, supporting the abort-time backward walk that operation-logging
// recovery performs, and — through the Backend seam — durable storage that
// recovery.RestartAllWithConfig can replay after a crash.
//
// A log opened with no Backend (New, or Open with Backend unset) is a
// sink: it stamps and counts every appended record and keeps none of them.
// An in-memory engine has no device to restart from, and live abort walks
// each store's own undo chain, so nothing would ever read those records
// back; Flush, IsDurable and WaitDurable return at once, and the read
// accessors (Records, Snapshot, TxnChain, ...) see an empty log. Durable
// reports which kind a log is. Everything below describes a log with a
// backend.
//
// Appends are staged: AppendAsync and AppendBatchAsync append records to
// one staging queue without touching the committed region of the log, and
// take each record's ticket under the queue's lock, so queue order is
// ticket order. Since the recovery manager stages while holding the object
// latch, ticket order agrees with each object's true execution order.
// Sequencing — taking the whole queue and assigning it one contiguous LSN
// range in queue order while fixing up each transaction's backward PrevLSN
// chain — is the first half of a flush round. Every staged record is thus
// sequenced in ticket order, and a record's LSN is the log's LSN at Open
// plus its ticket. Under the flush lock a round sequences its batch,
// encodes it and writes it to the Backend, in LSN order; outside the lock
// the round's Backend.Sync makes the batch durable, so round k+1 can be
// sequenced, written and synced while round k's sync still runs.
// Rounds complete strictly in round order: a round's completion moves the
// durable watermark, records any failure as the sticky error, and wakes
// its barriers, and if round k fails every later round fails with it, even
// one whose own sync succeeded — a later sync does not prove round k's
// bytes reached the device.
//
// A barrier (Flush, WaitDurable) waits if its records are already in a
// round in flight, and otherwise leads a round itself on its own goroutine:
// classic group commit, where the records staged while one round is
// written pile into the next. There is no background flusher — a record
// staged with no barrier behind it stays staged until the next barrier, a
// reader, or Close sequences it. A commit therefore never waits out the
// sync of a round that does not hold its records, and rounds in flight are
// bounded by the number of barriers.
//
// LSN order is consistent with per-object and per-transaction execution
// order even across transactions in one batch — the invariant the Restart
// redo pass replays by. Each batch is moreover a ticket prefix of what is
// still staged, by construction (a round drains the queue whole), so a
// batch boundary — the unit of crash loss — never separates a record from
// a causally earlier one, and the durable prefix is always a ticket prefix.
// See backend.go for the Backend contract and segment.go for the durable
// backend; the test devices live in package waltest. A commit is acknowledged
// only after its round's Sync and every earlier round's have returned, so
// an acked commit is durable to whatever degree the backend provides.
//
// The log also exposes its durability frontier: AppendAsync returns a
// stage Ticket, the durable watermark (DurableLSN, IsDurable) tracks the
// last backend-acknowledged batch, and WaitDurable blocks a caller until
// the watermark covers a ticket — the seam early lock release is built
// on (a dependent transaction waits for the durability of the commits it
// read from, not just its own records). Close is
// idempotent and publishes a typed ErrClosed to appenders and barriers
// that lose the shutdown race.
//
// The paper deliberately abstracts recovery to the View function; this
// package is the executable substrate beneath the UIP abstraction — what
// System R-style recovery managers actually maintain. The log supports
// transaction abort and, via a durable backend plus
// recovery.RestartAllWithConfig, crash restart (the engineering extension
// the paper's Section 1 leaves out of scope).
package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/spec"
)

// LSN is a log sequence number. LSNs start at 1; 0 is the nil LSN.
type LSN uint64

// ErrClosed is wrapped by AppendAsync, Flush, and WaitDurable when the log
// has been closed: the record was not staged (or the barrier cannot be
// satisfied) because Close already drained the final batch. A commit racing
// Engine.Close observes this typed error instead of an unspecified race
// outcome.
var ErrClosed = errors.New("wal: log closed")

// Ticket identifies a staged record's position in the log's stage order:
// the n-th record staged since Open has ticket n. Records are sequenced in
// ticket order, so a record's LSN is the log's LSN at Open plus its ticket,
// and the durable prefix of the log is exactly a ticket prefix. A ticket
// therefore names a durability point before the record is sequenced — the
// handle early lock release needs to publish "the commit you just read
// from" to dependents (see DurableTicket and WaitDurable). The zero Ticket
// precedes every record and is always durable.
type Ticket int64

// RecordKind distinguishes log record types.
type RecordKind int

const (
	// Update records an executed operation with its undo token.
	Update RecordKind = iota
	// CommitRec marks a transaction's commit at this object.
	CommitRec
	// AbortRec marks the completion of a transaction's abort (all updates
	// undone).
	AbortRec
	// CompensationRec records the undo of one update during abort
	// processing (a compensation log record, in ARIES terminology).
	CompensationRec
	// TxnCommitRec is the transaction-level commit record: the single
	// durable commit point of a transaction, staged exactly once by
	// Txn.Commit after every touched object's commit processing and before
	// the durability barrier. Obj is empty — the record belongs to the
	// transaction, not to any object. Recovery is presumed-abort: a
	// transaction without a durable TxnCommitRec is a loser at restart,
	// even if some of its per-object CommitRecs survived; the per-object
	// records remain as redo hints only.
	TxnCommitRec
	// CheckpointRec marks a fuzzy-checkpoint capture point. Txn carries the
	// checkpoint's identifier (checkpoints reuse the per-transaction
	// backward chain so all of one checkpoint's markers are walkable). The
	// begin marker (Obj empty) is staged before any object is captured and
	// its LSN is the checkpoint's frontier — the truncation point and the
	// start of the winner scan at a checkpointed restart. Each per-object
	// marker (Obj set) is staged under that object's latch at the instant
	// its state is captured, so the marker's LSN splits the object's
	// records exactly into captured prefix and replayable suffix. Restart
	// ignores markers of checkpoints it is not seeded from.
	CheckpointRec
	// RedoRec records an executed operation under the REDO-only logging
	// discipline: the logical invocation and its response, with no undo
	// payload — the discipline of command/dependency logging. Restart
	// replays RedoRecs of winners only (in LSN order, which dependency
	// order refines); a loser's RedoRecs are simply never redone, so no
	// undo pass exists at restart.
	RedoRec
	// DisciplineRec marks the logging discipline of the log it appears in
	// (Op.Inv.Args carries the discipline name; see DisciplineRedo). A
	// redo-only engine stages one as its first record — and again inside
	// every checkpoint, right after the begin marker, so the marker
	// survives truncation — letting reopen/restart detect a
	// mixed-discipline handoff instead of silently mis-recovering.
	DisciplineRec
)

// String implements fmt.Stringer.
func (k RecordKind) String() string {
	switch k {
	case Update:
		return "update"
	case CommitRec:
		return "commit"
	case AbortRec:
		return "abort"
	case CompensationRec:
		return "clr"
	case TxnCommitRec:
		return "txn-commit"
	case CheckpointRec:
		return "checkpoint"
	case RedoRec:
		return "redo"
	case DisciplineRec:
		return "discipline"
	}
	return fmt.Sprintf("RecordKind(%d)", int(k))
}

// Logging disciplines a log can carry (see DisciplineRec and
// Log.Discipline). The undo discipline is the default and is implicit — an
// undo-mode log carries no marker, so every pre-discipline log reads as
// undo.
const (
	// DisciplineUndo is update-in-place undo logging: Update records carry
	// physical before-images and restart redoes winners then undoes losers.
	DisciplineUndo = "undo"
	// DisciplineRedo is REDO-only dependency logging: RedoRecs carry the
	// logical operation only, TxnCommitRecs carry the commit-order
	// dependency set, and restart replays winners forward with no undo
	// pass.
	DisciplineRedo = "redo"
)

// DisciplineMarker returns the marker record a redo-only engine stages to
// brand its log (Txn and Obj empty; the discipline rides in Op.Inv.Args).
func DisciplineMarker(d string) Record {
	return Record{Kind: DisciplineRec, Op: spec.Operation{Inv: spec.Invocation{Name: "discipline", Args: d}}}
}

// Record is one log record.
type Record struct {
	LSN     LSN
	Kind    RecordKind
	Txn     history.TxnID
	Obj     history.ObjectID
	Op      spec.Operation
	PrevLSN LSN // previous record of the same transaction (0 if first)
	// Undo is the opaque undo token captured before applying the operation
	// (nil when the machine's logical inverse needs no token). Tokens that
	// must survive a durable backend round trip are staged in their
	// EncodedUndo form (see backend.go); restart decodes them with the
	// machine's codec.
	Undo any
	// Deps is the transaction's commit-order dependency set, carried on
	// TxnCommitRec under the redo-only discipline: the committed writers
	// this transaction read from. Because flush batches are consistent
	// cuts, a durable TxnCommitRec's Deps are always durable winners too —
	// the property redo-only restart's winners-in-dependency-order replay
	// relies on. Nil under undo logging.
	Deps []history.TxnID
}

// CrashPoint is a test hook invoked after a batch is sequenced and before
// it is handed to the backend. batch is the zero-based index of non-empty
// batches since Open, and records is the sequenced batch. Returning true
// simulates a crash at this staged/flushed boundary: this batch and every
// later one silently never reach the backend, while in-memory sequencing
// and commit acknowledgements continue — modelling a machine that dies
// with the log tail still in volatile buffers, without hanging the live
// workload that is generating the log. records is valid only during the
// call (the log reuses its storage).
type CrashPoint func(batch int, records []Record) bool

// Config parameterizes Open.
type Config struct {
	// Backend is the durability seam each sequenced batch is handed to.
	// Nil makes the log a sink: appended records are stamped and counted
	// (FlushedRecords) but never staged, sequenced or retained, and every
	// other field is ignored.
	Backend Backend
	// CrashPoint, when non-nil, is the crash-injection hook (tests only).
	CrashPoint CrashPoint
}

// Log is an append-only log with group-committed LSN assignment and a
// pluggable durability backend. It is safe for concurrent use.
type Log struct {
	// stageMu guards staged, the records staged since the last drain in
	// ticket order. stampSeq is the last ticket issued; a log with a
	// backend advances it only under stageMu, together with the append to
	// staged (a sink, which stages nothing, advances it alone).
	stageMu  sync.Mutex
	staged   []Record
	stampSeq atomic.Int64
	// lsn0 is the log's LSN at Open: the record with ticket t gets LSN
	// lsn0+t.
	lsn0 LSN

	// flushMu serializes the sequence-and-write half of flush rounds; mu
	// guards the committed region and the rounds in flight.
	flushMu sync.Mutex
	mu      sync.Mutex
	// records holds the retained suffix of the log: records[i] has LSN
	// base+i+1. base counts records truncated away by TruncateBefore (or
	// absent from a reopened, previously truncated file); LSNs are never
	// renumbered, so references recorded before a truncation (checkpoint
	// frontiers, PrevLSN chains) stay meaningful.
	records []Record
	base    LSN
	// sizes[i] is records[i]'s encoded size: the exact bytes of its line
	// (its share of the flushed frame, or the line a replay scanned; 0 for
	// a batch that failed to encode). bytes is their sum — the log-length
	// accounting Stats reports — so truncation subtracts sizes and never
	// re-encodes.
	sizes  []int64
	bytes  int64
	lastOf map[history.TxnID]LSN
	// discipline is the logging discipline the log carries, set by the
	// first DisciplineRec sequenced or replayed ("" = no marker = implicit
	// undo logging). Under mu.
	discipline string
	syncErr    error // first failed round's error, applied in round order, under mu
	// truncStats accumulates the backend truncation cost across the log's
	// lifetime (under flushMu, like the backend calls that produce it).
	truncStats TruncateStats

	// Flush buffers, reused batch to batch under flushMu: the spare staging
	// queue a round swaps in for the one it drains, and the batch's encoded
	// frame with each record's share of it.
	batchBuf  []Record
	frame     []byte
	frameLens []int64

	// The durable watermark (under mu): the stage ticket and LSN of the
	// last record of the last round that completed durably. Because batches
	// are consistent cuts completed in order, everything at or below the
	// watermark is durable. The watermark freezes when a round fails or the
	// log is closed with records still staged; under a simulated crash it
	// keeps advancing (acknowledgements continue — the machine has not
	// noticed it is dead). durableCond is broadcast whenever rounds
	// complete, waking barriers.
	durableTicket int64
	durableLSN    LSN
	durableCond   *sync.Cond
	// Rounds (under mu): rounds holds those sequenced and not yet
	// completed, oldest first. seqTicket is the last ticket sequenced into
	// any round and doneTicket the last ticket of a completed one (durable
	// or failed); a barrier for ticket t waits while seqTicket >= t >
	// doneTicket.
	rounds     []round
	seqTicket  int64
	doneTicket int64

	backend Backend
	crash   CrashPoint
	crashed bool // under flushMu
	// dead stops handing batches to the backend once any round has
	// failed — set the moment the failure is seen, ahead of the round's
	// in-order completion: appending later batches after a hole would turn
	// the cleanly-synced prefix into an unreplayable file, whereas stopping
	// leaves a durable prefix Restart can still recover. The failure
	// itself becomes sticky in syncErr.
	dead atomic.Bool
	// closing is set at the start of Close, before the final drain; stage
	// checks it under stageMu, so a record either lands in the final batch
	// or its AppendAsync reports ErrClosed — never a silent drop.
	// backendGone (under flushMu) marks the backend closed, so a straggler
	// flush sequences in memory without touching it.
	closing     atomic.Bool
	backendGone bool
	// closeOnce makes Close idempotent; closeErr is what every call returns.
	closeOnce sync.Once
	closeErr  error

	// Batch diagnostics, reported by Stats.
	flushes atomic.Int64
	flushed atomic.Int64
	// stageAcqs counts staging-queue lock acquisitions by appenders (stage
	// and AppendBatchAsync; a flush round's drain is excluded) — a
	// machine-independent synchronization cost.
	stageAcqs atomic.Int64

	// obsv is the optional observability hub flush rounds report batch
	// sizes and write-plus-sync durations into. Attached after Open (a
	// round may already be running) through an atomic pointer so the
	// attachment needs no lock; nil means disabled and every hook is a
	// nil-receiver no-op.
	obsv atomic.Pointer[obs.Observer]
}

// SetObserver attaches the observability hub flush rounds record into.
// Safe to call while a round runs; a nil observer detaches.
func (l *Log) SetObserver(o *obs.Observer) { l.obsv.Store(o) }

// New builds a sink: a log with no backend, which stamps and counts each
// appended record and retains none (see the package comment).
func New() *Log {
	l, err := Open(Config{})
	if err != nil {
		panic(err) // unreachable: no backend, so nothing to replay
	}
	return l
}

// Durable reports whether the log has a backend. A log without one is a
// sink that retains no records, so nothing can be checkpointed from it or
// restarted from it.
func (l *Log) Durable() bool { return l.backend != nil }

// Open builds a log per cfg. If the backend implements Replayer (a
// re-opened segmented backend), its surviving records become the committed
// region first — LSN continuity and PrevLSN chains are verified in place —
// so new appends continue the durable log and restart can replay it. With
// no backend the log is a sink (see Config.Backend). Open starts no
// goroutine: every flush round runs on the goroutine of the barrier, reader
// or Close that leads it.
func Open(cfg Config) (*Log, error) {
	l := &Log{
		lastOf:  make(map[history.TxnID]LSN),
		backend: cfg.Backend,
		crash:   cfg.CrashPoint,
	}
	l.durableCond = sync.NewCond(&l.mu)
	if rp, ok := cfg.Backend.(Replayer); ok && rp != nil {
		recs, sizes := rp.Replay()
		if len(sizes) != len(recs) {
			return nil, fmt.Errorf("wal: replay: %d sizes for %d records", len(sizes), len(recs))
		}
		if len(recs) > 0 {
			// A previously truncated log starts past LSN 1: the first
			// surviving record fixes the base, and continuity is required
			// from there.
			if recs[0].LSN == 0 {
				return nil, fmt.Errorf("wal: replay: record with nil LSN")
			}
			l.base = recs[0].LSN - 1
		}
		for i := range recs {
			r := &recs[i]
			if want := l.base + LSN(i) + 1; r.LSN != want {
				return nil, fmt.Errorf("wal: replay: LSN %d out of sequence (want %d)", r.LSN, want)
			}
			if r.PrevLSN != l.lastOf[r.Txn] {
				// A transaction whose chain head was truncated away chains
				// into the dropped prefix; anything else is corruption.
				if !(l.lastOf[r.Txn] == 0 && r.PrevLSN != 0 && r.PrevLSN <= l.base) {
					return nil, fmt.Errorf("wal: replay: LSN %d of %s chains to %d, want %d",
						r.LSN, r.Txn, r.PrevLSN, l.lastOf[r.Txn])
				}
			}
			l.bytes += sizes[i]
			if r.Kind == DisciplineRec && l.discipline == "" {
				l.discipline = r.Op.Inv.Args
			}
			l.lastOf[r.Txn] = r.LSN
		}
		// The replayed slices become the committed region as they are: the
		// backend hands them over once and keeps no reference, so the
		// reopened log holds one copy of its records.
		l.records, l.sizes = recs, sizes
		// Replayed records came from the durable log; the watermark starts
		// past them.
		l.durableLSN = l.base + LSN(len(l.records))
		l.lsn0 = l.durableLSN
	}
	return l, nil
}

// Close sequences and syncs whatever is staged, waits for every round in
// flight, and closes the backend. It returns the first failed round's
// error, if any.
// Close is idempotent and safe to race with appenders and barriers: closing
// is published before the final drain, so a concurrent AppendAsync either
// lands in the final durable batch or returns ErrClosed, a concurrent Flush
// returns ErrClosed, and a WaitDurable barrier that can no longer be
// satisfied is woken with ErrClosed.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		l.closing.Store(true)
		// Drain everything staged, and let every round in flight complete,
		// before reading the error state.
		l.flushOnce()
		l.flushMu.Lock()
		l.mu.Lock()
		l.awaitIdle()
		l.backendGone = true
		l.closeErr = l.syncErr
		// Wake any durability barrier that is still waiting: the watermark
		// will never advance again.
		l.durableCond.Broadcast()
		l.mu.Unlock()
		l.flushMu.Unlock()
		if l.backend != nil {
			if err := l.backend.Close(); l.closeErr == nil {
				l.closeErr = err
			}
		}
	})
	return l.closeErr
}

// Err returns the first failed round's error, once that round has
// completed, if any. A non-nil result means the in-memory log is ahead of
// the durable log.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

// stage appends r to the staging queue and returns its ticket. The ticket
// is taken under stageMu with the append, so queue order is ticket order,
// and callers staging under an object latch get tickets in the object's
// execution order. The closing check happens under stageMu too: Close
// publishes the flag before its final drain takes the queue, so a record
// either joins the final batch or is rejected with ErrClosed — never
// staged and silently lost.
func (l *Log) stage(r Record) (Ticket, error) {
	l.stageMu.Lock()
	l.stageAcqs.Add(1)
	if l.closing.Load() {
		l.stageMu.Unlock()
		return 0, fmt.Errorf("wal: append %s for %s: %w", r.Kind, r.Txn, ErrClosed)
	}
	l.staged = append(l.staged, r)
	t := l.stampSeq.Add(1)
	l.stageMu.Unlock()
	return Ticket(t), nil
}

// AppendAsync stages a record without waiting for its LSN and returns the
// record's stage ticket. The record is sequenced by the next flush round
// (led by a committing transaction's group-commit barrier, any reader, or
// Close). This is the engine's hot path: no log-wide lock. On a closed log
// nothing is staged and the error wraps ErrClosed. A sink only stamps and
// counts the record.
func (l *Log) AppendAsync(r Record) (Ticket, error) {
	if l.backend == nil {
		if l.closing.Load() {
			return 0, fmt.Errorf("wal: append %s for %s: %w", r.Kind, r.Txn, ErrClosed)
		}
		l.sinkDiscipline(r)
		l.flushed.Add(1)
		return Ticket(l.stampSeq.Add(1)), nil
	}
	return l.stage(r)
}

// AppendBatchAsync stages a batch of records under a single staging-queue
// lock acquisition and returns the stage ticket of the LAST record staged.
// The records receive consecutive tickets, so the batch is contiguous in
// stage order and the returned ticket covers every record in it — a
// durability wait on the ticket waits for the whole batch — and a flush
// round, which drains the queue whole, sees all of it or none of it. The
// records may belong to different transactions; each is chained to its own
// transaction's previous record. An empty batch returns the zero ticket.
// On a closed log nothing is staged and the error wraps ErrClosed. A sink
// takes the batch's tickets and counts its records; the caller may reuse
// recs once the call returns, on any log.
func (l *Log) AppendBatchAsync(recs []Record) (Ticket, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	if l.backend == nil {
		if l.closing.Load() {
			return 0, fmt.Errorf("wal: append batch of %d for %s: %w", len(recs), recs[0].Txn, ErrClosed)
		}
		for _, r := range recs {
			l.sinkDiscipline(r)
		}
		l.flushed.Add(int64(len(recs)))
		return Ticket(l.stampSeq.Add(int64(len(recs)))), nil
	}
	l.stageMu.Lock()
	l.stageAcqs.Add(1)
	if l.closing.Load() {
		l.stageMu.Unlock()
		return 0, fmt.Errorf("wal: append batch of %d for %s: %w", len(recs), recs[0].Txn, ErrClosed)
	}
	l.staged = append(l.staged, recs...)
	t := l.stampSeq.Add(int64(len(recs)))
	l.stageMu.Unlock()
	return Ticket(t), nil
}

// sinkDiscipline records the discipline a marker appended to a sink
// declares — the one thing a sink remembers of its records.
func (l *Log) sinkDiscipline(r Record) {
	if r.Kind != DisciplineRec {
		return
	}
	l.mu.Lock()
	if l.discipline == "" {
		l.discipline = r.Op.Inv.Args
	}
	l.mu.Unlock()
}

// Append stages a record, flushes, and returns the assigned LSN — the
// synchronous path, equivalent to a group commit of whatever is staged.
// The LSN is the log's LSN at Open plus the record's ticket, whichever
// goroutine's round sequenced it. On a closed log nothing is staged and
// the nil LSN is returned; so it is on a sink, which assigns no LSNs.
func (l *Log) Append(r Record) LSN {
	if l.backend == nil {
		_, _ = l.AppendAsync(r) //lint:ignore walerr a sink assigns no LSN: Append returns 0 whether the record is counted or a closed log refuses it
		return 0
	}
	t, err := l.stage(r)
	if err != nil {
		return 0
	}
	l.sequenceStaged()
	return l.lsn0 + LSN(t)
}

// Flush guarantees that every record staged before the call has been
// sequenced, written and synced — or its round has failed — when it
// returns: it is a commit barrier for everything staged so far (see the
// package comment for when a barrier waits and when it leads a round). A
// failed backend round does not block the barrier (the in-memory log stays
// usable); it is recorded and exposed by Err, which
// durability-requiring callers must check, or they use WaitDurable, which
// reports it. Flush on a closed log returns an error wrapping ErrClosed;
// everything staged before Close was already drained by Close itself. On a
// sink there is nothing to sequence and Flush returns at once.
func (l *Log) Flush() error {
	if l.closing.Load() {
		return fmt.Errorf("wal: flush: %w", ErrClosed)
	}
	if l.backend == nil {
		return nil
	}
	t := l.stampSeq.Load()
	l.mu.Lock()
	for l.doneTicket < t {
		l.barrierStep(t)
	}
	l.mu.Unlock()
	return nil
}

// barrierStep moves a barrier for ticket t one step, with mu held (it is
// released while the step waits or leads): if t is already in a round in
// flight — or was never issued — wait for the next round to complete;
// otherwise sequence a round on the calling goroutine at once.
func (l *Log) barrierStep(t int64) {
	if l.seqTicket >= t || t > l.stampSeq.Load() {
		l.durableCond.Wait()
		return
	}
	l.mu.Unlock()
	l.flushOnce()
	l.mu.Lock()
}

// awaitIdle waits, with mu held, until no round is in flight. Callers hold
// flushMu too, so no new round can start: the watermark and the error
// state are then final for everything sequenced.
func (l *Log) awaitIdle() {
	for len(l.rounds) > 0 {
		l.durableCond.Wait()
	}
}

// sequenceStaged guarantees every record staged before the call has been
// sequenced when it returns, even on a closing log. It is what the read
// accessors (Records, Snapshot, SegmentBounds, ...) use in place of a bare
// Flush: Flush on a closing log returns ErrClosed WITHOUT sequencing, so a
// reader that discarded the error could serve a view missing records
// staged just before Close began. On that error the caller joins the
// sequencer directly — flushMu orders the call against Close's final
// drain. Append relies on it the same way.
func (l *Log) sequenceStaged() {
	if err := l.Flush(); err != nil {
		l.flushOnce()
	}
}

// round is one flush round between its sequencing and its completion,
// named by its ticket.
type round struct {
	ticket int64 // ticket of the batch's last record
	lsn    LSN   // the batch's last LSN
	done   bool
	err    error // the round's own failure: encode, write, sync, or closed backend
}

// flushOnce runs one flush round on the calling goroutine. Under flushMu
// it takes the whole staging queue (swapping in the reused batch buffer),
// assigns the batch one contiguous LSN range in queue order (chaining each
// record to its transaction's previous record), registers the round,
// encodes the batch once and writes the frame to the backend. Outside
// flushMu it syncs the backend, then completes the round (see
// completeRound) — which applies only once every earlier round has
// completed, so flushOnce may return before its round's effects are
// visible. An empty drain runs no round.
func (l *Log) flushOnce() {
	l.flushMu.Lock()
	// Take the queue whole: the batch is every record staged before the
	// drain, and every record staged after it carries a larger ticket. Each
	// durable batch is therefore a ticket prefix of the log — a boundary
	// between batches can never separate a record from a causally earlier
	// one, which is what makes the durable winner set of crash recovery
	// closed under read-from (a committed reader's TxnCommitRec can never be
	// durable without the commit it read from).
	l.stageMu.Lock()
	if len(l.staged) == 0 {
		l.stageMu.Unlock()
		l.flushMu.Unlock()
		return
	}
	batch := l.staged
	ticket := l.stampSeq.Load()
	l.staged, l.batchBuf = l.batchBuf, nil
	l.stageMu.Unlock()
	n := len(batch)
	// Only a log with a backend stages, so a batch always has one. The
	// batch is sequenced in place and is itself what the crash hook and the
	// backend see.
	l.mu.Lock()
	first := len(l.records)
	next := l.base + LSN(first)
	for i := range batch {
		r := &batch[i]
		r.LSN = next + LSN(i) + 1
		r.PrevLSN = l.lastOf[r.Txn]
		l.lastOf[r.Txn] = r.LSN
		l.sizes = append(l.sizes, 0) // counted once the batch is encoded
		if r.Kind == DisciplineRec && l.discipline == "" {
			l.discipline = r.Op.Inv.Args
		}
	}
	l.records = append(l.records, batch...)
	l.seqTicket = ticket
	l.rounds = append(l.rounds, round{ticket: ticket, lsn: batch[n-1].LSN})
	l.mu.Unlock()
	index := l.flushes.Add(1) - 1
	l.flushed.Add(int64(n))
	o := l.obsv.Load()
	o.RecordFlushBatch(int64(n))
	if !l.crashed && l.crash != nil && l.crash(int(index), batch) {
		l.crashed = true
	}
	// Encode the batch once, outside mu (only flushMu, which serializes
	// every backend write anyway): the frame is both what the backend
	// writes and what Bytes counts. An unencodable batch hands no byte to
	// the backend and counts none.
	encErr := l.encodeFrame(batch)
	if encErr == nil {
		l.mu.Lock()
		for i, size := range l.frameLens {
			l.sizes[first+i] = size
			l.bytes += size
		}
		l.mu.Unlock()
	}
	// Decide what reaches the backend. A simulated crash acknowledges
	// without writing — the contract of CrashPoint is that the dying
	// machine's acknowledgements continue. A dead log writes nothing: the
	// earlier round that failed completes first and fails this one.
	var err error
	var write0 time.Time
	var writeNS int64
	synced := false
	switch {
	case l.backendGone:
		err = fmt.Errorf("wal: %d records sequenced after close never reached the backend: %w", n, ErrClosed)
	case l.crashed, l.dead.Load():
	case encErr != nil:
		err = encErr
	default:
		if o != nil {
			write0 = time.Now()
		}
		err = l.backend.Write(batch, l.frame)
		if o != nil {
			writeNS = time.Since(write0).Nanoseconds()
		}
		synced = err == nil
	}
	if err != nil {
		// Before the next round may write: a batch after this one's hole
		// would make the file unreplayable.
		l.dead.Store(true)
	}
	// The batch becomes the next round's spare queue, holding no payload.
	clear(batch)
	l.batchBuf = batch[:0]
	if n > maxRetainedBatch {
		// An outsized batch (a Close drain after a stall) does not pin its
		// buffers for the log's lifetime.
		l.batchBuf, l.frame, l.frameLens = nil, nil, nil
	}
	l.flushMu.Unlock()
	if synced {
		var sync0 time.Time
		if o != nil {
			sync0 = time.Now()
		}
		err = l.backend.Sync()
		if o != nil {
			o.RecordFlushSync(writeNS + time.Since(sync0).Nanoseconds())
		}
	}
	l.completeRound(ticket, err)
}

// completeRound records the outcome of the round named by ticket, then
// applies every completed round at the head of the queue, strictly in
// round order: the first failure becomes the sticky error, a round moves
// the watermark only if no round up to and including it has failed, and
// barriers are woken.
func (l *Log) completeRound(ticket int64, err error) {
	if err != nil {
		l.dead.Store(true)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.rounds {
		if l.rounds[i].ticket == ticket {
			l.rounds[i].done, l.rounds[i].err = true, err
			break
		}
	}
	applied := 0
	for _, r := range l.rounds {
		if !r.done {
			break
		}
		if r.err != nil && l.syncErr == nil {
			l.syncErr = r.err
		}
		if l.syncErr == nil {
			l.durableTicket, l.durableLSN = r.ticket, r.lsn
		}
		l.doneTicket = r.ticket
		applied++
	}
	if applied > 0 {
		rest := copy(l.rounds, l.rounds[applied:])
		clear(l.rounds[rest:])
		l.rounds = l.rounds[:rest]
		l.durableCond.Broadcast()
	}
}

// maxRetainedBatch bounds the batch size whose flush buffers are kept for
// reuse.
const maxRetainedBatch = 4096

// encodeFrame encodes recs into the reused frame buffer, recording each
// record's encoded length. Caller holds flushMu.
func (l *Log) encodeFrame(recs []Record) error {
	l.frame, l.frameLens = l.frame[:0], l.frameLens[:0]
	for i := range recs {
		n := len(l.frame)
		var err error
		if l.frame, err = appendRecord(l.frame, recs[i]); err != nil {
			return err
		}
		l.frameLens = append(l.frameLens, int64(len(l.frame)-n))
	}
	return nil
}

// DurableLSN returns the durable watermark: every record at or below this
// LSN has been acknowledged by the backend (0 on a sink, which assigns no
// LSNs). The in-memory log may be ahead of it after a sync failure — see
// Err.
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

// IsDurable reports whether the record behind ticket t has reached the
// durability backend. The zero ticket is always durable, and so is every
// ticket of a sink: its records are as durable as they will ever be.
func (l *Log) IsDurable(t Ticket) bool {
	if t <= 0 || l.backend == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return Ticket(l.durableTicket) >= t
}

// WaitDurable blocks until the record behind ticket t is durable, a round
// up to and including t's has failed (returning the sticky error — the
// watermark will never cover t), or the log is closed without t durable
// (returning an ErrClosed-wrapped error). It is the commit barrier, and the
// dependency barrier of early lock release: a transaction
// that read from an early-released commit passes max(its own ticket, that
// commit's) here and is acknowledged only once its read-from set is
// durable. A durable ticket returns at once; otherwise the call follows
// the barrier rule of Flush — it waits for the round in flight that holds
// t, or leads a round that will. On a sink it returns at
// once: every ticket is durable there.
func (l *Log) WaitDurable(t Ticket) error {
	if t <= 0 || l.backend == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for Ticket(l.durableTicket) < t {
		switch {
		case l.syncErr != nil:
			return l.syncErr
		case Ticket(l.doneTicket) >= t, l.closing.Load() && int64(t) > l.stampSeq.Load():
			// t's round completed without the watermark covering it (it
			// was sequenced after Close released the backend), or t was
			// never issued and never will be.
			return fmt.Errorf("wal: wait durable: %w", ErrClosed)
		}
		l.barrierStep(int64(t))
	}
	return nil
}

// Discipline returns the logging discipline the log carries: DisciplineRedo
// when a DisciplineRec marker has been sequenced or replayed, "" when the
// log has no marker (implicitly undo logging — every pre-discipline log).
// Staged records are sequenced first so a just-staged marker is visible.
func (l *Log) Discipline() string {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.discipline
}

// FlushedRecords returns the total records sequenced by flush batches
// (over Stats().Flushes, the mean group-commit batch size) — on a sink,
// which sequences nothing, the total records appended.
func (l *Log) FlushedRecords() int64 { return l.flushed.Load() }

// Stats is a coherent snapshot of every accounting figure the log
// exposes. The individual accessors (Records, Base, DurableLSN, ...) each
// take their own lock, so a caller reading several of them can observe
// torn cross-field states — Records from before a truncation and Base
// from after it. Stats reads everything under one sequence point.
//
// Flushes counts the non-empty flush rounds sequenced, and
// StripeAcquisitions the staging-queue lock acquisitions by appenders (a
// round's drain excluded; AppendBatchAsync stages N records under one).
// Bytes is the exact encoded size of the retained records: the frame bytes
// each batch was handed to the backend as, or scanned back from it at
// Open, so it equals the segments' size on disk (a batch that failed to
// encode counts 0). Truncate accumulates the backend's truncation cost
// since Open. A sink retains and encodes nothing, so only its FlushedRecords
// (every appended record) and Discipline move; the rest stay 0, the
// watermark included — IsDurable holds for every ticket of a sink anyway.
type Stats struct {
	Flushes            int64         `json:"flushes"`
	FlushedRecords     int64         `json:"flushed_records"`
	StripeAcquisitions int64         `json:"stripe_acquisitions"`
	DurableTicket      Ticket        `json:"durable_ticket"`
	DurableLSN         LSN           `json:"durable_lsn"`
	Records            int           `json:"records"`
	Bytes              int64         `json:"bytes"`
	Base               LSN           `json:"base"`
	Discipline         string        `json:"discipline,omitempty"`
	Truncate           TruncateStats `json:"truncate"`
	Err                error         `json:"-"`
}

// Stats returns the log's accounting under a single sequence point:
// staged records are sequenced first, then every field is read while
// holding flushMu and mu (the flushOnce / TruncateBefore lock order) with
// no round in flight, so no flush, completion or truncation can
// interleave between fields. On a quiesced log each field equals its
// individual accessor.
func (l *Log) Stats() Stats {
	l.sequenceStaged()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitIdle()
	s := Stats{
		Flushes:            l.flushes.Load(),
		FlushedRecords:     l.flushed.Load(),
		StripeAcquisitions: l.stageAcqs.Load(),
		Truncate:           l.truncStats,
	}
	s.DurableTicket = Ticket(l.durableTicket)
	s.DurableLSN = l.durableLSN
	s.Records = len(l.records)
	s.Bytes = l.bytes
	s.Base = l.base
	s.Discipline = l.discipline
	s.Err = l.syncErr
	return s
}

// Records is the log-size accounting the checkpoint experiments report:
// the number of retained records (truncated records excluded), flushing
// staged records first.
func (l *Log) Records() int {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Base returns the truncation base: every record with LSN at or below it
// has been discarded by TruncateBefore (0 for an untruncated log). LSNs
// are never renumbered, so Base+1 is the first replayable LSN.
func (l *Log) Base() LSN {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// TxnChain returns txn's records newest-first, following PrevLSN — the
// traversal abort processing performs. Staged records are flushed first;
// a chain that crosses the truncation base stops at the oldest retained
// record.
func (l *Log) TxnChain(txn history.TxnID) []Record {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	lsn := l.lastOf[txn]
	for lsn > l.base {
		r := l.records[lsn-l.base-1]
		out = append(out, r)
		lsn = r.PrevLSN
	}
	return out
}

// Snapshot returns a copy of the retained records in LSN order
// (diagnostics, tests), flushing staged records first. Truncated records
// are gone; the first record's LSN is Base+1.
func (l *Log) Snapshot() []Record {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.records...)
}

// TruncateBefore discards every record with LSN strictly below lsn from
// the retained log and, when the backend supports it (see Truncator), from
// durable storage — the log-reclamation half of fuzzy checkpointing. The
// requested point is clamped to the durable watermark plus one: truncation
// never crosses the watermark, because records past it exist only in
// memory (a round in flight or failed) and dropping their durable prefix
// would leave the file unreplayable. It returns the number of records
// discarded. LSNs are not renumbered; Base advances instead.
//
// On a log whose backend has died, or under a simulated crash
// (CrashPoint), only the in-memory prefix is dropped, unaligned — a dead
// machine cannot unlink its segments, and the sticky-error/crash contracts
// already freeze or fake the watermark accordingly.
//
// Otherwise the requested point is aligned down to the Truncator's
// boundary (the segmented backend truncates at segment starts) before
// anything is dropped, so the retained in-memory log and the durable log
// stay byte-for-byte in agreement and a reopen replays exactly what the
// live log retained.
func (l *Log) TruncateBefore(lsn LSN) (int, error) {
	// flushMu orders the truncation against batch sequencing (no new LSNs
	// are assigned mid-truncate) and serializes the backend unlink against
	// Write, matching flushOnce's flushMu → mu order; waiting out the
	// rounds in flight fixes the watermark and the failure state.
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	l.awaitIdle()
	tr, _ := l.backend.(Truncator)
	if l.crashed || l.dead.Load() || l.backendGone {
		tr = nil
	}
	if maxPoint := l.durableLSN + 1; lsn > maxPoint {
		lsn = maxPoint
	}
	l.mu.Unlock()
	if tr != nil {
		lsn = tr.AlignTruncate(lsn)
	}
	l.mu.Lock()
	if lsn <= l.base+1 {
		l.mu.Unlock()
		return 0, nil
	}
	n := int(lsn - 1 - l.base)
	for _, size := range l.sizes[:n] {
		l.bytes -= size
	}
	// Copy the suffix so the truncated prefix's backing array is released.
	l.records = append([]Record(nil), l.records[n:]...)
	l.sizes = append([]int64(nil), l.sizes[n:]...)
	l.base = lsn - 1
	l.mu.Unlock()
	if tr != nil {
		stats, err := tr.TruncateBefore(lsn)
		l.truncStats.Add(stats)
		if err != nil {
			return n, fmt.Errorf("wal: truncate backend before %d: %w", lsn, err)
		}
	}
	return n, nil
}

// AlignTruncate returns the truncation point the backend would realize for
// a TruncateBefore(lsn): the durable-watermark clamp followed by the
// backend's boundary alignment (segment starts, for the segmented
// backend). Checkpointing records this value so the durable snapshot names
// the exact durable truncation point.
func (l *Log) AlignTruncate(lsn LSN) LSN {
	l.mu.Lock()
	if maxPoint := l.durableLSN + 1; lsn > maxPoint {
		lsn = maxPoint
	}
	l.mu.Unlock()
	if tr, ok := l.backend.(Truncator); ok {
		return tr.AlignTruncate(lsn)
	}
	return lsn
}

// SegmentBounds returns the first LSN of each durable segment in ascending
// order when the backend is segmented (see Segmenter), or nil for
// unsegmented backends. Parallel restart partitions its pass-1 winner scan
// on these boundaries. Staged records are flushed first so the bounds
// cover everything sequenced.
func (l *Log) SegmentBounds() []LSN {
	l.sequenceStaged()
	if sg, ok := l.backend.(Segmenter); ok {
		return sg.SegmentStarts()
	}
	return nil
}
