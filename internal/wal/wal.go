// Package wal implements a group-committed write-ahead log used by the
// update-in-place recovery manager: an append-only sequence of typed
// records with monotonically increasing LSNs, each chained by PrevLSN to
// its transaction's previous record, and — through the Backend seam —
// durable storage that recovery.RestartAllWithConfig can replay after a
// crash.
//
// A log opened with no Backend (New, or Open with Backend unset) is a
// sink: it stamps and counts every appended record and keeps none of them.
// An in-memory engine has no device to restart from, and live abort walks
// each store's own undo chain, so nothing would ever read those records
// back; Flush, IsDurable and WaitDurable return at once, TicketLSN names
// no LSN, and the accessors (Records, Stats, ...) count an empty log.
// Durable reports which kind a log is. Everything below describes a log
// with a backend.
//
// The backend is the one copy of the log. Once a flush round has handed a
// record to it, the log keeps nothing of the record but its transaction's
// chain head — and only while the transaction is open; Records, Base and
// Stats count records from LSNs. A log reopened over a backend that
// replays (Replayer) verifies the replayed records and keeps them only
// until crash restart takes them, once (TakeReplay).
//
// Appends are staged: AppendAsync and AppendBatchAsync append records to
// one staging queue without touching the sequenced log, and take each
// record's ticket under the queue's lock, so queue order is ticket order.
// Since the recovery manager stages while holding the object latch, ticket
// order agrees with each object's true execution order.
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
	// checkpoint's identifier; the checkpoint names each marker's LSN from
	// the ticket it was staged under (see Log.TicketLSN). The begin marker
	// (Obj empty) is staged before any object is captured and its LSN is
	// the checkpoint's frontier — the truncation point and the
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
	// guards the log's positions and the rounds in flight.
	flushMu sync.Mutex
	mu      sync.Mutex
	// The log keeps no record once sequenced: the backend holds them.
	// lastLSN is the LSN of the newest record sequenced (or replayed at
	// Open), and base counts the records truncated away by TruncateBefore
	// (or absent from a reopened, previously truncated file), so the log
	// spans LSNs base+1 through lastLSN. LSNs are never renumbered, so
	// references recorded before a truncation (checkpoint frontiers,
	// PrevLSN chains) stay meaningful.
	lastLSN LSN
	base    LSN
	// bytes is the backend's share of the log: the encoded bytes a replay
	// scanned at Open, plus each frame the backend accepted, minus the
	// bytes its truncations unlinked. Under flushMu, like the backend calls
	// that move it.
	bytes int64
	// replay holds the records Open replayed until restart takes them (see
	// TakeReplay); the first flush round drops them too, since a log that
	// has appended can no longer be restarted from them. replayTaken
	// refuses a second take. Under mu.
	replay      []Record
	replayTaken bool
	// lastOf maps each transaction to the LSN of its newest record, the
	// PrevLSN its next record chains to. A transaction's entry goes when
	// its TxnCommitRec is sequenced or replayed — nothing is staged for a
	// transaction after that record — and a head at or below the base goes
	// once the backend has truncated past it too (see TruncateBefore). The
	// map therefore holds the transactions still open, plus one entry per
	// undo-logged abort (its per-object AbortRecs end no chain the log can
	// see) and per checkpoint logged since the last truncation.
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
	// frame.
	batchBuf []Record
	frame    []byte

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
// re-opened segmented backend), its surviving records are verified first —
// LSN continuity and PrevLSN chains — and new appends continue the durable
// log after them; the log keeps the replay only until restart takes it
// (TakeReplay). With no backend the log is a sink (see Config.Backend).
// Open starts no goroutine: every flush round runs on the goroutine of the
// barrier, reader or Close that leads it.
func Open(cfg Config) (*Log, error) {
	l := &Log{
		lastOf:  make(map[history.TxnID]LSN),
		backend: cfg.Backend,
		crash:   cfg.CrashPoint,
	}
	l.durableCond = sync.NewCond(&l.mu)
	if rp, ok := cfg.Backend.(Replayer); ok && rp != nil {
		recs, bytes := rp.Replay()
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
			l.advance(r)
		}
		l.replay, l.bytes = recs, bytes
		// Replayed records came from the durable log; the watermark starts
		// past them.
		l.lastLSN = l.base + LSN(len(recs))
		l.durableLSN = l.lastLSN
		l.lsn0 = l.durableLSN
	}
	return l, nil
}

// advance makes r, just sequenced or replayed, its transaction's chain
// head and notes the discipline a marker declares. A TxnCommitRec ends its
// transaction's chain instead: nothing is staged for a transaction after
// its commit record. Caller holds mu (or owns the log, at Open).
func (l *Log) advance(r *Record) {
	if r.Kind == TxnCommitRec {
		delete(l.lastOf, r.Txn)
	} else {
		l.lastOf[r.Txn] = r.LSN
	}
	if r.Kind == DisciplineRec && l.discipline == "" {
		l.discipline = r.Op.Inv.Args
	}
}

// TakeReplay hands the records Open replayed from the backend, in LSN
// order, to their one reader — crash restart — and drops the log's
// reference: from then on the log holds no record. It fails on a log that
// has appended anything since Open (the replay would miss those records)
// and on a second call. A log whose backend replays nothing (no Replayer)
// hands over no record.
func (l *Log) TakeReplay() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.replayTaken {
		return nil, fmt.Errorf("wal: take replay: the replay was already taken")
	}
	if n := l.stampSeq.Load(); n > 0 {
		return nil, fmt.Errorf("wal: take replay: the log has appended %d records since Open; "+
			"only a just-reopened log can be replayed", n)
	}
	recs := l.replay
	l.replay, l.replayTaken = nil, true
	return recs, nil
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
