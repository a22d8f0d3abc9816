// Package wal implements a group-committed write-ahead log used by the
// update-in-place recovery manager: an append-only sequence of typed
// records with monotonically increasing LSNs and per-transaction backward
// chains, supporting the abort-time backward walk that operation-logging
// recovery performs, and — through the Backend seam — durable storage that
// recovery.Restart can replay after a crash.
//
// Appends are staged: AppendAsync publishes a record to a per-stripe
// staging buffer (striped by transaction, so one transaction's records stay
// FIFO) without touching the committed region of the log. Every staged
// record is stamped from one atomic counter; since the recovery manager
// stages while holding the object latch, stamp order agrees with each
// object's true execution order. Sequencing — draining every stripe,
// sorting the batch by stamp, and assigning it one contiguous LSN range
// while fixing up each transaction's backward PrevLSN chain — happens in
// one of two modes:
//
//   - Synchronous (New, NewStriped, or Open with Async unset): Flush
//     sequences inline on the calling goroutine, exactly classic group
//     commit — while one committer holds the flush lock, other committers'
//     records pile into the staging buffers and are sequenced by the next
//     holder in one batch.
//
//   - Asynchronous (Open with Async set): a dedicated flusher goroutine
//     owns sequencing. Flush becomes a commit barrier: the caller registers
//     a waiter, wakes the flusher, and sleeps until the batch containing
//     everything staged before the call has been sequenced and handed to
//     the durability backend. The flusher dwells BatchInterval after
//     waking, so the batch-size-versus-commit-latency trade-off of group
//     commit becomes a measurable configuration rather than an accident of
//     scheduling.
//
// In both modes LSN order is consistent with per-object and per-transaction
// execution order even across transactions in one batch — the invariant the
// Restart redo pass replays by. Each batch is moreover a consistent cut of
// the staging buffers (the drain holds every stripe lock at once), so a
// batch boundary — the unit of crash loss — never separates a record from
// a causally earlier one. After sequencing, each batch is handed to the
// configured Backend (an in-memory no-op by default; see backend.go for the
// fsync-simulating backend and segment.go for the durable one); commit
// acknowledgement happens only after the backend's Sync returns, so an
// acked commit is durable to whatever degree the backend provides.
//
// The log also exposes its durability frontier: AppendAsync returns a
// stage Ticket, the durable watermark (DurableLSN, IsDurable) tracks the
// last backend-acknowledged batch, and WaitDurable blocks a caller until
// the watermark covers a ticket — the seam commit-LSN-ordered lock
// release is built on (a dependent transaction waits for the durability
// of the commits it read from, not just its own records). Close is
// idempotent and publishes a typed ErrClosed to appenders and barriers
// that lose the shutdown race.
//
// The paper deliberately abstracts recovery to the View function; this
// package is the executable substrate beneath the UIP abstraction — what
// System R-style recovery managers actually maintain. The log supports
// transaction abort and, via a durable backend plus recovery.Restart,
// crash restart (the engineering extension the paper's Section 1 leaves
// out of scope).
package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/spec"
	stripepkg "repro/internal/stripe"
)

// LSN is a log sequence number. LSNs start at 1; 0 is the nil LSN.
type LSN uint64

// ErrClosed is wrapped by AppendAsync, Flush, and WaitDurable when the log
// has been closed: the record was not staged (or the barrier cannot be
// satisfied) because Close already drained the final batch. A commit racing
// Engine.Close observes this typed error instead of an unspecified race
// outcome.
var ErrClosed = errors.New("wal: log closed")

// Ticket identifies a staged record's position in the global stage order
// (the stamp the sequencer sorts by). Tickets are totally ordered and
// consistent with LSN order: because every flush batch is a consistent cut
// of the staging buffers, the durable prefix of the log is exactly a ticket
// prefix. A ticket therefore names a durability point before the record's
// LSN exists — the handle early lock release needs to publish "the commit
// you just read from" to dependents (see DurableTicket and WaitDurable).
// The zero Ticket precedes every record and is always durable.
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
	// EncodedUndo form (see backend.go); recovery.Restart decodes them with
	// the machine's codec.
	Undo any
	// Deps is the transaction's commit-order dependency set, carried on
	// TxnCommitRec under the redo-only discipline: the committed writers
	// this transaction read from. Because flush batches are consistent
	// cuts, a durable TxnCommitRec's Deps are always durable winners too —
	// the property redo-only restart's winners-in-dependency-order replay
	// relies on. Nil under undo logging.
	Deps []history.TxnID
}

// stagedRec is a staged record awaiting LSN assignment. lsn is written by
// whichever goroutine sequences the batch and published to the appender by
// the flush acknowledgement: in synchronous mode the appender's own Flush
// acquires the flush lock the sequencer held while writing; in asynchronous
// mode the flusher closes the appender's barrier channel after writing.
// Either edge establishes the happens-before an appender needs to read lsn
// after Flush returns, even when a different goroutine sequenced the
// record. stamp is the stage-time sequence the sequencer sorts by.
type stagedRec struct {
	rec   Record
	stamp int64
	lsn   LSN
}

// stripe is one staging buffer. Records of a transaction always land in
// the same stripe (hash on TxnID), preserving their order.
type stripe struct {
	mu     sync.Mutex
	staged []*stagedRec
}

// CrashPoint is a test hook invoked after a batch is sequenced and before
// it is handed to the backend. batch is the zero-based index of non-empty
// batches since Open, and records is the sequenced batch. Returning true
// simulates a crash at this staged/flushed boundary: this batch and every
// later one silently never reach the backend, while in-memory sequencing
// and commit acknowledgements continue — modelling a machine that dies
// with the log tail still in volatile buffers, without hanging the live
// workload that is generating the log.
type CrashPoint func(batch int, records []Record) bool

// Config parameterizes Open.
type Config struct {
	// Stripes is the number of staging stripes (rounded up to a power of
	// two; 0 selects a default derived from GOMAXPROCS).
	Stripes int
	// Backend is the durability seam each sequenced batch is handed to.
	// Nil means in-memory only (equivalent to Discard).
	Backend Backend
	// Async runs a dedicated flusher goroutine that owns sequencing;
	// Flush becomes a commit barrier acknowledged after the backend sync.
	// The owner must Close the log to stop the flusher.
	Async bool
	// BatchInterval is how long the asynchronous flusher dwells after
	// waking before it sequences, letting concurrent committers' records
	// accumulate into one batch. Zero sequences immediately.
	BatchInterval time.Duration
	// CrashPoint, when non-nil, is the crash-injection hook (tests only).
	CrashPoint CrashPoint
}

// Log is an append-only log with group-committed LSN assignment and a
// pluggable durability backend. It is safe for concurrent use.
type Log struct {
	stripes []*stripe
	mask    uint32

	// stampSeq orders records by stage time across all stripes.
	stampSeq atomic.Int64

	// flushMu serializes batch sequencing; mu guards the committed region.
	flushMu sync.Mutex
	mu      sync.Mutex
	// records holds the retained suffix of the log: records[i] has LSN
	// base+i+1. base counts records truncated away by TruncateBefore (or
	// absent from a reopened, previously truncated file); LSNs are never
	// renumbered, so references recorded before a truncation (checkpoint
	// frontiers, PrevLSN chains) stay meaningful.
	records []Record
	base    LSN
	// bytes approximates the encoded size of the retained records (the
	// log-length accounting Stats reports); maintained by
	// flushOnce and TruncateBefore.
	bytes  int64
	lastOf map[history.TxnID]LSN
	// discipline is the logging discipline the log carries, set by the
	// first DisciplineRec sequenced or replayed ("" = no marker = implicit
	// undo logging). Under mu.
	discipline string
	syncErr    error // first backend failure, under mu
	// truncStats accumulates the backend truncation cost across the log's
	// lifetime (under flushMu, like the backend calls that produce it).
	truncStats TruncateStats

	// The durable watermark (under mu): the stage ticket and LSN of the
	// last record the backend acknowledged. Because batches are consistent
	// cuts sequenced in order, everything at or below the watermark is
	// durable. The watermark freezes when the backend dies or the log is
	// closed with records still staged; under a simulated crash it keeps
	// advancing (acknowledgements continue — the machine has not noticed it
	// is dead). durableCond is broadcast whenever the watermark or the
	// error state moves, waking WaitDurable barriers.
	durableTicket int64
	durableLSN    LSN
	durableCond   *sync.Cond

	backend Backend
	crash   CrashPoint
	crashed bool // under flushMu
	// dead stops handing batches to the backend after the first Sync
	// failure (under flushMu): appending later batches after a hole would
	// turn the cleanly-synced prefix into an unreplayable file, whereas
	// stopping leaves a durable prefix Restart can still recover. The
	// failure itself stays sticky in syncErr.
	dead bool
	// closing is set at the start of Close, before the final drain; stage
	// checks it under the stripe lock, so a record either lands in the
	// final batch or its AppendAsync reports ErrClosed — never a silent
	// drop. backendGone (under flushMu) marks the backend closed, so a
	// straggler flush sequences in memory without touching it.
	closing     atomic.Bool
	backendGone bool

	// Asynchronous-mode state. wake nudges the flusher; waiters are the
	// commit barriers acked after the next sequence+sync.
	async         bool
	batchInterval time.Duration
	wake          chan struct{}
	quit          chan struct{}
	flusherDone   chan struct{}
	waitMu        sync.Mutex
	waiters       []chan struct{}
	closeOnce     sync.Once
	closeErr      error

	// Batch diagnostics for the scaling benchmarks.
	flushes atomic.Int64
	flushed atomic.Int64
	// stripeAcqs counts staging-stripe lock acquisitions by appenders
	// (stage and AppendBatchAsync; the flusher's drain is excluded) — a
	// machine-independent synchronization cost.
	stripeAcqs atomic.Int64

	// obsv is the optional observability hub the flusher reports batch
	// sizes, dwell, and sync durations into. Attached after Open (the
	// flusher may already be running) through an atomic pointer so the
	// hand-off needs no lock; nil means disabled and every hook is a
	// nil-receiver no-op.
	obsv atomic.Pointer[obs.Observer]
}

// SetObserver attaches the observability hub the flusher records into.
// Safe to call while the flusher runs; a nil observer detaches.
func (l *Log) SetObserver(o *obs.Observer) { l.obsv.Store(o) }

// New builds an empty synchronous in-memory log with a stripe count derived
// from GOMAXPROCS.
func New() *Log {
	return NewStriped(runtime.GOMAXPROCS(0))
}

// NewStriped builds an empty synchronous in-memory log with n staging
// stripes (rounded up to a power of two, at least 1).
func NewStriped(n int) *Log {
	l, err := Open(Config{Stripes: n})
	if err != nil {
		panic(err) // unreachable: no backend, so nothing to replay
	}
	return l
}

// Open builds a log per cfg. If the backend implements Replayer (a
// re-opened segmented backend), its surviving records are loaded into the
// committed region first — LSN continuity and PrevLSN chains are verified —
// so new appends continue the durable log and recovery.Restart can replay
// it. In Async mode the caller owns the log and must Close it.
func Open(cfg Config) (*Log, error) {
	n := cfg.Stripes
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := stripepkg.RoundPow2(n, stripepkg.MaxStripes)
	l := &Log{
		stripes: make([]*stripe, p),
		mask:    uint32(p - 1),
		lastOf:  make(map[history.TxnID]LSN),
		backend: cfg.Backend,
		crash:   cfg.CrashPoint,
	}
	l.durableCond = sync.NewCond(&l.mu)
	for i := range l.stripes {
		l.stripes[i] = &stripe{}
	}
	if rp, ok := cfg.Backend.(Replayer); ok && rp != nil {
		for _, r := range rp.Replay() {
			// A previously truncated log starts past LSN 1: the first
			// surviving record fixes the base, and continuity is required
			// from there.
			if len(l.records) == 0 {
				if r.LSN == 0 {
					return nil, fmt.Errorf("wal: replay: record with nil LSN")
				}
				l.base = r.LSN - 1
			}
			if want := l.base + LSN(len(l.records)) + 1; r.LSN != want {
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
			l.records = append(l.records, r)
			l.bytes += recordSize(r)
			if r.Kind == DisciplineRec && l.discipline == "" {
				l.discipline = r.Op.Inv.Args
			}
			l.lastOf[r.Txn] = r.LSN
		}
		// Replayed records came from the durable log; the watermark starts
		// past them.
		l.durableLSN = l.base + LSN(len(l.records))
	}
	if cfg.Async {
		l.async = true
		l.batchInterval = cfg.BatchInterval
		l.wake = make(chan struct{}, 1)
		l.quit = make(chan struct{})
		l.flusherDone = make(chan struct{})
		go l.flusher()
	}
	return l, nil
}

// Close stops the flusher (sequencing and syncing whatever is staged) and
// closes the backend. It returns the first backend sync error, if any.
// Close is idempotent and safe to race with appenders and flushers: closing
// is published before the final drain, so a concurrent AppendAsync either
// lands in the final durable batch or returns ErrClosed, a concurrent Flush
// returns ErrClosed, and a WaitDurable barrier that can no longer be
// satisfied is woken with ErrClosed.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		l.closing.Store(true)
		if l.async {
			close(l.quit)
			<-l.flusherDone
		}
		// Drain anything staged after the flusher's final pass (or
		// everything, in synchronous mode) before reading the error state.
		l.flushOnce()
		l.flushMu.Lock()
		l.backendGone = true
		l.flushMu.Unlock()
		l.mu.Lock()
		l.closeErr = l.syncErr
		// Wake any durability barrier that is still waiting: the watermark
		// will never advance again.
		l.durableCond.Broadcast()
		l.mu.Unlock()
		if l.backend != nil {
			if err := l.backend.Close(); l.closeErr == nil {
				l.closeErr = err
			}
		}
	})
	return l.closeErr
}

// Err returns the first backend sync failure observed, if any. A non-nil
// result means the in-memory log is ahead of the durable log.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

func (l *Log) stripeOf(txn history.TxnID) *stripe {
	return l.stripes[stripepkg.FNV32a(string(txn))&l.mask]
}

// stage publishes r to its transaction's staging stripe. The stamp is
// taken under the stripe lock so that a transaction's records (always in
// one stripe) carry strictly increasing stamps, and callers staging under
// an object latch get stamps in the object's execution order. In
// asynchronous mode staging also nudges the flusher, so records are
// eventually sequenced and made durable even if no committer ever flushes.
// The closing check happens under the stripe lock too: Close's final drain
// holds every stripe lock after publishing the flag, so a record either
// joins the final batch or is rejected with ErrClosed — never staged and
// silently lost.
func (l *Log) stage(r Record) (*stagedRec, error) {
	s := &stagedRec{rec: r}
	st := l.stripeOf(r.Txn)
	st.mu.Lock()
	l.stripeAcqs.Add(1)
	if l.closing.Load() {
		st.mu.Unlock()
		return nil, fmt.Errorf("wal: append %s for %s: %w", r.Kind, r.Txn, ErrClosed)
	}
	s.stamp = l.stampSeq.Add(1)
	st.staged = append(st.staged, s)
	st.mu.Unlock()
	if l.async {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	return s, nil
}

// AppendAsync stages a record without waiting for its LSN and returns the
// record's stage ticket. The record is sequenced by the next flush (a
// committing transaction's group-commit barrier, any reader, or the
// background flusher). This is the engine's hot path: no log-wide lock.
// On a closed log nothing is staged and the error wraps ErrClosed.
func (l *Log) AppendAsync(r Record) (Ticket, error) {
	s, err := l.stage(r)
	if err != nil {
		return 0, err
	}
	return Ticket(s.stamp), nil
}

// AppendBatchAsync stages a batch of records of one transaction under a
// single stripe-lock acquisition and returns the stage ticket of the LAST
// record staged. The records receive consecutive stamps taken under the
// stripe lock, so the batch is contiguous in stage order and the returned
// ticket covers every record in it — a durability wait on the ticket waits
// for the whole batch. Consistent-cut semantics are preserved exactly: the
// batch lands in one stripe atomically, so a flush drain (which holds
// every stripe lock) either sees all of it or none of it. Records of
// different transactions may not be mixed (they could hash to different
// stripes, and their relative stamp order would then be an accident);
// such a call stages nothing and reports an error. An empty batch returns
// the zero ticket. On a closed log nothing is staged and the error wraps
// ErrClosed.
func (l *Log) AppendBatchAsync(recs []Record) (Ticket, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	st := l.stripeOf(recs[0].Txn)
	for _, r := range recs[1:] {
		if r.Txn != recs[0].Txn {
			return 0, fmt.Errorf("wal: append batch: mixed transactions (%s vs %s)", recs[0].Txn, r.Txn)
		}
	}
	staged := make([]*stagedRec, len(recs))
	st.mu.Lock()
	l.stripeAcqs.Add(1)
	if l.closing.Load() {
		st.mu.Unlock()
		return 0, fmt.Errorf("wal: append batch of %d for %s: %w", len(recs), recs[0].Txn, ErrClosed)
	}
	var last int64
	for i, r := range recs {
		s := &stagedRec{rec: r, stamp: l.stampSeq.Add(1)}
		staged[i] = s
		last = s.stamp
	}
	st.staged = append(st.staged, staged...)
	st.mu.Unlock()
	if l.async {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	return Ticket(last), nil
}

// StripeAcquisitions returns the number of staging-stripe lock
// acquisitions performed by appenders since Open (the flusher's drain is
// excluded). Batch staging exists to shrink this number: N records staged
// through AppendBatchAsync cost one acquisition where N AppendAsync calls
// cost N.
func (l *Log) StripeAcquisitions() int64 { return l.stripeAcqs.Load() }

// Append stages a record, flushes, and returns the assigned LSN — the
// synchronous path, equivalent to a group commit of whatever is staged.
// The LSN read is safe even when a different goroutine's flusher sequenced
// the record: Flush only returns after an acknowledgement that
// happens-after the assignment (see stagedRec). On a closed log nothing is
// staged and the nil LSN is returned.
func (l *Log) Append(r Record) LSN {
	s, err := l.stage(r)
	if err != nil {
		return 0
	}
	if err := l.Flush(); err != nil {
		// The log closed between stage and Flush. The record is (or will
		// be) sequenced by Close's drain; join the sequencer directly so
		// the read of s.lsn below is ordered after its assignment rather
		// than racing it.
		l.flushOnce()
	}
	return s.lsn
}

// Flush guarantees that every record staged before the call is sequenced
// and handed to the durability backend when it returns. In synchronous
// mode the caller sequences inline (group-committing whatever other
// committers have staged meanwhile). In asynchronous mode the caller
// registers a commit barrier and sleeps until the flusher's
// acknowledgement, which happens only after the backend sync — so a
// committed transaction is durable when Flush returns. A failed backend
// sync does not block the ack (the in-memory log stays usable); it is
// recorded and exposed by Err, which durability-requiring callers must
// check after Flush (txn.Commit does). Flush on a closed log returns an
// error wrapping ErrClosed; everything staged before Close was already
// drained by Close itself.
func (l *Log) Flush() error {
	if l.closing.Load() {
		return fmt.Errorf("wal: flush: %w", ErrClosed)
	}
	if !l.async {
		l.flushOnce()
		return nil
	}
	w := make(chan struct{})
	l.waitMu.Lock()
	l.waiters = append(l.waiters, w)
	l.waitMu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	select {
	case <-w:
	case <-l.flusherDone:
		// The flusher exited (Close raced with this barrier); sequence
		// directly. flushOnce acks every registered waiter exactly once,
		// and skips the backend if Close already released it (any records
		// sequenced that late surface as an ErrClosed-wrapped Err).
		l.flushOnce()
	}
	return nil
}

// sequenceStaged guarantees every record staged before the call has been
// sequenced when it returns, even on a closing log. It is what the read
// accessors (Get, Snapshot, SegmentBounds, ...) and sync-mode WaitDurable
// use in place of a bare Flush: Flush on a closing log returns ErrClosed
// WITHOUT sequencing, so a reader that discarded the error could serve a
// view missing records staged just before Close began. On that error the
// caller joins the sequencer directly — flushMu orders the call against
// Close's final drain — which is the same fallback Append uses.
func (l *Log) sequenceStaged() {
	if err := l.Flush(); err != nil {
		l.flushOnce()
	}
}

// flusher is the dedicated sequencing goroutine of an asynchronous log.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		select {
		case <-l.quit:
			l.flushOnce()
			return
		case <-l.wake:
		}
		if l.batchInterval > 0 {
			// The dwell — wake to sequencing — is a phase of every commit's
			// barrier latency; the observer's histogram makes the
			// dwell-vs-batch-size trade-off visible per flush.
			o := l.obsv.Load()
			var dwell0 time.Time
			if o != nil {
				dwell0 = time.Now()
			}
			t := time.NewTimer(l.batchInterval)
			quitting := false
			select {
			case <-t.C:
			case <-l.quit:
				t.Stop()
				quitting = true
			}
			if o != nil {
				o.RecordFlushDwell(time.Since(dwell0).Nanoseconds())
			}
			if quitting {
				l.flushOnce()
				return
			}
		}
		l.flushOnce()
	}
}

// flushOnce performs one sequencing round: snapshot the commit barriers,
// drain every staging stripe, sort the batch by stage stamp, assign it one
// contiguous LSN range (chaining each record to its transaction's previous
// record), hand the batch to the backend, and acknowledge the snapshotted
// barriers. Barriers registered after the snapshot have a wake pending and
// are acked by the next round.
func (l *Log) flushOnce() {
	l.flushMu.Lock()
	l.waitMu.Lock()
	ws := l.waiters
	l.waiters = nil
	l.waitMu.Unlock()
	// Drain every stripe while holding all stripe locks at once, so the
	// batch is a consistent cut of the staging buffers: every record staged
	// before the drain is in this batch, and every record staged after it
	// carries a larger stamp (stamps are taken under the stripe lock). Each
	// durable batch is therefore a stamp-prefix of the log — a boundary
	// between batches can never separate a record from a causally earlier
	// one in another stripe, which is what makes the durable winner set of
	// crash recovery closed under read-from (a committed reader's
	// TxnCommitRec can never be durable without the commit it read from).
	var batch []*stagedRec
	for _, st := range l.stripes {
		st.mu.Lock()
	}
	for _, st := range l.stripes {
		if len(st.staged) > 0 {
			batch = append(batch, st.staged...)
			st.staged = nil
		}
	}
	for _, st := range l.stripes {
		st.mu.Unlock()
	}
	if len(batch) > 0 {
		sort.Slice(batch, func(i, j int) bool { return batch[i].stamp < batch[j].stamp })
		// The flat batch copy feeds only the crash hook and the backend;
		// skip the allocation on the default in-memory configuration to
		// keep the commit flush path lean.
		var recs []Record
		if l.crash != nil || l.backend != nil {
			recs = make([]Record, len(batch))
		}
		l.mu.Lock()
		next := l.base + LSN(len(l.records))
		for i, s := range batch {
			s.rec.LSN = next + LSN(i) + 1
			s.rec.PrevLSN = l.lastOf[s.rec.Txn]
			l.lastOf[s.rec.Txn] = s.rec.LSN
			l.records = append(l.records, s.rec)
			l.bytes += recordSize(s.rec)
			if s.rec.Kind == DisciplineRec && l.discipline == "" {
				l.discipline = s.rec.Op.Inv.Args
			}
			s.lsn = s.rec.LSN
			if recs != nil {
				recs[i] = s.rec
			}
		}
		l.mu.Unlock()
		if !l.crashed && l.crash != nil && l.crash(int(l.flushes.Load()), recs) {
			l.crashed = true
		}
		// Decide the batch's durability outcome and move the watermark (or
		// the sticky error) under mu, then wake durability barriers. A
		// simulated crash keeps advancing the watermark — the contract of
		// CrashPoint is that the dying machine's acknowledgements continue.
		var syncFailed error
		lost := false
		switch {
		case l.backendGone:
			lost = true // sequenced after Close released the backend
		case l.crashed:
		case l.dead:
			lost = true // frozen since the first sync failure
		case l.backend != nil:
			o := l.obsv.Load()
			var sync0 time.Time
			if o != nil {
				sync0 = time.Now()
			}
			err := l.backend.Sync(recs)
			if o != nil {
				o.RecordFlushSync(time.Since(sync0).Nanoseconds())
			}
			if err != nil {
				l.dead = true
				syncFailed = err
			}
		}
		l.mu.Lock()
		if syncFailed != nil && l.syncErr == nil {
			l.syncErr = syncFailed
		}
		if l.backendGone && l.syncErr == nil {
			l.syncErr = fmt.Errorf("wal: %d records sequenced after close never reached the backend: %w",
				len(batch), ErrClosed)
		}
		if !lost && syncFailed == nil {
			l.durableTicket = batch[len(batch)-1].stamp
			l.durableLSN = batch[len(batch)-1].rec.LSN
		}
		l.durableCond.Broadcast()
		l.mu.Unlock()
		l.flushes.Add(1)
		l.flushed.Add(int64(len(batch)))
		l.obsv.Load().RecordFlushBatch(int64(len(batch)))
	}
	l.flushMu.Unlock()
	for _, w := range ws {
		close(w)
	}
}

// DurableLSN returns the durable watermark: every record at or below this
// LSN has been acknowledged by the backend (everything, for a log without
// one). The in-memory log may be ahead of it after a sync failure — see
// Err.
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

// IsDurable reports whether the record behind ticket t has reached the
// durability backend. The zero ticket is always durable.
func (l *Log) IsDurable(t Ticket) bool {
	if t <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return Ticket(l.durableTicket) >= t
}

// WaitDurable blocks until the record behind ticket t is durable, the
// backend has failed (returning the sticky sync error — the watermark will
// never cover t), or the log is closed (returning an ErrClosed-wrapped
// error). It is the dependency barrier of commit-LSN-ordered lock release:
// a transaction that read from an early-released commit passes that
// commit's ticket here and is acknowledged only once its read-from set is
// durable. The call self-sequences: in asynchronous mode the flusher is
// nudged, and in synchronous mode the caller sequences whatever is staged
// before waiting — nothing else would, so a caller that had not flushed
// first used to block forever on a watermark that could never advance.
func (l *Log) WaitDurable(t Ticket) error {
	if t <= 0 {
		return nil
	}
	if l.async {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	} else {
		l.sequenceStaged()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for Ticket(l.durableTicket) < t {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.closing.Load() {
			return fmt.Errorf("wal: wait durable: %w", ErrClosed)
		}
		l.durableCond.Wait()
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

// Flushes returns the number of non-empty flush batches sequenced so far.
func (l *Log) Flushes() int64 { return l.flushes.Load() }

// FlushedRecords returns the total records sequenced by flush batches
// (FlushedRecords/Flushes is the mean group-commit batch size).
func (l *Log) FlushedRecords() int64 { return l.flushed.Load() }

// Stats is a coherent snapshot of every accounting figure the log
// exposes. The individual accessors (Flushes, Records, Base, ...) each
// take their own lock, so a caller reading several of them can observe
// torn cross-field states — Records from before a truncation and Base
// from after it. Stats reads everything under one sequence point.
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
// holding flushMu and mu (the flushOnce / TruncateBefore lock order),
// so no flush or truncation can interleave between fields. On a
// quiesced log each field equals its individual accessor.
func (l *Log) Stats() Stats {
	l.sequenceStaged()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	s := Stats{
		Flushes:            l.flushes.Load(),
		FlushedRecords:     l.flushed.Load(),
		StripeAcquisitions: l.stripeAcqs.Load(),
		Truncate:           l.truncStats,
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.DurableTicket = Ticket(l.durableTicket)
	s.DurableLSN = l.durableLSN
	s.Records = len(l.records)
	s.Bytes = l.bytes
	s.Base = l.base
	s.Discipline = l.discipline
	s.Err = l.syncErr
	return s
}

// Get returns the record at the LSN, flushing staged records first. A
// truncated LSN (at or below Base) is absent.
func (l *Log) Get(lsn LSN) (Record, bool) {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.base || lsn > l.base+LSN(len(l.records)) {
		return Record{}, false
	}
	return l.records[lsn-l.base-1], true
}

// LastLSN returns the most recent LSN written for txn (0 if none),
// flushing staged records first.
func (l *Log) LastLSN(txn history.TxnID) LSN {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastOf[txn]
}

// Len returns the number of retained records (truncated records excluded),
// flushing staged records first.
func (l *Log) Len() int {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Records is the log-size accounting the checkpoint experiments report:
// the number of retained records, flushing staged records first. It equals
// Len; the pair Records/Bytes names the measurement intent.
func (l *Log) Records() int { return l.Len() }

// Bytes returns the approximate encoded size of the retained records —
// the log-length axis of the restart-cost experiment, maintained
// incrementally so truncation's effect is visible without re-encoding the
// log. Staged records are flushed first.
func (l *Log) Bytes() int64 {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
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

// SuffixLen returns the number of retained records with LSN strictly
// greater than lsn — the suffix a checkpoint-seeded restart replays when
// lsn is the checkpoint frontier. Staged records are flushed first.
func (l *Log) SuffixLen(lsn LSN) int {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	high := l.base + LSN(len(l.records))
	if lsn >= high {
		return 0
	}
	if lsn < l.base {
		lsn = l.base
	}
	return int(high - lsn)
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
// memory (a lagging or failed flusher) and dropping their durable prefix
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
	// Sync, matching flushOnce's flushMu → mu order.
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	tr, _ := l.backend.(Truncator)
	if l.crashed || l.dead || l.backendGone {
		tr = nil
	}
	l.mu.Lock()
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
	for _, r := range l.records[:n] {
		l.bytes -= recordSize(r)
	}
	// Copy the suffix so the truncated prefix's backing array is released.
	l.records = append([]Record(nil), l.records[n:]...)
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

// TruncateStats returns the accumulated backend truncation cost across
// every TruncateBefore since Open: segments unlinked and wall time.
func (l *Log) TruncateStats() TruncateStats {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.truncStats
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

// recordSize returns a record's exact durable encoding size — the bytes the
// segmented backend appends for it — so the Bytes accounting
// matches the on-disk log byte for byte. Records whose undo tokens exist
// only in memory (raw tokens never staged for a durable backend) cannot be
// encoded; those fall back to the estimate.
func recordSize(r Record) int64 {
	if line, err := encodeRecord(r); err == nil {
		return int64(len(line))
	}
	return approxRecordSize(r)
}

// approxRecordSize estimates a record's encoded size (fixed framing plus
// its string payloads) for records recordSize cannot encode exactly.
func approxRecordSize(r Record) int64 {
	n := 24 + len(r.Txn) + len(r.Obj) + len(r.Op.Inv.Name) + len(r.Op.Inv.Args) + len(r.Op.Res)
	if enc, ok := r.Undo.(EncodedUndo); ok {
		n += len(enc)
	}
	for _, d := range r.Deps {
		n += len(d) + 3
	}
	return int64(n)
}
