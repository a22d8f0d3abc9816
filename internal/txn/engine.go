// Package txn implements the executable transaction engine: the practical
// counterpart of the paper's abstract object model. Transactions run as
// goroutines invoking operations on registered objects; each object couples
// a conflict-relation-driven lock table (strict operation-level two-phase
// locking) with a recovery store (update-in-place undo logging or
// deferred-update intentions lists); commits across objects use a
// two-phase protocol whose durable decision point is a single
// transaction-level commit record (wal.TxnCommitRec, staged before any
// lock is released — restart is presumed-abort); and every event is
// recorded in a global history that the atomicity checkers and the
// abstract model can audit after the fact.
//
// The engine keeps one of each shared structure. The object registry is
// a sync.Map, whose lookup takes no lock on the hit path. One
// history.Recorder is appended to under the object latch, so
// Engine.History() is the single totally ordered history the post-hoc
// checkers replay. One deadlock detector holds the waits-for graph under
// one lock, taken only by a transaction that waits. The shared
// write-ahead log is group-committed: undo-log objects stage records
// lock-free of the log and Txn.Commit/Abort issue a barrier, which waits
// for the flush round holding their records or starts one; a round assigns
// its batch one contiguous LSN range, and rounds overlap their backend
// syncs. No background goroutine starts rounds: barriers alone do, and
// commits are durable to whatever degree the configured wal.Backend
// provides (see package wal).
//
// Commit releases locks early — once the transaction-level commit record
// is staged, before the durability barrier — and tracks commit-ticket
// dependencies: every object remembers the ticket of its last committed
// writer, a transaction's barrier also waits for the durability of
// everything it read from, and a dead backend terminates the dependent
// through the abort path. So early release keeps group-commit
// concurrency, yet no transaction is ever cleanly acknowledged on top of
// state whose log never synced (see Txn.Commit).
//
// The engine realizes exactly the parameters of I(X, Spec, View, Conflict):
// pairing an UndoLog store with an NRBC-containing relation yields a
// correct UIP object (Theorem 9); pairing an Intentions store with an
// NFC-containing relation yields a correct DU object (Theorem 10).
// Integration tests validate both by replaying engine histories through the
// abstract automaton and the dynamic-atomicity checkers.
package txn

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/commute"
	"repro/internal/history"
	"repro/internal/locking"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// RecoveryKind selects the recovery manager for an object.
type RecoveryKind int

const (
	// UndoLogRecovery is update-in-place with operation-level undo (UIP).
	UndoLogRecovery RecoveryKind = iota
	// IntentionsRecovery is deferred update with intentions lists (DU).
	IntentionsRecovery
)

// String implements fmt.Stringer.
func (k RecoveryKind) String() string {
	if k == UndoLogRecovery {
		return "undo-log(UIP)"
	}
	return "intentions(DU)"
}

// ErrAborted is wrapped by operations on a transaction that has been
// aborted (by the user or as a deadlock victim).
var ErrAborted = errors.New("txn: transaction aborted")

// ErrNotActive is returned for operations on committed/finished
// transactions.
var ErrNotActive = errors.New("txn: transaction not active")

// ErrDurability is wrapped by Commit and Abort when the transaction has
// fully taken effect in memory (effects applied or undone, locks released)
// but the WAL backend failed to persist its records — the durable log is
// behind the in-memory state. Callers distinguish this "committed in
// memory, log behind" outcome from a failed commit with
// errors.Is(err, ErrDurability).
var ErrDurability = errors.New("txn: durable log behind in-memory state")

// Metrics counts engine-level events. All fields are updated atomically and
// may be read concurrently.
type Metrics struct {
	Begins     atomic.Int64
	Commits    atomic.Int64
	Aborts     atomic.Int64
	Deadlocks  atomic.Int64
	Operations atomic.Int64
	// Blocked counts operations that had to wait at least once for a
	// conflicting lock — the engine-level measure of lost concurrency.
	Blocked atomic.Int64
	// BlockEvents counts individual waits (an operation can wait several
	// times).
	BlockEvents atomic.Int64
	// NotEnabled counts partial invocations that found no legal response.
	NotEnabled atomic.Int64
	// DurabilityFailures counts transactions that completed in memory but
	// whose WAL backend sync failed (Commit/Abort returned ErrDurability).
	// Such transactions are counted here, not in Commits/Aborts, so the
	// success counters never double-book an errored call.
	DurabilityFailures atomic.Int64
	// DependencyStalls counts commits that arrived at their durability
	// barrier before the commit they read from was durable — the
	// transactions for which early lock release actually bought
	// concurrency (and which the dependency tracker therefore had to
	// order behind their read-from set).
	DependencyStalls atomic.Int64
	// DurabilityAborts counts transactions terminated through the abort
	// path because they depended on a commit the failed WAL backend never
	// persisted (the ErrDurability+ErrAborted cascade of dependency
	// tracking). Not counted in Aborts.
	DurabilityAborts atomic.Int64
	// CommitHoldNS accumulates nanoseconds between Commit entry and lock
	// release — the lock hold time of the commit protocol itself. Locks
	// are released before the durability barrier, so it excludes the
	// flush and sync wait.
	CommitHoldNS atomic.Int64
	// Checkpoints counts completed fuzzy checkpoints (snapshot durably
	// saved); failed or crash-aborted attempts are not counted.
	Checkpoints atomic.Int64
	// TruncatedRecords counts WAL records reclaimed by checkpoint-driven
	// log truncation — the log growth that restart no longer pays for.
	TruncatedRecords atomic.Int64
}

// Options configures an Engine.
type Options struct {
	// RecordHistory enables the engine's event recorder (required for
	// post-hoc verification; disable only in throughput benchmarks).
	RecordHistory bool
	// WAL, when non-nil, is the shared write-ahead log the engine's
	// undo-log objects stage into — typically a wal.Open'd log with a
	// durable backend. Nil selects wal.New(), a
	// sink that stamps and counts records but retains none: live abort
	// needs only the stores' own undo chains, and such an engine can be
	// neither checkpointed nor restarted. The engine takes ownership:
	// Engine.Close closes it.
	WAL *wal.Log
	// LogDiscipline selects the logging discipline of the engine's undo-log
	// objects. The zero value (or wal.DisciplineUndo) is the default undo
	// logging: before-image/inverse records for every update, per-object
	// commit and compensation records, redo+undo restart.
	// wal.DisciplineRedo selects REDO-only dependency logging: updates
	// stage logical operation records with no undo payload, aborts undo
	// purely in memory and log nothing, and each transaction-level commit
	// record carries the set of committed writers the transaction read from
	// (see wal.Record.Deps) — restart replays only winners, in dependency
	// order, with no undo pass. The engine stamps a discipline marker into
	// a fresh log, from which recovery.RestartAllWithConfig picks the
	// protocol, and Register rejects a log whose marker contradicts this
	// option, so artifacts written under one discipline can never be
	// silently recovered under the other.
	LogDiscipline string
	// Checkpoint, when non-nil, enables fuzzy checkpointing through
	// Engine.Checkpoint. See CheckpointOptions.
	Checkpoint *CheckpointOptions
	// Obs, when non-nil, attaches the observability hub: phase latency
	// histograms on every commit, sampled lifecycle tracing, and flush-round
	// instrumentation on the engine's WAL. Nil (the default) leaves every
	// hook a nil-receiver no-op — the hot path pays no allocation and no
	// atomic for it (obs.TestNilObserverHooksAllocFree pins this).
	Obs *obs.Observer
}

// Engine manages objects and transactions.
type Engine struct {
	opts     Options
	detector *locking.Detector
	log      *wal.Log

	// objects is the registry, history.ObjectID → *managedObject. Lookups
	// take no lock on the hit path; Register inserts with LoadOrStore, so
	// a duplicate ID is refused exactly once.
	objects  sync.Map
	recorder history.Recorder
	txnSeq   atomic.Int64

	// ckptGate orders fuzzy-checkpoint captures against the commit
	// protocol's decision window. Txn.Commit holds the read side from its
	// first per-object store.Commit until the transaction-level commit
	// record is staged; Engine.Checkpoint holds the write side around each
	// object capture. The exclusion guarantees that any transaction whose
	// effects a capture reflects without undo records (its per-object
	// commit discharged the chain before the capture) has already staged
	// its TxnCommitRec — with a stamp below the capture marker's — so the
	// checkpoint's durability wait covers the commit decision too, and no
	// snapshot can ever bake in an unsynced, undecided transaction.
	ckptGate sync.RWMutex
	// ckptMu serializes whole checkpoints; ckptSeq numbers them, and
	// ckptWalk is the registry walk's slice, reused checkpoint to
	// checkpoint under ckptMu.
	ckptMu   sync.Mutex
	ckptSeq  atomic.Int64
	ckptWalk []*managedObject

	closeOnce sync.Once
	closeErr  error

	// initErr records a construction-time failure (a closed log handed to
	// a redo-only NewEngine, so the discipline marker could not be
	// staged). Register surfaces it: an unbranded redo log must not
	// accept objects, and the honest error is the branding failure, not
	// the downstream discipline mismatch it would otherwise look like.
	initErr error

	// obsv is Options.Obs: nil when observability is disabled. Immutable
	// after NewEngine, so reads need no synchronization.
	obsv *obs.Observer

	// Metrics is exported for the experiment harness.
	Metrics Metrics
}

// managedObject couples the lock table, recovery store, and latch of one
// object.
type managedObject struct {
	id    history.ObjectID
	mu    sync.Mutex
	cond  *sync.Cond
	table *locking.Table
	store recovery.Store
	rel   commute.Relation
	kind  RecoveryKind
	// commitTicket (under mu) is the WAL stage ticket of the last
	// committed writer's transaction-level commit record — the durability
	// point an early-released commit publishes while releasing this
	// object's locks. A later transaction touching the object inherits it
	// as a dependency: its own barrier must not acknowledge before the
	// WAL's durable watermark covers this ticket.
	commitTicket wal.Ticket
	// commitWriter (under mu) is the transaction that published
	// commitTicket — the identity half of the same dependency. Under the
	// redo-only discipline a transaction touching the object inherits it
	// into its dependency set, which its transaction-level commit record
	// carries durably (wal.Record.Deps); restart audits that set for
	// closure under the winner set.
	commitWriter history.TxnID
}

// NewEngine builds an engine.
func NewEngine(opts Options) *Engine {
	log := opts.WAL
	if log == nil {
		log = wal.New()
	}
	e := &Engine{
		opts:     opts,
		detector: locking.NewDetector(),
		log:      log,
		obsv:     opts.Obs,
	}
	if opts.Obs != nil {
		log.SetObserver(opts.Obs)
	}
	if e.redoOnly() && log.Discipline() == "" && log.Records() == 0 && log.Base() == 0 {
		// Brand the fresh log with the discipline marker as its first record
		// so restart (and any later engine) detects the discipline from the
		// log alone. A non-empty unmarked log is NOT branded — it was
		// written by an undo-mode engine and Register rejects it.
		if _, err := log.AppendAsync(wal.DisciplineMarker(wal.DisciplineRedo)); err != nil {
			e.initErr = fmt.Errorf("txn: branding redo-only log: %w", err)
		}
	}
	return e
}

// WAL returns the engine's shared write-ahead log (used by undo-log
// objects; inspectable in tests).
func (e *Engine) WAL() *wal.Log { return e.log }

// Close shuts down the engine by closing its write-ahead log: staged
// records are sequenced and synced, every round in flight completes, and
// the durability backend is closed. It returns the first backend sync
// failure, if any.
// Close is idempotent (a second call returns the same result) and safe to
// race with in-flight Commit/Abort calls: a transaction that loses the
// race observes a typed failure wrapping wal.ErrClosed instead of an
// unspecified outcome, with its locks released.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closeErr = e.log.Close()
	})
	return e.closeErr
}

// redoOnly reports whether the engine runs the redo-only discipline.
func (e *Engine) redoOnly() bool { return e.opts.LogDiscipline == wal.DisciplineRedo }

// lookup finds a registered object. The hit path of sync.Map's Load
// takes no lock.
func (e *Engine) lookup(id history.ObjectID) (*managedObject, bool) {
	v, ok := e.objects.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*managedObject), true
}

// Register creates an object backed by the machine of ty, locked by rel,
// recovered per kind. Registering a duplicate ID is a programming error.
func (e *Engine) Register(id history.ObjectID, ty adt.Type, rel commute.Relation, kind RecoveryKind) error {
	if e.initErr != nil {
		return e.initErr
	}
	var store recovery.Store
	switch kind {
	case UndoLogRecovery:
		// Mixed-discipline handoffs must fail here, not mis-recover later:
		// the durable artifacts of one discipline are meaningless to the
		// other (a redo engine would replay into a log whose updates it
		// cannot interpret; an undo engine would stage undo records into a
		// winners-only log).
		if d := e.log.Discipline(); e.redoOnly() && d != wal.DisciplineRedo {
			return fmt.Errorf("txn: register %q: redo-only engine over a log with discipline %q (written by an undo-mode engine?)", id, d)
		} else if !e.redoOnly() && d == wal.DisciplineRedo {
			return fmt.Errorf("txn: register %q: undo-logging engine over a log carrying the redo-only discipline marker", id)
		}
		if e.redoOnly() {
			store = recovery.NewRedoOnlyLog(id, ty.Machine(), e.log)
		} else {
			store = recovery.NewUndoLog(id, ty.Machine(), e.log)
		}
	case IntentionsRecovery:
		store = recovery.NewIntentions(id, ty.Machine())
	default:
		return fmt.Errorf("txn: unknown recovery kind %d", int(kind))
	}
	mo := &managedObject{
		id:    id,
		table: locking.NewTable(rel),
		store: store,
		rel:   rel,
		kind:  kind,
	}
	mo.cond = sync.NewCond(&mo.mu)
	if _, dup := e.objects.LoadOrStore(id, mo); dup {
		return fmt.Errorf("txn: object %q already registered", id)
	}
	return nil
}

// MustRegister is Register for static configuration; it panics on error.
func (e *Engine) MustRegister(id history.ObjectID, ty adt.Type, rel commute.Relation, kind RecoveryKind) {
	if err := e.Register(id, ty, rel, kind); err != nil {
		panic(err)
	}
}

// Object returns the recovery store of a registered object (for
// inspection).
func (e *Engine) Object(id history.ObjectID) (recovery.Store, bool) {
	mo, ok := e.lookup(id)
	if !ok {
		return nil, false
	}
	return mo.store, true
}

// History returns a copy of the recorded history, in record order.
// Meaningful mid-run (the buffer is copied atomically), definitive once
// the engine is quiescent.
func (e *Engine) History() history.History {
	return e.recorder.History()
}

// record appends ev to the engine's recorder. Callers hold the object
// latch, so record order agrees with the object's execution order.
func (e *Engine) record(ev history.Event) {
	if !e.opts.RecordHistory {
		return
	}
	e.recorder.Record(ev)
}

// txnState is the lifecycle of a transaction handle.
type txnState int32

const (
	active txnState = iota
	committed
	aborted
)

// Txn is a transaction handle. A Txn is used by a single goroutine.
type Txn struct {
	id history.TxnID
	// seq is the Begin sequence the id is built from: the transaction's
	// age, by which a deadlock's youngest member is its victim.
	seq   int64
	eng   *Engine
	state atomic.Int32
	// order lists the touched objects in first-touch order, for
	// deterministic commit sweeps; orderBuf backs it for the two to four
	// objects a short transaction touches.
	order    []history.ObjectID
	orderBuf [4]history.ObjectID
	// sortBuf backs the object-ID sweep order (sortedTouched) that
	// Commit and Abort sort the touched set into; the two never both run.
	sortBuf [4]history.ObjectID
	// conflictBuf backs the conflict list of Invoke's lock requests. The
	// deadlock detector holds it as the transaction's edges while it
	// waits (see Invoke).
	conflictBuf [4]history.TxnID
	// wroteWAL marks that some touched object stages records into the
	// shared log, so Commit/Abort must flush the group-commit batch.
	wroteWAL bool
	// dep is the maximum commit ticket over every object this transaction
	// touched: the durability point of its read-from set. The commit
	// barrier waits for the WAL's durable watermark to cover it (see
	// Commit).
	dep wal.Ticket
	// depTxns (redo-only discipline) is the identity of the read-from set:
	// the last committed writer of every object this transaction touched.
	// Commit stages it, sorted, on the transaction-level commit record
	// (wal.Record.Deps) — the durable reification of the ticket-based
	// dependency above, which restart audits for closure under the winner
	// set. Nil under undo logging: the undo arm's records are unchanged.
	depTxns map[history.TxnID]bool
	// obs is the engine's observer at Begin (nil when disabled), cleared
	// by obsEnd so the end-to-end latency records exactly once however
	// the transaction terminates. begin is its start instant; trace is
	// non-nil only for sampled transactions; stalled marks a commit that
	// hit the dependency-stall gate (it labels the barrier-wait record).
	obs     *obs.Observer
	begin   time.Time
	trace   *obs.TxnTrace
	stalled bool
}

// Begin starts a transaction.
func (e *Engine) Begin() *Txn {
	seq := e.txnSeq.Add(1)
	id := seqID("T", seq)
	e.Metrics.Begins.Add(1)
	t := &Txn{id: id, seq: seq, eng: e}
	t.order = t.orderBuf[:0]
	if o := e.obsv; o != nil {
		t.obs = o
		t.begin = time.Now()
		if tt := o.SampleTxn(seq); tt != nil {
			t.trace = tt
			tt.Instant("begin", t.begin.Sub(o.Epoch).Nanoseconds(),
				map[string]string{"txn": string(id)})
		}
	}
	return t
}

// seqID names the n-th transaction or checkpoint: prefix followed by n
// (n >= 0) zero-padded to at least four digits — fmt's "%s%04d" — with
// one allocation, the string itself.
func seqID(prefix string, n int64) history.TxnID {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	for w := int64(1000); w > 1 && n < w; w /= 10 {
		b = append(b, '0')
	}
	return history.TxnID(strconv.AppendInt(b, n, 10))
}

// ID returns the transaction identifier.
func (t *Txn) ID() history.TxnID { return t.id }
