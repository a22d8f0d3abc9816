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
// The engine is sharded so that throughput scales with cores: the object
// registry is striped over a power-of-two array of shards, object lookup is
// a hash on the ObjectID with no engine-wide lock on the operation path,
// and each shard owns a history.Recorder that stamps events from one global
// atomic sequence. Engine.History() k-way merges the per-shard buffers back
// into the single totally ordered history the post-hoc checkers replay, so
// scaling the hot path costs the verification story nothing. The shared
// write-ahead log is group-committed: undo-log objects stage records
// lock-free of the log and Txn.Commit/Abort issue a flush barrier, which
// assigns the batch one contiguous LSN range. With an asynchronous log
// (Options.WAL built by wal.Open with Async set), sequencing and backend
// syncs run on a dedicated flusher goroutine and Commit merely waits for
// its acknowledgement — commits are durable to whatever degree the
// configured wal.Backend provides (see package wal).
//
// Lock release is ordered against durability by Options.ReleasePolicy:
// ReleaseAfterAck holds locks across the barrier, while the default
// ReleaseEarlyTracked releases early and tracks commit-ticket
// dependencies so that no transaction is ever cleanly acknowledged on
// top of state whose log never synced (see ReleasePolicy).
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
	"runtime"
	"sort"
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
	"repro/internal/spec"
	"repro/internal/stripe"
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

// ReleasePolicy selects the lock-release discipline of Txn.Commit relative
// to the durability barrier — the recovery-constrains-concurrency knob this
// repository exists to measure. Both shipped policies guarantee that no
// acknowledged commit ever reads from a commit whose log records failed to
// sync: either because the state was never visible before its ack
// (ReleaseAfterAck), or because the reader's own barrier is ordered after
// its read-from set's durability and a sticky backend failure terminates
// the reader through the abort path (ReleaseEarlyTracked).
type ReleasePolicy int

const (
	// ReleaseEarlyTracked (the default) releases locks as soon as the
	// transaction-level commit record is staged, before the durability
	// barrier — classic early lock release, preserving group-commit
	// concurrency. Each managed object remembers the stage ticket of its
	// last committed writer; a transaction accumulates the maximum ticket
	// over everything it touched and its own commit barrier additionally
	// waits until the WAL's durable watermark covers that dependency.
	// When the backend has failed, a dependent on an unsynced commit is
	// terminated through the abort path (its effects are undone and the
	// error wraps both ErrDurability and ErrAborted) instead of being
	// committed in memory on top of state the durable log will never
	// contain.
	ReleaseEarlyTracked ReleasePolicy = iota
	// ReleaseAfterAck holds every lock across the flush barrier and
	// releases only after the backend acknowledges the batch. Dependents
	// can never observe unsynced state, closing the durability hole
	// trivially — at the cost of lock hold times that include the flusher
	// dwell and the sync latency.
	ReleaseAfterAck
	// releaseEarlyUnsafe is the legacy discipline before dependency
	// tracking: release early, flush, and report a backend failure only
	// after the fact, leaving the dependent committed in memory on top of
	// an unsynced loser. It exists so the regression tests can demonstrate
	// the hole the exported policies close; it is not selectable by
	// clients.
	releaseEarlyUnsafe
)

// String implements fmt.Stringer.
func (p ReleasePolicy) String() string {
	switch p {
	case ReleaseEarlyTracked:
		return "release-early-tracked"
	case ReleaseAfterAck:
		return "release-after-ack"
	case releaseEarlyUnsafe:
		return "release-early-unsafe"
	}
	return fmt.Sprintf("ReleasePolicy(%d)", int(p))
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
	// persisted (the ErrDurability+ErrAborted cascade of
	// ReleaseEarlyTracked/ReleaseAfterAck). Not counted in Aborts.
	DurabilityAborts atomic.Int64
	// CommitHoldNS accumulates nanoseconds between Commit entry and lock
	// release — the lock hold time of the commit protocol itself. Under
	// ReleaseAfterAck it includes the durability barrier; the per-policy
	// difference is the measured concurrency cost of holding locks to the
	// ack.
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
	// RecordHistory enables the per-shard event recorders (required for
	// post-hoc verification; disable only in throughput benchmarks).
	RecordHistory bool
	// Shards is the number of registry shards; it is rounded up to a power
	// of two. Zero selects a default derived from GOMAXPROCS.
	Shards int
	// WAL, when non-nil, is the shared write-ahead log the engine's
	// undo-log objects stage into — typically a wal.Open'd log with an
	// asynchronous flusher and a durable backend. Nil selects a
	// synchronous in-memory log (wal.New). The engine takes ownership:
	// Engine.Close closes it.
	WAL *wal.Log
	// ReleasePolicy selects when Txn.Commit releases its locks relative to
	// the durability barrier. The zero value is ReleaseEarlyTracked.
	ReleasePolicy ReleasePolicy
	// LogDiscipline selects the logging discipline of the engine's undo-log
	// objects. The zero value (or wal.DisciplineUndo) is the default undo
	// logging: before-image/inverse records for every update, per-object
	// commit and compensation records, redo+undo restart.
	// wal.DisciplineRedo selects REDO-only dependency logging: updates
	// stage logical operation records with no undo payload, aborts undo
	// purely in memory and log nothing, and each transaction-level commit
	// record carries the set of committed writers the transaction read from
	// (see wal.Record.Deps) — restart replays only winners, in dependency
	// order, with no undo pass (recovery.RestartRedoOnly). The engine
	// stamps a discipline marker into a fresh log and Register rejects a
	// log whose marker contradicts this option, so artifacts written under
	// one discipline can never be silently recovered under the other.
	LogDiscipline string
	// Checkpoint, when non-nil, enables fuzzy checkpointing: manual
	// Engine.Checkpoint calls and, with Every set, a background
	// checkpointer goroutine the engine owns (stopped by Engine.Close).
	// See CheckpointOptions.
	Checkpoint *CheckpointOptions
	// Obs, when non-nil, attaches the observability hub: phase latency
	// histograms on every commit, sampled lifecycle tracing, and flusher
	// instrumentation on the engine's WAL. Nil (the default) leaves every
	// hook a nil-receiver no-op — the hot path pays no allocation and no
	// atomic for it (obs.TestNilObserverHooksAllocFree pins this).
	Obs *obs.Observer
}

// normalizeShards rounds n up to a power of two within
// [1, stripe.MaxStripes], defaulting to GOMAXPROCS when n is zero or
// negative.
func normalizeShards(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return stripe.RoundPow2(n, stripe.MaxStripes)
}

// Engine manages objects and transactions. The registry and the history
// recorder are striped across shards; see the package comment.
type Engine struct {
	opts     Options
	detector *locking.Detector
	log      *wal.Log

	shards []*engineShard
	mask   uint32
	txnSeq atomic.Int64
	evSeq  atomic.Int64

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
	// ckptMu serializes whole checkpoints; ckptSeq numbers them.
	ckptMu   sync.Mutex
	ckptSeq  atomic.Int64
	ckptQuit chan struct{}
	ckptDone chan struct{}

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

// engineShard owns one stripe of the object registry and the event buffer
// for the objects that hash into it.
type engineShard struct {
	// objects is the copy-on-write registry stripe: lookups load an
	// immutable snapshot through one atomic pointer — zero lock
	// acquisitions on the hit path — and Register publishes a copied
	// successor under the CowMap's internal writer mutex.
	objects  stripe.CowMap[history.ObjectID, *managedObject]
	recorder *history.Recorder

	// Commit-LSN-ordered release state. A committing transaction enrolls
	// in every shard it touched before staging its transaction-level
	// commit record, resolves the enrollment with the record's stage
	// ticket right after, and at release time waits until no other
	// committer in the shard is enrolled-unresolved or resolved with a
	// smaller ticket. Global stamp monotonicity makes the protocol
	// complete: any transaction whose commit LSN precedes this one's had
	// already enrolled here by the time this one's ticket existed (enroll
	// happens-before its own staging, which happens-before every larger
	// stamp), so waiting on the pending set alone observes every
	// predecessor. relMu guards pending; relCond is broadcast on every
	// resolve/withdraw/finish.
	relMu   sync.Mutex
	relCond *sync.Cond
	pending map[history.TxnID]wal.Ticket
}

// enrollRelease registers txn as a committer of this shard whose commit
// ticket is not yet known (it has not staged its transaction-level commit
// record). Unresolved enrollments block every ordered release in the
// shard: an unresolved committer's eventual ticket may be smaller than
// any resolved one's only if it enrolled before they staged — exactly the
// window this blocking covers.
func (sh *engineShard) enrollRelease(txn history.TxnID) {
	sh.relMu.Lock()
	if sh.pending == nil {
		sh.pending = make(map[history.TxnID]wal.Ticket)
	}
	sh.pending[txn] = 0
	sh.relMu.Unlock()
}

// resolveRelease publishes txn's commit ticket, unblocking waiters whose
// turn it establishes.
func (sh *engineShard) resolveRelease(txn history.TxnID, tk wal.Ticket) {
	sh.relMu.Lock()
	sh.pending[txn] = tk
	sh.relCond.Broadcast()
	sh.relMu.Unlock()
}

// withdrawRelease removes an enrollment whose commit failed before a
// ticket existed (the log closed under the TxnCommitRec staging); the
// transaction terminates through the unordered release path.
func (sh *engineShard) withdrawRelease(txn history.TxnID) {
	sh.relMu.Lock()
	delete(sh.pending, txn)
	sh.relCond.Broadcast()
	sh.relMu.Unlock()
}

// awaitReleaseTurn blocks until txn is the next committer allowed to
// release this shard's locks: no other enrollment is unresolved, and no
// resolved one carries a smaller ticket. Deadlock-free: a committer never
// waits between enroll and resolve (so unresolved entries always resolve
// or withdraw), and resolved waiters are totally ordered by ticket — the
// smallest never blocks.
func (sh *engineShard) awaitReleaseTurn(txn history.TxnID) {
	sh.relMu.Lock()
	for {
		my := sh.pending[txn]
		blocked := false
		for other, tk := range sh.pending {
			if other != txn && (tk == 0 || tk < my) {
				blocked = true
				break
			}
		}
		if !blocked {
			break
		}
		sh.relCond.Wait()
	}
	sh.relMu.Unlock()
}

// finishRelease removes txn's enrollment after its locks at this shard
// are released, passing the turn to the next committer in commit-LSN
// order.
func (sh *engineShard) finishRelease(txn history.TxnID) {
	sh.relMu.Lock()
	delete(sh.pending, txn)
	sh.relCond.Broadcast()
	sh.relMu.Unlock()
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
	rec   *history.Recorder
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
	n := normalizeShards(opts.Shards)
	log := opts.WAL
	if log == nil {
		log = wal.New()
	}
	e := &Engine{
		opts:     opts,
		detector: locking.NewDetector(),
		log:      log,
		shards:   make([]*engineShard, n),
		mask:     uint32(n - 1),
		obsv:     opts.Obs,
	}
	if opts.Obs != nil {
		log.SetObserver(opts.Obs)
	}
	for i := range e.shards {
		sh := &engineShard{recorder: history.NewRecorder(&e.evSeq)}
		sh.relCond = sync.NewCond(&sh.relMu)
		e.shards[i] = sh
	}
	if e.redoOnly() && log.Discipline() == "" && log.Len() == 0 && log.Base() == 0 {
		// Brand the fresh log with the discipline marker as its first record
		// so restart (and any later engine) detects the discipline from the
		// log alone. A non-empty unmarked log is NOT branded — it was
		// written by an undo-mode engine and Register rejects it.
		if _, err := log.AppendAsync(wal.DisciplineMarker(wal.DisciplineRedo)); err != nil {
			e.initErr = fmt.Errorf("txn: branding redo-only log: %w", err)
		}
	}
	if opts.Checkpoint != nil && opts.Checkpoint.Store != nil && opts.Checkpoint.Every > 0 {
		e.ckptQuit = make(chan struct{})
		e.ckptDone = make(chan struct{})
		go e.checkpointLoop(opts.Checkpoint.Every)
	}
	return e
}

// Shards returns the number of registry shards (a power of two).
func (e *Engine) Shards() int { return len(e.shards) }

// WAL returns the engine's shared write-ahead log (used by undo-log
// objects; inspectable in tests).
func (e *Engine) WAL() *wal.Log { return e.log }

// Close shuts down the engine: the background checkpointer (if any) is
// stopped first, then the write-ahead log — staged records are sequenced
// and synced, the flusher (if asynchronous) is stopped, and the durability
// backend is closed. It returns the first backend sync failure, if any.
// Close is idempotent (a second call returns the same result) and safe to
// race with in-flight Commit/Abort calls: a transaction that loses the
// race observes a typed failure wrapping wal.ErrClosed instead of an
// unspecified outcome, with its locks released.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		if e.ckptQuit != nil {
			close(e.ckptQuit)
			<-e.ckptDone
		}
		e.closeErr = e.log.Close()
	})
	return e.closeErr
}

// redoOnly reports whether the engine runs the redo-only discipline.
func (e *Engine) redoOnly() bool { return e.opts.LogDiscipline == wal.DisciplineRedo }

// shardOf returns the shard owning id.
func (e *Engine) shardOf(id history.ObjectID) *engineShard {
	return e.shards[stripe.FNV32a(string(id))&e.mask]
}

// lookup finds a registered object. The hit path performs zero lock
// acquisitions: one atomic pointer load into the shard's copy-on-write
// map, then a read of an immutable snapshot.
func (e *Engine) lookup(id history.ObjectID) (*managedObject, bool) {
	return e.shardOf(id).objects.Get(id)
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
	sh := e.shardOf(id)
	mo := &managedObject{
		id:    id,
		table: locking.NewTable(rel),
		store: store,
		rel:   rel,
		kind:  kind,
		rec:   sh.recorder,
	}
	mo.cond = sync.NewCond(&mo.mu)
	// Registration is the cold path: the CowMap serializes writers
	// internally and copies the whole stripe.
	if !sh.objects.Insert(id, mo) {
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

// History merges the per-shard event buffers into the totally ordered
// global history. Meaningful mid-run (each shard is snapshotted
// atomically), definitive once the engine is quiescent.
func (e *Engine) History() history.History {
	recs := make([]*history.Recorder, len(e.shards))
	for i, sh := range e.shards {
		recs[i] = sh.recorder
	}
	return history.Merge(recs...)
}

// record appends ev to the owning shard's buffer, stamped with the global
// sequence. Callers hold the object latch, so stamp order agrees with the
// object's execution order.
func (e *Engine) record(mo *managedObject, ev history.Event) {
	if !e.opts.RecordHistory {
		return
	}
	mo.rec.Record(ev)
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
	id      history.TxnID
	eng     *Engine
	state   atomic.Int32
	touched map[history.ObjectID]bool
	// order preserves first-touch order for deterministic commit sweeps.
	order []history.ObjectID
	// wroteWAL marks that some touched object stages records into the
	// shared log, so Commit/Abort must flush the group-commit batch.
	wroteWAL bool
	// dep is the maximum commit ticket over every object this transaction
	// touched: the durability point of its read-from set. The commit
	// barrier waits for the WAL's durable watermark to cover it (see
	// ReleaseEarlyTracked).
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
	id := history.TxnID(fmt.Sprintf("T%04d", seq))
	e.Metrics.Begins.Add(1)
	t := &Txn{id: id, eng: e, touched: make(map[history.ObjectID]bool)}
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

// ID returns the transaction identifier.
func (t *Txn) ID() history.TxnID { return t.id }

// Invoke executes one operation on an object, blocking while conflicting
// locks are held. On deadlock the transaction is chosen as victim, fully
// aborted, and an error wrapping both *locking.ErrDeadlock and ErrAborted
// is returned. On adt.ErrNotEnabled (partial invocation) the transaction
// stays active and the caller may retry, invoke something else, or abort.
func (t *Txn) Invoke(obj history.ObjectID, inv spec.Invocation) (spec.Response, error) {
	if txnState(t.state.Load()) != active {
		return "", fmt.Errorf("txn %s: invoke %s: %w", t.id, inv, ErrNotActive)
	}
	e := t.eng
	mo, ok := e.lookup(obj)
	if !ok {
		return "", fmt.Errorf("txn %s: unknown object %q", t.id, obj)
	}

	mo.mu.Lock()
	blocked := false
	// waitStart/waitHolder capture the first conflict of this invocation:
	// the lock-wait histogram records the full first-block-to-success
	// duration, and the trace labels the span with the first holder seen.
	var waitStart time.Time
	var waitHolder history.TxnID
	for {
		res, err := mo.store.Peek(t.id, inv)
		if err != nil {
			mo.mu.Unlock()
			if errors.Is(err, adt.ErrNotEnabled) {
				e.Metrics.NotEnabled.Add(1)
				// Nothing was recorded or locked; the transaction stays
				// active and the caller may retry, do something else, or
				// abort.
				return "", fmt.Errorf("txn %s: %s on %s: %w", t.id, inv, obj, err)
			}
			return "", fmt.Errorf("txn %s: peek %s on %s: %w", t.id, inv, obj, err)
		}
		op := spec.Op(inv, res)
		holders := mo.table.Conflicting(op, t.id)
		if len(holders) == 0 {
			applied, err := mo.store.Apply(t.id, inv)
			if err != nil {
				mo.mu.Unlock()
				return "", fmt.Errorf("txn %s: apply %s on %s: %w", t.id, inv, obj, err)
			}
			if applied != res {
				mo.mu.Unlock()
				return "", fmt.Errorf("txn %s: response changed under latch: %q vs %q", t.id, res, applied)
			}
			mo.table.Add(t.id, op)
			t.touch(mo)
			// Inherit the object's last committed writer as a durability
			// dependency (checked on every operation, not just first
			// touch: an unconflicting commit may advance the ticket
			// between two of this transaction's operations).
			if mo.commitTicket > t.dep {
				t.dep = mo.commitTicket
			}
			if e.redoOnly() && mo.commitWriter != "" && mo.commitWriter != t.id {
				if t.depTxns == nil {
					t.depTxns = make(map[history.TxnID]bool)
				}
				t.depTxns[mo.commitWriter] = true
			}
			// Record the completed operation under the latch so the global
			// history preserves the object's true execution order.
			// Invocations are recorded only when they complete, so failed
			// or retried invocations never leave a dangling pending
			// invocation in the history.
			e.record(mo, history.Event{Kind: history.Invoke, Obj: obj, Txn: t.id, Inv: inv})
			e.record(mo, history.Event{Kind: history.Respond, Obj: obj, Txn: t.id, Res: res})
			mo.mu.Unlock()
			e.Metrics.Operations.Add(1)
			if blocked {
				e.Metrics.Blocked.Add(1)
				if o := t.obs; o != nil {
					waitNS := time.Since(waitStart).Nanoseconds()
					o.RecordLockWait(waitNS)
					if t.trace != nil {
						end := time.Since(o.Epoch).Nanoseconds()
						t.trace.Span("block", end-waitNS, end, map[string]string{
							"obj": string(obj), "holder": string(waitHolder)})
					}
				}
			}
			return res, nil
		}
		// Conflict: declare the wait, check for deadlock, and sleep.
		if err := e.detector.AddWaits(t.id, holders); err != nil {
			mo.mu.Unlock()
			e.Metrics.Deadlocks.Add(1)
			if t.trace != nil {
				t.trace.Instant("deadlock", time.Since(t.obs.Epoch).Nanoseconds(),
					map[string]string{"obj": string(obj)})
			}
			abortErr := t.Abort()
			if abortErr != nil && !errors.Is(abortErr, ErrNotActive) {
				return "", fmt.Errorf("txn %s: deadlock victim abort failed: %w", t.id, abortErr)
			}
			return "", fmt.Errorf("txn %s: %w: %w", t.id, err, ErrAborted)
		}
		if t.obs != nil && !blocked {
			waitStart = time.Now()
			waitHolder = holders[0]
		}
		blocked = true
		e.Metrics.BlockEvents.Add(1)
		mo.cond.Wait()
		e.detector.ClearWaits(t.id)
	}
}

func (t *Txn) touch(mo *managedObject) {
	if !t.touched[mo.id] {
		t.touched[mo.id] = true
		t.order = append(t.order, mo.id)
	}
	if mo.kind == UndoLogRecovery {
		t.wroteWAL = true
	}
}

// releaseLocks releases every lock the transaction holds at every touched
// object (waking waiters) and clears its wait edges in the deadlock
// detector. It runs on every Commit/Abort exit path — success or error —
// so no path can leak locks or leave stale waits-for edges behind. A
// non-zero commit ticket is published to each object while its latch is
// held: a transaction that acquires the released locks afterwards reads
// the ticket on its next operation and inherits this commit as a
// durability dependency.
func (t *Txn) releaseLocks(commit wal.Ticket) {
	e := t.eng
	for _, obj := range t.order {
		mo, ok := e.lookup(obj)
		if !ok {
			continue // vanished object: nothing left to release there
		}
		mo.mu.Lock()
		if commit > mo.commitTicket {
			mo.commitTicket = commit
			mo.commitWriter = t.id
		}
		mo.table.Release(t.id)
		mo.cond.Broadcast()
		mo.mu.Unlock()
	}
	e.detector.ClearWaits(t.id)
}

// terminate abandons a commit that can no longer complete: every
// participant whose store has not already committed is aborted in memory
// (its effects undone per its recovery discipline, a terminal Abort event
// recorded), every lock is released, wait edges are cleared, and any
// staged compensation records are flushed. The phase-2a sweep commits
// participants in objs order, so the first `committed` entries are the
// ones whose store.Commit already ran — their effects are permanent and
// they keep their terminal Commit event — and a mid-sweep failure leaves
// every object with exactly one terminal history event instead of a
// transaction frozen half-committed with its effects visible and no
// terminal record. The transaction ends in the aborted state; cause is
// returned unchanged.
func (t *Txn) terminate(objs []history.ObjectID, committed int, cause error) error {
	e := t.eng
	t.state.Store(int32(aborted))
	for i, obj := range objs {
		mo, ok := e.lookup(obj)
		if !ok {
			continue // vanished object: nothing left to terminate there
		}
		mo.mu.Lock()
		if i >= committed {
			if err := mo.store.Abort(t.id); err == nil {
				e.record(mo, history.Event{Kind: history.Abort, Obj: obj, Txn: t.id})
			}
			// A failed undo (e.g. a log closed mid-shutdown) still
			// releases below; the cause already reports the failure.
		}
		mo.table.Release(t.id)
		mo.cond.Broadcast()
		mo.mu.Unlock()
	}
	e.detector.ClearWaits(t.id)
	if t.wroteWAL {
		// Push the staged compensation records. A flush failure here means
		// the terminated transaction's undo trail may not be durable; the
		// caller's cause stays primary, with the flush failure joined so
		// neither is silent.
		if ferr := e.log.Flush(); ferr != nil {
			cause = fmt.Errorf("%w (and flushing compensation records: %w)", cause, ferr)
		}
	}
	t.obsEnd("terminated")
	return cause
}

// Commit commits the transaction at every touched object using a two-phase
// sweep: prepare (validate) all objects, then commit at each while still
// holding its locks, stage the transaction-level commit record, and
// release locks per the engine's ReleasePolicy — either before the
// durability barrier with the commit ticket published to every touched
// object (ReleaseEarlyTracked), or only after the backend acknowledges the
// batch (ReleaseAfterAck). With the single-process engine the prepare
// phase cannot fail after successful operations, but the structure mirrors
// the atomic-commitment protocols the paper's model assumes.
//
// The wal.TxnCommitRec staged between the per-object sweep and the lock
// release is the transaction's single durable commit point: restart is
// presumed-abort, so the transaction survives a crash if and only if this
// record reached the backend (the per-object CommitRecs are redo hints
// only). Staging it before any lock is released means every transaction
// that observes this one's committed state stages its own records — and
// its own TxnCommitRec — strictly later, so a durable log prefix can never
// contain a dependent winner without its predecessor.
//
// Commit is the group-commit point: the flush barrier batches this
// transaction's staged records — and those of every concurrently
// committing transaction — into one contiguous LSN assignment, returning
// only after the batch reaches the log's durability backend; the barrier
// additionally waits until the durable watermark covers the transaction's
// dependency ticket (the commits it read from). A backend failure is
// reported as ErrDurability. If the failure precedes this transaction's
// in-memory commit point and its read-from set is unsynced, the
// transaction is terminated through the abort path (the error also wraps
// ErrAborted, counted in Metrics.DurabilityAborts); past that point it is
// committed in memory with the durable log behind (counted in
// Metrics.DurabilityFailures). Neither outcome is ever a clean
// acknowledgement on top of an unsynced loser.
func (t *Txn) Commit() error {
	if !t.state.CompareAndSwap(int32(active), int32(committed)) {
		return fmt.Errorf("txn %s: commit: %w", t.id, ErrNotActive)
	}
	e := t.eng
	pol := e.opts.ReleasePolicy
	o := t.obs
	start := time.Now()
	hold := func() {
		d := time.Since(start).Nanoseconds()
		e.Metrics.CommitHoldNS.Add(d)
		o.RecordCommitHold(d)
	}
	// The sweep (and terminate's already-committed bookkeeping) follows
	// shard-grouped order; objs is the flat sweep order.
	groups := t.shardGroups()
	var objs []history.ObjectID
	for _, g := range groups {
		objs = append(objs, g.objs...)
	}
	// Phase 1: prepare — verify every participant is still registered. A
	// failure here terminates cleanly: nothing has committed yet, so every
	// participant is aborted and the transaction leaves no effects behind.
	for _, obj := range objs {
		if _, ok := e.lookup(obj); !ok {
			hold()
			return t.terminate(objs, 0,
				fmt.Errorf("txn %s: prepare: object %q vanished", t.id, obj))
		}
	}
	// Durability gate: a transaction whose read-from set is not yet
	// durable is ordered behind it (DependencyStalls measures how often
	// early release actually ran ahead of the log). If the backend has
	// already failed, that dependency can never become durable —
	// terminate through the abort path instead of committing in memory on
	// top of an unsynced loser.
	if pol != releaseEarlyUnsafe && t.dep > 0 && !e.log.IsDurable(t.dep) {
		e.Metrics.DependencyStalls.Add(1)
		t.stalled = true
		if err := e.log.Err(); err != nil {
			e.Metrics.DurabilityAborts.Add(1)
			hold()
			return t.terminate(objs, 0,
				fmt.Errorf("txn %s: read from a commit the WAL backend never persisted: %w: %w: %w",
					t.id, ErrDurability, ErrAborted, err))
		}
	}
	// Staging phase: every shard's per-object commit records are staged
	// up front — one WAL stripe acquisition per shard through the batch
	// accessor — outside the checkpoint gate. Staging
	// discharges nothing: a fuzzy capture interleaving here still sees
	// every undo chain intact (the transaction is captured as in-flight),
	// and restart decides winners by the transaction-level record alone
	// (per-object CommitRecs are redo hints), so hoisting the staging out
	// narrows the gate hold to the discharge→decision window below. A
	// staging failure terminates with nothing committed: every chain is
	// intact for a clean abort.
	// stageNS accumulates the WAL staging cost of this commit (the batch
	// staging below plus the transaction-level record) for the WAL-stage
	// histogram.
	var stageNS int64
	if t.wroteWAL {
		var stage0 time.Time
		if o != nil {
			stage0 = time.Now()
		}
		for _, g := range groups {
			var recs []wal.Record
			for _, obj := range g.objs {
				mo, ok := e.lookup(obj)
				if !ok {
					hold()
					return t.terminate(objs, 0,
						fmt.Errorf("txn %s: commit: object %q vanished", t.id, obj))
				}
				if bc, ok := mo.store.(recovery.BatchCommitter); ok {
					recs = append(recs, bc.CommitRecords(t.id)...)
				}
			}
			if _, err := e.log.AppendBatchAsync(recs); err != nil {
				hold()
				return t.terminate(objs, 0,
					fmt.Errorf("txn %s: staging commit records: %w", t.id, err))
			}
		}
		if o != nil {
			stageNS += time.Since(stage0).Nanoseconds()
		}
	}
	// Phase 2a: commit at each object while holding its locks. The
	// per-object CommitRec staged by an undo-log store (batched above) is
	// a redo hint; the commit decision itself is the transaction-level
	// record below. A mid-sweep failure terminates:
	// already-committed participants keep their terminal Commit event, the
	// rest are aborted, and no transaction-level commit record is staged —
	// restart sees a loser.
	//
	// The checkpoint gate is held (shared) across the discharge sweep and
	// the staging of the transaction-level commit record: a fuzzy
	// checkpoint capture (which holds it exclusively) can therefore never
	// observe an object whose chain this transaction already discharged
	// while the commit decision is still unstaged — the window that would
	// let a snapshot bake in effects that a crash could make un-undoable.
	var gate0 time.Time
	if t.trace != nil {
		gate0 = time.Now()
	}
	e.ckptGate.RLock()
	gated := true
	ungate := func() {
		if gated {
			gated = false
			e.ckptGate.RUnlock()
			if t.trace != nil {
				t.trace.Span("ckpt-gate", gate0.Sub(o.Epoch).Nanoseconds(),
					time.Since(o.Epoch).Nanoseconds(), nil)
			}
		}
	}
	defer ungate()
	committed := 0
	for _, obj := range objs {
		mo, ok := e.lookup(obj)
		if !ok {
			ungate()
			hold()
			return t.terminate(objs, committed,
				fmt.Errorf("txn %s: commit: object %q vanished", t.id, obj))
		}
		mo.mu.Lock()
		if bc, isBatch := mo.store.(recovery.BatchCommitter); isBatch {
			// Records already staged above; the discharge cannot fail.
			bc.CommitStaged(t.id)
		} else if err := mo.store.Commit(t.id); err != nil {
			mo.mu.Unlock()
			ungate()
			hold()
			return t.terminate(objs, committed,
				fmt.Errorf("txn %s: commit at %s: %w", t.id, obj, err))
		}
		e.record(mo, history.Event{Kind: history.Commit, Obj: obj, Txn: t.id})
		mo.mu.Unlock()
		committed++
	}
	// Enroll in every touched shard's ordered-release protocol before the
	// commit ticket exists: a later committer whose release must wait on
	// this transaction is guaranteed to observe the enrollment, because
	// its own (larger) ticket cannot be assigned before this enrollment —
	// enroll happens-before our staging in the same total stamp order.
	enrolled := t.wroteWAL && pol != releaseEarlyUnsafe
	if enrolled {
		for _, g := range groups {
			g.sh.enrollRelease(t.id)
		}
	}
	// The durable commit point, staged exactly once, after every object's
	// commit processing and before any lock release.
	var ticket wal.Ticket
	if t.wroteWAL {
		rec := wal.Record{Kind: wal.TxnCommitRec, Txn: t.id}
		if e.redoOnly() && len(t.depTxns) > 0 {
			// The redo-only discipline reifies the read-from set durably:
			// restart audits every winner's Deps for closure under the
			// winner set (consistent-cut batching makes any violation a
			// torn log). Sorted, so the record is deterministic.
			deps := make([]history.TxnID, 0, len(t.depTxns))
			for d := range t.depTxns {
				deps = append(deps, d)
			}
			sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
			rec.Deps = deps
		}
		var stage0 time.Time
		if o != nil {
			stage0 = time.Now()
		}
		tk, err := e.log.AppendAsync(rec)
		if o != nil {
			stageNS += time.Since(stage0).Nanoseconds()
		}
		if err != nil {
			// The log closed under us (Commit racing Engine.Close): the
			// transaction is committed in memory but its commit decision
			// never reached the log. No ticket will ever exist, so the
			// enrollments are withdrawn and the locks released unordered.
			if enrolled {
				for _, g := range groups {
					g.sh.withdrawRelease(t.id)
				}
			}
			ungate()
			t.releaseLocks(0)
			hold()
			e.Metrics.DurabilityFailures.Add(1)
			t.obsEnd("durability-failure")
			return fmt.Errorf("txn %s: committed in memory but WAL closed: %w: %w",
				t.id, ErrDurability, err)
		}
		ticket = tk
		if o != nil {
			o.RecordWALStage(stageNS)
			if t.trace != nil {
				t.trace.Instant("stage", time.Since(o.Epoch).Nanoseconds(),
					map[string]string{"ticket": strconv.FormatInt(int64(ticket), 10)})
			}
		}
	}
	if enrolled {
		for _, g := range groups {
			g.sh.resolveRelease(t.id, ticket)
		}
	}
	ungate()
	// barrier makes the commit durable: flush the group-commit batch,
	// surface any sticky backend failure, and wait until the durable
	// watermark covers both this transaction's own commit record and its
	// dependency ticket. With consistent-cut batches the dependency is
	// sequenced no later than the transaction's own records, so the wait
	// degenerates to a check — unless the backend failed, in which case it
	// returns the sticky error instead of acknowledging.
	barrier := func() error {
		if !t.wroteWAL && t.dep == 0 {
			return nil
		}
		var b0 time.Time
		if o != nil {
			b0 = time.Now()
		}
		err := func() error {
			if err := e.log.Flush(); err != nil {
				return err
			}
			if err := e.log.Err(); err != nil {
				return err
			}
			dep := t.dep
			if ticket > dep {
				dep = ticket
			}
			return e.log.WaitDurable(dep)
		}()
		if o != nil {
			d := time.Since(b0).Nanoseconds()
			o.RecordBarrierWait(d, t.stalled)
			if t.trace != nil {
				end := time.Since(o.Epoch).Nanoseconds()
				t.trace.Span("barrier", end-d, end, nil)
			}
		}
		return err
	}
	if pol == ReleaseAfterAck {
		// Hold every lock across the barrier: no other transaction can
		// observe this commit's state before it is durable.
		err := barrier()
		if enrolled {
			t.releaseLocksOrdered(groups, ticket)
		} else {
			t.releaseLocks(ticket)
		}
		hold()
		if err != nil {
			e.Metrics.DurabilityFailures.Add(1)
			t.obsEnd("durability-failure")
			return fmt.Errorf("txn %s: committed in memory but WAL backend failed: %w: %w",
				t.id, ErrDurability, err)
		}
		e.Metrics.Commits.Add(1)
		t.obsEnd("commit")
		return nil
	}
	// Phase 2b: release locks and wake waiters before the barrier (early
	// release). The tracked policy publishes the commit ticket so
	// dependents inherit this commit's durability point; the legacy unsafe
	// policy publishes nothing — dependents commit blind.
	if pol == releaseEarlyUnsafe {
		t.releaseLocks(0)
	} else if enrolled {
		t.releaseLocksOrdered(groups, ticket)
	} else {
		t.releaseLocks(ticket)
	}
	hold()
	var err error
	if pol == releaseEarlyUnsafe {
		if t.wroteWAL {
			if err = e.log.Flush(); err == nil {
				err = e.log.Err()
			}
		}
	} else {
		err = barrier()
	}
	if err != nil {
		// The transaction is committed in memory (locks are released,
		// effects visible) but the durable log is behind: fail loudly
		// rather than ack a commit the backend never persisted.
		e.Metrics.DurabilityFailures.Add(1)
		t.obsEnd("durability-failure")
		return fmt.Errorf("txn %s: committed in memory but WAL backend failed: %w: %w",
			t.id, ErrDurability, err)
	}
	e.Metrics.Commits.Add(1)
	t.obsEnd("commit")
	return nil
}

// Abort aborts the transaction at every touched object, undoing its
// effects per each object's recovery discipline, releasing its locks on
// every exit path, then flushes the staged compensation records. The
// sweep is best-effort: a failure at one object (vanished, or an undo the
// store could not log — a log closed mid-shutdown) no longer abandons the
// rest, every other participant is still undone and released before the
// first error is returned. The failed participant itself keeps whatever
// effects its store could not undo (its locks are released regardless);
// the returned error reports it, and on the shutdown path the post-crash
// restart — not the dying process — is what terminates it. As with
// Commit, a WAL backend failure after a completed in-memory abort is
// reported as ErrDurability and counted in Metrics.DurabilityFailures.
func (t *Txn) Abort() error {
	if !t.state.CompareAndSwap(int32(active), int32(aborted)) {
		return fmt.Errorf("txn %s: abort: %w", t.id, ErrNotActive)
	}
	e := t.eng
	var firstErr error
	for _, obj := range t.sortedTouched() {
		mo, ok := e.lookup(obj)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("txn %s: abort: object %q vanished", t.id, obj)
			}
			continue
		}
		mo.mu.Lock()
		if err := mo.store.Abort(t.id); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("txn %s: abort at %s: %w", t.id, obj, err)
			}
		} else {
			e.record(mo, history.Event{Kind: history.Abort, Obj: obj, Txn: t.id})
		}
		mo.table.Release(t.id)
		mo.cond.Broadcast()
		mo.mu.Unlock()
	}
	e.detector.ClearWaits(t.id)
	if t.wroteWAL {
		ferr := e.log.Flush()
		if ferr == nil {
			ferr = e.log.Err()
		}
		if firstErr == nil && ferr != nil {
			e.Metrics.DurabilityFailures.Add(1)
			t.obsEnd("durability-failure")
			return fmt.Errorf("txn %s: aborted in memory but WAL backend failed: %w: %w",
				t.id, ErrDurability, ferr)
		}
	}
	t.obsEnd("abort")
	if firstErr != nil {
		return firstErr
	}
	e.Metrics.Aborts.Add(1)
	return nil
}

func (t *Txn) sortedTouched() []history.ObjectID {
	objs := append([]history.ObjectID(nil), t.order...)
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return objs
}

// commitGroup is one registry shard's slice of a transaction's touched
// objects, in ascending object-ID order. Group order is ascending shard
// index, so every committer walks shards the same way — the property
// that lets shard-by-shard release pipeline without circular waits.
type commitGroup struct {
	sh   *engineShard
	objs []history.ObjectID
}

// shardGroups partitions the touched set by registry shard, groups in
// ascending shard-index order and objects in ascending ID order within
// each group — the deterministic sweep order of the sharded commit
// pipeline.
func (t *Txn) shardGroups() []commitGroup {
	e := t.eng
	byShard := make(map[uint32][]history.ObjectID)
	for _, obj := range t.sortedTouched() {
		i := stripe.FNV32a(string(obj)) & e.mask
		byShard[i] = append(byShard[i], obj)
	}
	idxs := make([]uint32, 0, len(byShard))
	for i := range byShard {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	groups := make([]commitGroup, 0, len(idxs))
	for _, i := range idxs {
		groups = append(groups, commitGroup{sh: e.shards[i], objs: byShard[i]})
	}
	return groups
}

// releaseLocksOrdered releases the transaction's locks shard by shard in
// commit-LSN order: at each touched shard the committer waits until every
// shard committer with a smaller commit ticket (and every one whose
// ticket is still unresolved) has released there first, then releases its
// own locks and passes the turn. Commit tickets are stage stamps —
// totally ordered and consistent with LSN order — so within every shard,
// lock release order equals commit-LSN order, while different shards
// release in parallel (a committer done with shard i moves on while its
// successor releases i behind it). The commit ticket is published to each
// object under its latch exactly as releaseLocks does.
func (t *Txn) releaseLocksOrdered(groups []commitGroup, commit wal.Ticket) {
	e := t.eng
	for _, g := range groups {
		g.sh.awaitReleaseTurn(t.id)
		for _, obj := range g.objs {
			mo, ok := e.lookup(obj)
			if !ok {
				continue // vanished object: nothing left to release there
			}
			mo.mu.Lock()
			if commit > mo.commitTicket {
				mo.commitTicket = commit
				mo.commitWriter = t.id
			}
			mo.table.Release(t.id)
			mo.cond.Broadcast()
			mo.mu.Unlock()
		}
		g.sh.finishRelease(t.id)
	}
	e.detector.ClearWaits(t.id)
}
