// Package recovery implements the two executable recovery managers whose
// abstractions the paper studies (Section 5):
//
//   - UndoLog: update-in-place. A single current state is updated as
//     operations execute; each update stages an operation-level undo record
//     into the group-committed write-ahead log (sequenced at the engine's
//     commit-time flush), and abort walks the transaction's chain
//     backward applying logical inverses. Operation (logical) undo — not
//     before-image restoration of the whole object — is what lets
//     update-in-place coexist with concurrent updates, the very point the
//     paper makes about value logging à la Hadzilacos.
//
//   - Intentions: deferred update. The base state holds only committed
//     effects; each transaction accumulates an intentions list, responses
//     are computed against base-plus-own-intentions, commit applies the
//     list to the base in commit order, and abort simply discards it.
//
// Locking is result-dependent, so the engine must know an operation's
// response before it can check the lock. Each store therefore splits an
// operation into Peek, which asks the type's machine for the response in
// the transaction's view and changes nothing, and Apply, which performs
// the operation once the lock is granted. Every state a store holds — the
// UIP current state, the DU base and each private workspace — has exactly
// one owner and is changed in place by the machine.
//
// The correspondence validated by tests and used by the engine:
// UndoLog realizes the UIP view function and requires an NRBC-containing
// conflict relation (Theorem 9); Intentions realizes DU and requires an
// NFC-containing relation (Theorem 10).
package recovery

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/wal"
)

// Store is the per-object recovery interface the transaction engine drives.
// Stores are not synchronized; the engine serializes access per object.
//
// An operation is one machine Peek and one machine Apply. Peek computes
// the response against the recovery state txn sees and returns it as a
// Step; the engine checks the lock against Step.Res and, if it is
// granted, hands the same Step to Apply, which performs the operation in
// place. A Step is valid only under the object latch it was peeked under
// and only until the store next changes: the engine applies it before
// releasing the latch, and peeks again after every wait.
type Store interface {
	// Peek computes the step inv takes for txn in the current recovery
	// state without applying it. It returns adt.ErrNotEnabled for
	// partial invocations with no legal response.
	Peek(txn history.TxnID, inv spec.Invocation) (Step, error)
	// Apply performs step, which Peek returned for txn under the same
	// latch hold, recording whatever the recovery discipline needs to
	// commit or abort it later. On error the store is unchanged.
	Apply(txn history.TxnID, step Step) error
	// Commit makes txn's effects permanent.
	Commit(txn history.TxnID) error
	// Abort erases txn's effects.
	Abort(txn history.TxnID) error
	// CommittedValue returns the state reflecting only committed
	// transactions. For an update-in-place store this requires no active
	// updaters to be meaningful; callers use it quiescently (tests, end of
	// run).
	CommittedValue() adt.Value
}

// Step is one operation as Peek computed it: the response, and — for
// Apply alone — the invocation.
type Step struct {
	Res spec.Response
	inv spec.Invocation
}

// BatchCommitter is implemented by stores whose per-object commit
// processing splits into a staging half and an infallible in-memory half,
// letting the engine's commit stage all its objects' commit records
// under one WAL staging-queue acquisition (wal.Log.AppendBatchAsync)
// before discharging any of them. The contract mirrors Commit's ordering
// discipline exactly: the caller stages the record CommitRecord returns,
// then — and only then — calls CommitStaged, so a staging failure leaves
// the store untouched and the transaction still cleanly abortable. A store that does not implement the interface (the
// deferred-update intentions store, whose commit applies the intent list
// and can fail) is committed through plain Commit instead.
type BatchCommitter interface {
	// CommitRecord returns the per-object record Commit would stage for
	// txn, and false when the discipline stages none (REDO-only
	// logging). It returns the record by value, so the caller's batch
	// buffer can live on its stack. It must not read or write any state
	// guarded by the object latch — the pipeline calls it before
	// latching.
	CommitRecord(txn history.TxnID) (wal.Record, bool)
	// CommitStaged makes txn's effects permanent, assuming the caller
	// already staged the record CommitRecord returned. It cannot fail.
	CommitStaged(txn history.TxnID)
}

// Stats counts recovery work, for the cost-profile experiments.
type Stats struct {
	Applies       int64
	Undos         int64
	CommitApplies int64 // intentions applied to base at commit
	Replays       int64 // intentions replays for response computation
}

// UndoLog is the update-in-place store. It operates under one of two
// logging disciplines:
//
//   - undo logging (the default): every update stages a wal.Update record
//     carrying a durable before-image token, per-object commit/abort/
//     compensation records are staged, and restart redoes winners then
//     undoes losers from the logged tokens.
//
//   - REDO-only (redoOnly set; see NewRedoOnlyLog): every update stages a
//     wal.RedoRec carrying the logical operation only — no undo payload —
//     and commit and abort stage nothing per object. Live abort still
//     undoes in memory (the in-memory chain keeps raw before tokens), but
//     the durable log never learns how to undo anything: at restart,
//     losers are simply never redone (see redo_restart.go), which is what
//     makes the discipline sound and what shrinks the log.
type UndoLog struct {
	obj      history.ObjectID
	machine  adt.Machine
	current  adt.Value
	log      *wal.Log
	redoOnly bool
	// chain holds, per active transaction, the undo records in apply order.
	chain map[history.TxnID][]undoRec
	// spare is a discharged transaction's chain, cleared so no before
	// token stays reachable, which the next transaction to start a chain
	// takes over. Like chain, it is touched only under the object latch.
	spare []undoRec
	stats Stats
}

type undoRec struct {
	op     spec.Operation
	before any
}

// NewUndoLog builds an update-in-place store over the machine, logging to
// log (which may be shared across objects).
func NewUndoLog(obj history.ObjectID, m adt.Machine, log *wal.Log) *UndoLog {
	return newUndoLog(obj, m, m.Init(), log, false)
}

// newUndoLog builds an update-in-place store whose current state is
// state, which it takes ownership of.
func newUndoLog(obj history.ObjectID, m adt.Machine, state adt.Value, log *wal.Log, redoOnly bool) *UndoLog {
	return &UndoLog{
		obj:      obj,
		machine:  m,
		current:  state,
		log:      log,
		redoOnly: redoOnly,
		chain:    make(map[history.TxnID][]undoRec),
	}
}

// NewRedoOnlyLog builds an update-in-place store under the REDO-only
// logging discipline: updates stage logical wal.RedoRec records with no
// undo payload, and commit/abort stage no per-object records at all — the
// transaction-level TxnCommitRec (with its dependency set) is the only
// commit-path record. RestartAllWithConfig restarts such a log by its
// discipline marker, which the engine stages as the log's first record.
func NewRedoOnlyLog(obj history.ObjectID, m adt.Machine, log *wal.Log) *UndoLog {
	return newUndoLog(obj, m, m.Init(), log, true)
}

// Peek implements Store: the step is computed against the single current
// state (the UIP view).
func (u *UndoLog) Peek(txn history.TxnID, inv spec.Invocation) (Step, error) {
	res, err := u.machine.Peek(u.current, inv)
	if err != nil {
		return Step{}, err
	}
	return Step{Res: res, inv: inv}, nil
}

// Apply implements Store: log the undo record, then update in place. The
// in-memory chain keeps the raw before-image token (live abort needs no
// round trip); the staged WAL record carries the token in its durable
// EncodedUndo form when the machine provides a codec, so the same record
// stream works against in-memory and durable backends alike, and Restart
// decodes uniformly.
func (u *UndoLog) Apply(txn history.TxnID, step Step) error {
	var before any
	if bi, ok := u.machine.(adt.BeforeImageUndoer); ok {
		before = bi.CaptureBefore(u.current, step.inv)
	}
	// Encode before mutating anything: an encode failure must leave the
	// state, the undo chain, and the log untouched, or a later commit or
	// abort would persist a record stream missing this update and Restart
	// would diverge from the pre-crash state. Under the REDO-only
	// discipline nothing is encoded: the staged record is the logical
	// operation alone, and the raw before token lives only in the
	// in-memory chain (live abort still undoes in place).
	kind := wal.Update
	var logged any
	if u.redoOnly {
		kind = wal.RedoRec
	} else {
		logged = before
		if before != nil {
			if c, ok := u.machine.(adt.UndoTokenCodec); ok {
				s, err := c.EncodeUndoToken(before)
				if err != nil {
					return fmt.Errorf("recovery: encoding undo token for %s: %w", step.inv, err)
				}
				logged = wal.EncodedUndo(s)
			}
		}
	}
	op := spec.Op(step.inv, step.Res)
	// Stage before mutating: a closed log (a commit racing Engine.Close)
	// must leave the state and the undo chain untouched, so the caller sees
	// a typed failure with nothing half-applied. The in-place Apply cannot
	// fail once Peek accepted the operation against this same state.
	if _, err := u.log.AppendAsync(wal.Record{Kind: kind, Txn: txn, Obj: u.obj, Op: op, Undo: logged}); err != nil {
		return fmt.Errorf("recovery: logging %s: %w", op, err)
	}
	if err := u.machine.Apply(u.current, op); err != nil {
		return fmt.Errorf("recovery: applying %s: %w", op, err)
	}
	recs, ok := u.chain[txn]
	if !ok {
		recs, u.spare = u.spare, nil
	}
	u.chain[txn] = append(recs, undoRec{op: op, before: before})
	u.stats.Applies++
	return nil
}

// Commit implements Store: update-in-place commits are cheap — drop the
// undo chain and log the per-object commit record. That record is a redo
// hint for restart, not the commit decision: the transaction durably
// commits only when the engine's transaction-level wal.TxnCommitRec
// reaches the backend (recovery is presumed-abort; see
// RestartAllWithConfig).
func (u *UndoLog) Commit(txn history.TxnID) error {
	// REDO-only: no per-object record at all — the transaction-level
	// TxnCommitRec is the commit point and restart has no pending table to
	// discharge (winners replay in full, losers never replay).
	if u.redoOnly {
		u.discharge(txn, u.chain[txn])
		return nil
	}
	// Stage before dropping the chain: if the log is closed the commit
	// fails with the chain intact, so the engine can still abort the
	// transaction cleanly.
	if _, err := u.log.AppendAsync(wal.Record{Kind: wal.CommitRec, Txn: txn, Obj: u.obj}); err != nil {
		return fmt.Errorf("recovery: logging commit of %s: %w", txn, err)
	}
	u.discharge(txn, u.chain[txn])
	return nil
}

// CommitRecord implements BatchCommitter: it returns the per-object
// commit record Commit would stage (none under the REDO-only discipline,
// which stages no per-object commit record at all). It reads only
// immutable fields, so the engine's pipeline may call it without the
// object latch.
func (u *UndoLog) CommitRecord(txn history.TxnID) (wal.Record, bool) {
	if u.redoOnly {
		return wal.Record{}, false
	}
	return wal.Record{Kind: wal.CommitRec, Txn: txn, Obj: u.obj}, true
}

// CommitStaged implements BatchCommitter: the in-memory half of Commit —
// drop the undo chain — with the staging half already performed by the
// caller (see BatchCommitter for the ordering contract this relies on).
func (u *UndoLog) CommitStaged(txn history.TxnID) {
	u.discharge(txn, u.chain[txn])
}

// discharge drops txn's undo chain, whose records as applied are recs,
// and keeps the slice, cleared, as the spare the next chain reuses,
// unless the spare has more room.
func (u *UndoLog) discharge(txn history.TxnID, recs []undoRec) {
	delete(u.chain, txn)
	if cap(recs) > cap(u.spare) {
		clear(recs)
		u.spare = recs[:0]
	}
}

// Abort implements Store: walk the undo chain backward applying logical
// inverses in place (writing compensation records), then log the abort.
// Each compensation record is staged before its undo is applied, so a
// closed log stops the walk with the remaining chain suffix intact. Under
// the REDO-only discipline the walk is purely in-memory — no compensation or
// abort record is staged, because the durable log recovers losers by never
// redoing them, not by undoing them.
func (u *UndoLog) Abort(txn history.TxnID) error {
	recs := u.chain[txn]
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if !u.redoOnly {
			if _, err := u.log.AppendAsync(wal.Record{Kind: wal.CompensationRec, Txn: txn, Obj: u.obj, Op: r.op}); err != nil {
				u.chain[txn] = recs[:i+1]
				return fmt.Errorf("recovery: logging undo of %s for %s: %w", r.op, txn, err)
			}
		}
		// The machine is called here, not through undoRec.undo, so the
		// stagebeforemutate lint sees the in-place change it must order.
		var err error
		if bi, ok := u.machine.(adt.BeforeImageUndoer); ok && r.before != nil {
			err = bi.UndoWithBefore(u.current, r.op, r.before)
		} else {
			err = u.machine.Undo(u.current, r.op)
		}
		if err != nil {
			return fmt.Errorf("recovery: undo %s for %s: %w", r.op, txn, err)
		}
		u.chain[txn] = recs[:i]
		// Undone: cleared at once, so whatever path ends the walk, the
		// slice holds nothing past its length when it becomes the spare.
		recs[i] = undoRec{}
		u.stats.Undos++
	}
	u.discharge(txn, recs)
	if u.redoOnly {
		return nil
	}
	if _, err := u.log.AppendAsync(wal.Record{Kind: wal.AbortRec, Txn: txn, Obj: u.obj}); err != nil {
		return fmt.Errorf("recovery: logging abort of %s: %w", txn, err)
	}
	return nil
}

// CommittedValue implements Store. Meaningful when no transaction is
// active; with active updaters the current state includes their effects
// (that is what update-in-place means).
func (u *UndoLog) CommittedValue() adt.Value { return u.current.Clone() }

// Capture renders the store's fuzzy-checkpoint capture: the current
// update-in-place state (dirty — in-flight effects included, which is the
// state the log suffix will be response-checked against at restart) plus
// the in-flight transaction table, each active transaction's pending undo
// records in apply order with tokens in durable encoded form. The caller
// (the engine's checkpointer) holds the object latch, so the capture is a
// consistent instant of the object's execution. Capture fails if the
// machine cannot round-trip its state (no adt.ValueCodec) or an undo token
// has no codec — a checkpoint that cannot be restored must not be taken.
func (u *UndoLog) Capture() (string, []checkpoint.ActiveTxn, error) {
	if _, ok := u.machine.(adt.ValueCodec); !ok {
		return "", nil, fmt.Errorf("recovery: machine %s has no value codec; %s cannot be checkpointed",
			u.machine.Name(), u.obj)
	}
	state := u.current.Encode()
	ids := make([]history.TxnID, 0, len(u.chain))
	for t := range u.chain {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var active []checkpoint.ActiveTxn
	for _, t := range ids {
		recs := u.chain[t]
		ops := make([]checkpoint.PendingOp, len(recs))
		for i, r := range recs {
			ops[i] = checkpoint.PendingOp{Op: r.op}
			if r.before != nil {
				c, ok := u.machine.(adt.UndoTokenCodec)
				if !ok {
					return "", nil, fmt.Errorf("recovery: machine %s has no undo token codec; %s cannot be checkpointed",
						u.machine.Name(), u.obj)
				}
				s, err := c.EncodeUndoToken(r.before)
				if err != nil {
					return "", nil, fmt.Errorf("recovery: encoding undo token of %s for checkpoint: %w", r.op, err)
				}
				ops[i].Undo = s
				ops[i].HasUndo = true
			}
		}
		active = append(active, checkpoint.ActiveTxn{Txn: t, Ops: ops})
	}
	return state, active, nil
}

// Stats returns a copy of the work counters.
func (u *UndoLog) Stats() Stats { return u.stats }

// Intentions is the deferred-update store.
type Intentions struct {
	obj     history.ObjectID
	machine adt.Machine
	base    adt.Value
	baseVer uint64
	intents map[history.TxnID]*intentList
	// spare is a discharged transaction's intentions list, its ops
	// cleared and its workspace marked stale, which the next transaction
	// to start a list takes over, workspace storage included. Like
	// intents, it is touched only under the object latch.
	spare *intentList
	// befores is replay's buffer for the before tokens of the prefix it
	// applied, kept across commits.
	befores []any
	stats   Stats
}

type intentList struct {
	ops []spec.Operation
	// ver is the base version the ops were last checked against: Peek
	// computed them against that base, or a replay onto it gave each its
	// recorded response.
	ver uint64
	// ws is the private workspace, base plus ops, built on the list's
	// second operation (a first operation peeks against base itself). It
	// is current while wsLen == len(ops) > 0 and ver == baseVer.
	ws    adt.Value
	wsLen int
}

// NewIntentions builds a deferred-update store over the machine.
func NewIntentions(obj history.ObjectID, m adt.Machine) *Intentions {
	return &Intentions{
		obj:     obj,
		machine: m,
		base:    m.Init(),
		intents: make(map[history.TxnID]*intentList),
	}
}

// workspace returns txn's private view: base plus its own intentions. A
// transaction with no intentions sees base itself. Otherwise the list's
// workspace is rebuilt when it is stale — from a copy of base, replaying
// the ops (the private-workspace maintenance cost the paper attributes to
// deferred update). Ops checked against this very base are applied as
// recorded; after the base moved, each replay must give the op its
// recorded response.
func (n *Intentions) workspace(txn history.TxnID) (adt.Value, error) {
	il := n.intents[txn]
	if il == nil || len(il.ops) == 0 {
		return n.base, nil
	}
	if il.wsLen == len(il.ops) && il.ver == n.baseVer {
		return il.ws, nil
	}
	if il.ws == nil {
		il.ws = n.base.Clone()
	} else {
		il.ws.CopyFrom(n.base)
	}
	il.wsLen = 0
	checked := il.ver == n.baseVer
	for _, op := range il.ops {
		var err error
		if checked {
			err = n.machine.Apply(il.ws, op)
		} else {
			err = redo(n.machine, il.ws, op)
		}
		if err != nil {
			return nil, fmt.Errorf("recovery: replaying intent %s against base version %d: %w", op, n.baseVer, err)
		}
		n.stats.Replays++
	}
	il.ver = n.baseVer
	il.wsLen = len(il.ops)
	return il.ws, nil
}

// Peek implements Store: the step is computed against base plus the
// transaction's own intentions (the DU view).
func (n *Intentions) Peek(txn history.TxnID, inv spec.Invocation) (Step, error) {
	w, err := n.workspace(txn)
	if err != nil {
		return Step{}, err
	}
	res, err := n.machine.Peek(w, inv)
	if err != nil {
		return Step{}, err
	}
	return Step{Res: res, inv: inv}, nil
}

// Apply implements Store: append to the intentions list. When the list
// has a current workspace, the operation is applied to it in place; a
// list's first operation has none, and its workspace is built when its
// next operation peeks.
func (n *Intentions) Apply(txn history.TxnID, step Step) error {
	il := n.intents[txn]
	if il == nil {
		il, n.spare = n.spare, nil
		if il == nil {
			il = &intentList{}
		}
		n.intents[txn] = il
	}
	op := spec.Op(step.inv, step.Res)
	if len(il.ops) == 0 {
		il.ver = n.baseVer
	} else if il.wsLen == len(il.ops) && il.ver == n.baseVer {
		if err := n.machine.Apply(il.ws, op); err != nil {
			return fmt.Errorf("recovery: applying %s: %w", op, err)
		}
		il.wsLen++
	}
	il.ops = append(il.ops, op)
	n.stats.Applies++
	return nil
}

// Commit implements Store: apply the intentions list to the base in place.
// Commit order is the order of Commit calls, which the engine serializes
// per object — exactly the DU view's Commit-order. The list is replayed
// against the base, not taken from the workspace: applying intents at
// commit is the deferred-update cost the paper's model charges. Each
// replayed op must get its recorded response; if one does not, the
// prefix already applied is undone, so on error the base is unchanged.
func (n *Intentions) Commit(txn history.TxnID) error {
	il := n.intents[txn]
	if il != nil {
		if err := n.replay(il.ops); err != nil {
			return fmt.Errorf("recovery: committing %s: %w", txn, err)
		}
		n.baseVer++
	}
	n.discharge(txn, il)
	return nil
}

// replay applies ops to the base in place, each checked against its
// recorded response. If one fails, it undoes the prefix it applied,
// newest first, so the base is unchanged on error.
func (n *Intentions) replay(ops []spec.Operation) error {
	bi, hasBI := n.machine.(adt.BeforeImageUndoer)
	befores := n.befores[:0]
	defer func() {
		clear(befores)
		n.befores = befores[:0]
	}()
	for i, op := range ops {
		if hasBI {
			befores = append(befores, bi.CaptureBefore(n.base, op.Inv))
		}
		if err := redo(n.machine, n.base, op); err != nil {
			err = fmt.Errorf("intent %s: %w", op, err)
			for j := i - 1; j >= 0; j-- {
				r := undoRec{op: ops[j]}
				if hasBI {
					r.before = befores[j]
				}
				if uerr := r.undo(n.machine, n.base); uerr != nil {
					return errors.Join(err, fmt.Errorf("rolling back intent %s: %w", ops[j], uerr))
				}
			}
			return err
		}
		n.stats.CommitApplies++
	}
	return nil
}

// Abort implements Store: discard the intentions list — deferred-update
// aborts are free.
func (n *Intentions) Abort(txn history.TxnID) error {
	n.discharge(txn, n.intents[txn])
	return nil
}

// discharge drops txn's intentions list il (nil if it has none) and keeps
// it, its ops cleared and its workspace marked stale, as the spare the
// next list reuses, unless the spare has more room.
func (n *Intentions) discharge(txn history.TxnID, il *intentList) {
	delete(n.intents, txn)
	if il == nil || (n.spare != nil && cap(n.spare.ops) >= cap(il.ops)) {
		return
	}
	clear(il.ops)
	*il = intentList{ops: il.ops[:0], ws: il.ws}
	n.spare = il
}

// CommittedValue implements Store: a copy of the base, always meaningful.
func (n *Intentions) CommittedValue() adt.Value { return n.base.Clone() }

// Stats returns a copy of the work counters.
func (n *Intentions) Stats() Stats { return n.stats }

// redo applies op to v in place after checking that v gives op its
// recorded response: the replay of a logged or intended operation.
func redo(m adt.Machine, v adt.Value, op spec.Operation) error {
	res, err := m.Peek(v, op.Inv)
	if err != nil {
		return err
	}
	if res != op.Res {
		return fmt.Errorf("operation %s replayed with response %q", op, res)
	}
	return m.Apply(v, op)
}

// undo reverses r's operation on v in place, from its before token when
// it has one.
func (r undoRec) undo(m adt.Machine, v adt.Value) error {
	if bi, ok := m.(adt.BeforeImageUndoer); ok && r.before != nil {
		return bi.UndoWithBefore(v, r.op, r.before)
	}
	return m.Undo(v, r.op)
}
