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
// The correspondence validated by tests and used by the engine:
// UndoLog realizes the UIP view function and requires an NRBC-containing
// conflict relation (Theorem 9); Intentions realizes DU and requires an
// NFC-containing relation (Theorem 10).
package recovery

import (
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
type Store interface {
	// Peek computes the response inv would receive for txn in the current
	// recovery state without applying it. It returns adt.ErrNotEnabled for
	// partial invocations with no legal response.
	Peek(txn history.TxnID, inv spec.Invocation) (spec.Response, error)
	// Apply executes inv for txn, recording whatever the recovery
	// discipline needs to commit or abort it later. The returned response
	// equals what Peek would have returned at the same instant.
	Apply(txn history.TxnID, inv spec.Invocation) (spec.Response, error)
	// Commit makes txn's effects permanent.
	Commit(txn history.TxnID) error
	// Abort erases txn's effects.
	Abort(txn history.TxnID) error
	// CommittedValue returns the state reflecting only committed
	// transactions. For an update-in-place store this requires no active
	// updaters to be meaningful; callers use it quiescently (tests, end of
	// run).
	CommittedValue() adt.Value
	// Kind names the recovery discipline ("undo-log" or "intentions").
	Kind() string
}

// BatchCommitter is implemented by stores whose per-object commit
// processing splits into a staging half and an infallible in-memory half,
// letting the engine's sharded commit pipeline stage many objects' commit
// records under one WAL stripe acquisition (wal.Log.AppendBatchAsync)
// before discharging any of them. The contract mirrors Commit's ordering
// discipline exactly: the caller stages every record CommitRecords
// returns, then — and only then — calls CommitStaged, so a staging
// failure leaves the store untouched and the transaction still cleanly
// abortable. A store that does not implement the interface (the
// deferred-update intentions store, whose commit applies the intent list
// and can fail) is committed through plain Commit instead.
type BatchCommitter interface {
	// CommitRecords returns the records Commit would stage for txn (nil
	// when the discipline stages nothing per object, as under REDO-only
	// logging). It must not read or write any state guarded by the object
	// latch — the pipeline calls it before latching.
	CommitRecords(txn history.TxnID) []wal.Record
	// CommitStaged makes txn's effects permanent, assuming the caller
	// already staged every record CommitRecords returned. It cannot fail.
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
//     losers are simply never redone (RestartRedoOnly), which is what
//     makes the discipline sound and what shrinks the log.
type UndoLog struct {
	obj      history.ObjectID
	machine  adt.Machine
	current  adt.Value
	log      *wal.Log
	redoOnly bool
	// chain holds, per active transaction, the undo records in apply order.
	chain map[history.TxnID][]undoRec
	stats Stats
}

type undoRec struct {
	op     spec.Operation
	before any
}

// NewUndoLog builds an update-in-place store over the machine, logging to
// log (which may be shared across objects).
func NewUndoLog(obj history.ObjectID, m adt.Machine, log *wal.Log) *UndoLog {
	return &UndoLog{
		obj:     obj,
		machine: m,
		current: m.Init(),
		log:     log,
		chain:   make(map[history.TxnID][]undoRec),
	}
}

// NewRedoOnlyLog builds an update-in-place store under the REDO-only
// logging discipline: updates stage logical wal.RedoRec records with no
// undo payload, and commit/abort stage no per-object records at all — the
// transaction-level TxnCommitRec (with its dependency set) is the only
// commit-path record. The log must be restarted with RestartRedoOnly.
func NewRedoOnlyLog(obj history.ObjectID, m adt.Machine, log *wal.Log) *UndoLog {
	u := NewUndoLog(obj, m, log)
	u.redoOnly = true
	return u
}

// RedoOnly reports whether the store logs under the REDO-only discipline.
func (u *UndoLog) RedoOnly() bool { return u.redoOnly }

// Kind implements Store.
func (u *UndoLog) Kind() string { return "undo-log" }

// Peek implements Store: the response is computed against the single
// current state (the UIP view).
func (u *UndoLog) Peek(txn history.TxnID, inv spec.Invocation) (spec.Response, error) {
	res, _, err := u.machine.Apply(u.current, inv)
	return res, err
}

// Apply implements Store: update in place and log the undo record. The
// in-memory chain keeps the raw before-image token (live abort needs no
// round trip); the staged WAL record carries the token in its durable
// EncodedUndo form when the machine provides a codec, so the same record
// stream works against in-memory and durable backends alike, and Restart
// decodes uniformly.
func (u *UndoLog) Apply(txn history.TxnID, inv spec.Invocation) (spec.Response, error) {
	var before any
	if bi, ok := u.machine.(adt.BeforeImageUndoer); ok {
		before = bi.CaptureBefore(u.current, inv)
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
					return "", fmt.Errorf("recovery: encoding undo token for %s: %w", inv, err)
				}
				logged = wal.EncodedUndo(s)
			}
		}
	}
	res, next, err := u.machine.Apply(u.current, inv)
	if err != nil {
		return "", err
	}
	op := spec.Op(inv, res)
	// Stage before mutating: a closed log (a commit racing Engine.Close)
	// must leave the state and the undo chain untouched, so the caller sees
	// a typed failure with nothing half-applied.
	if _, err := u.log.AppendAsync(wal.Record{Kind: kind, Txn: txn, Obj: u.obj, Op: op, Undo: logged}); err != nil {
		return "", fmt.Errorf("recovery: logging %s: %w", op, err)
	}
	u.current = next
	u.chain[txn] = append(u.chain[txn], undoRec{op: op, before: before})
	u.stats.Applies++
	return res, nil
}

// Commit implements Store: update-in-place commits are cheap — drop the
// undo chain and log the per-object commit record. That record is a redo
// hint for Restart, not the commit decision: the transaction durably
// commits only when the engine's transaction-level wal.TxnCommitRec
// reaches the backend (recovery is presumed-abort; see Restart).
func (u *UndoLog) Commit(txn history.TxnID) error {
	// REDO-only: no per-object record at all — the transaction-level
	// TxnCommitRec is the commit point and restart has no pending table to
	// discharge (winners replay in full, losers never replay).
	if u.redoOnly {
		delete(u.chain, txn)
		return nil
	}
	// Stage before dropping the chain: if the log is closed the commit
	// fails with the chain intact, so the engine can still abort the
	// transaction cleanly.
	if _, err := u.log.AppendAsync(wal.Record{Kind: wal.CommitRec, Txn: txn, Obj: u.obj}); err != nil {
		return fmt.Errorf("recovery: logging commit of %s: %w", txn, err)
	}
	delete(u.chain, txn)
	return nil
}

// CommitRecords implements BatchCommitter: the per-object commit record
// Commit would stage (nil under the REDO-only discipline, which stages no
// per-object commit record at all). It reads only immutable fields, so
// the engine's pipeline may call it without the object latch.
func (u *UndoLog) CommitRecords(txn history.TxnID) []wal.Record {
	if u.redoOnly {
		return nil
	}
	return []wal.Record{{Kind: wal.CommitRec, Txn: txn, Obj: u.obj}}
}

// CommitStaged implements BatchCommitter: the in-memory half of Commit —
// drop the undo chain — with the staging half already performed by the
// caller (see BatchCommitter for the ordering contract this relies on).
func (u *UndoLog) CommitStaged(txn history.TxnID) {
	delete(u.chain, txn)
}

// Abort implements Store: walk the undo chain backward applying logical
// inverses (writing compensation records), then log the abort. Each
// compensation record is staged before its undo is applied, so a closed
// log stops the walk with the remaining chain suffix intact. Under the
// REDO-only discipline the walk is purely in-memory — no compensation or
// abort record is staged, because the durable log recovers losers by never
// redoing them, not by undoing them.
func (u *UndoLog) Abort(txn history.TxnID) error {
	recs := u.chain[txn]
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		var next adt.Value
		var err error
		if bi, ok := u.machine.(adt.BeforeImageUndoer); ok && r.before != nil {
			next, err = bi.UndoWithBefore(u.current, r.op, r.before)
		} else {
			next, err = u.machine.Undo(u.current, r.op)
		}
		if err != nil {
			return fmt.Errorf("recovery: undo %s for %s: %w", r.op, txn, err)
		}
		if !u.redoOnly {
			if _, err := u.log.AppendAsync(wal.Record{Kind: wal.CompensationRec, Txn: txn, Obj: u.obj, Op: r.op}); err != nil {
				u.chain[txn] = recs[:i+1]
				return fmt.Errorf("recovery: logging undo of %s for %s: %w", r.op, txn, err)
			}
		}
		u.current = next
		u.chain[txn] = recs[:i]
		u.stats.Undos++
	}
	delete(u.chain, txn)
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
	stats   Stats
}

type intentList struct {
	ops []spec.Operation
	// cache of base+ops, valid while cacheVer == baseVer
	cache    adt.Value
	cacheVer uint64
	cacheLen int
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

// Kind implements Store.
func (n *Intentions) Kind() string { return "intentions" }

// workspace returns txn's private view: base plus its own intentions, using
// the cached value when the base has not advanced (the private-workspace
// maintenance cost the paper attributes to deferred update).
func (n *Intentions) workspace(txn history.TxnID) (adt.Value, error) {
	il := n.intents[txn]
	if il == nil {
		return n.base, nil
	}
	if il.cache != nil && il.cacheVer == n.baseVer && il.cacheLen == len(il.ops) {
		return il.cache, nil
	}
	v := n.base
	for _, op := range il.ops {
		res, next, err := n.machine.Apply(v, op.Inv)
		if err != nil {
			return nil, fmt.Errorf("recovery: replaying intent %s: %w", op, err)
		}
		if res != op.Res {
			return nil, fmt.Errorf("recovery: intent %s replayed with response %q against moved base", op, res)
		}
		v = next
		n.stats.Replays++
	}
	il.cache = v
	il.cacheVer = n.baseVer
	il.cacheLen = len(il.ops)
	return v, nil
}

// Peek implements Store: the response is computed against base plus the
// transaction's own intentions (the DU view).
func (n *Intentions) Peek(txn history.TxnID, inv spec.Invocation) (spec.Response, error) {
	w, err := n.workspace(txn)
	if err != nil {
		return "", err
	}
	res, _, err := n.machine.Apply(w, inv)
	return res, err
}

// Apply implements Store: append to the intentions list.
func (n *Intentions) Apply(txn history.TxnID, inv spec.Invocation) (spec.Response, error) {
	w, err := n.workspace(txn)
	if err != nil {
		return "", err
	}
	res, next, err := n.machine.Apply(w, inv)
	if err != nil {
		return "", err
	}
	il := n.intents[txn]
	if il == nil {
		il = &intentList{}
		n.intents[txn] = il
	}
	il.ops = append(il.ops, spec.Op(inv, res))
	il.cache = next
	il.cacheVer = n.baseVer
	il.cacheLen = len(il.ops)
	n.stats.Applies++
	return res, nil
}

// Commit implements Store: apply the intentions list to the base copy.
// Commit order is the order of Commit calls, which the engine serializes
// per object — exactly the DU view's Commit-order.
func (n *Intentions) Commit(txn history.TxnID) error {
	il := n.intents[txn]
	if il != nil {
		v := n.base
		for _, op := range il.ops {
			res, next, err := n.machine.Apply(v, op.Inv)
			if err != nil {
				return fmt.Errorf("recovery: committing intent %s for %s: %w", op, txn, err)
			}
			if res != op.Res {
				return fmt.Errorf("recovery: intent %s for %s committed with divergent response %q", op, txn, res)
			}
			v = next
			n.stats.CommitApplies++
		}
		n.base = v
		n.baseVer++
	}
	delete(n.intents, txn)
	return nil
}

// Abort implements Store: discard the intentions list — deferred-update
// aborts are free.
func (n *Intentions) Abort(txn history.TxnID) error {
	delete(n.intents, txn)
	return nil
}

// CommittedValue implements Store: the base copy, always meaningful.
func (n *Intentions) CommittedValue() adt.Value { return n.base.Clone() }

// Stats returns a copy of the work counters.
func (n *Intentions) Stats() Stats { return n.stats }
