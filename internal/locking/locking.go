// Package locking implements conflict-based operation locking for the
// transaction engine: per-object lock tables driven by an arbitrary
// (possibly asymmetric) conflict relation on operations, plus a global
// waits-for deadlock detector.
//
// The paper's locking model (Section 4) is implicit: the locks held by a
// transaction are exactly the operations it has executed, and a new
// operation may execute only if it does not conflict with any operation
// held by another active transaction. Locks are released en masse at commit
// or abort — strict two-phase locking at operation granularity.
package locking

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/commute"
	"repro/internal/history"
	"repro/internal/spec"
)

// Table tracks the operation locks held at one object under a conflict
// relation. Table is not itself synchronized: the owning object serializes
// access (the engine holds the object latch around every call).
type Table struct {
	rel  commute.Relation
	held map[history.TxnID][]spec.Operation
	// spare is the op slice of a released holder, cleared, which the next
	// new holder takes over: a steady stream of transactions reuses one
	// slice instead of growing a fresh one each.
	spare []spec.Operation
}

// NewTable builds an empty lock table for the relation.
func NewTable(rel commute.Relation) *Table {
	return &Table{rel: rel, held: make(map[history.TxnID][]spec.Operation)}
}

// Conflicting appends to dst the transactions (other than self) holding
// an operation that the requested operation conflicts with, in sorted
// order, and returns the extended slice. The requested operation is the
// first argument of the relation, matching the precondition of Section 4:
// (requested, held) ∈ Conflict blocks. A caller that reuses one buffer
// for every request allocates nothing here.
func (t *Table) Conflicting(dst []history.TxnID, requested spec.Operation, self history.TxnID) []history.TxnID {
	n := len(dst)
	for txn, ops := range t.held {
		if txn == self {
			continue
		}
		for _, held := range ops {
			if t.rel.Conflicts(requested, held) {
				dst = append(dst, txn)
				break
			}
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// Add records that txn now holds op.
func (t *Table) Add(txn history.TxnID, op spec.Operation) {
	ops, ok := t.held[txn]
	if !ok {
		ops, t.spare = t.spare, nil
	}
	t.held[txn] = append(ops, op)
}

// Release drops every lock held by txn. Its op slice, cleared, becomes
// the table's spare unless the spare has more room.
func (t *Table) Release(txn history.TxnID) {
	ops := t.held[txn]
	delete(t.held, txn)
	if cap(ops) > cap(t.spare) {
		clear(ops)
		t.spare = ops[:0]
	}
}

// ErrDeadlock is returned (wrapped) to the victim of a waits-for cycle:
// the cycle's youngest member — the one with the greatest Waiter.Prio —
// so the oldest transaction in a deadlock always survives.
type ErrDeadlock struct {
	Victim history.TxnID
	Cycle  []history.TxnID
}

// Error implements error.
func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("locking: deadlock: victim %s, cycle %v", e.Victim, e.Cycle)
}

// Waker rouses a waiting transaction so it observes that a cycle closed by
// another requester chose it as the deadlock victim. The engine passes the
// object whose condition variable the transaction sleeps on.
type Waker interface {
	Wake()
}

// Waiter is a transaction declaring a wait. Prio orders deadlock victims
// (the engine passes the Begin sequence, so greater is younger); Wake is
// how a later requester whose cycle picks this waiter rouses it.
type Waiter struct {
	ID   history.TxnID
	Prio int64
	Wake Waker
}

// Detector is a global waits-for deadlock detector shared by all objects
// of an engine. It is safe for concurrent use: one mutex guards the whole
// waits-for graph, so declaring a wait, detecting a cycle through it and
// choosing the victim are one critical section, the DFS sees one
// instantaneous cut of the graph, and exactly one victim is chosen per
// cycle. A waiter's entry — its edges, priority and wake hook — exists
// only while it waits, so declaring priorities costs nothing per
// transaction, and a transaction that never waits never takes the lock.
type Detector struct {
	mu    sync.Mutex
	waits map[history.TxnID]waitEntry
	// path and visited are findCycleFrom's scratch, reused by every
	// detection under mu, so a wait that closes no cycle allocates
	// nothing.
	path    []dfsFrame
	visited map[history.TxnID]struct{}
}

// waitEntry is one waiting transaction. holders are its outgoing edges,
// kept sorted so the DFS visits them in a reproducible order; wound is
// set (and holders dropped) when another requester's cycle chose it as
// the victim, until the waiter collects it.
type waitEntry struct {
	Waiter
	holders []history.TxnID
	wound   *ErrDeadlock
}

// dfsFrame is one transaction on the DFS path and the index of the next
// of its edges to follow.
type dfsFrame struct {
	id   history.TxnID
	next int
}

// NewDetector builds an empty detector.
func NewDetector() *Detector {
	return &Detector{
		waits:   make(map[history.TxnID]waitEntry),
		path:    make([]dfsFrame, 0, 8),
		visited: make(map[history.TxnID]struct{}, 8),
	}
}

// AddWaits records that w is blocked on holders and checks for a cycle
// through w. The detector keeps the slice as w's edges, sorting it and
// inserting into it in place, so it owns holders' backing array until
// w's ClearWaits: the caller may reuse that array for its next request
// only after ClearWaits has returned. If a cycle closes, its youngest
// member is the victim:
//
//   - w itself (it is ready to run, not yet asleep): its edges are rolled
//     back and an *ErrDeadlock naming it is returned;
//   - another, waiting member: its edges are dropped, it is marked
//     wounded, and its Waker is returned with a nil error. The caller
//     must call Wake after releasing any latch it holds, then re-evaluate
//     its request; w keeps its edges and keeps waiting.
//
// A w that was itself wounded since its last ClearWaits gets its wound
// back as the error, and its entry is removed.
func (d *Detector) AddWaits(w Waiter, holders []history.TxnID) (Waker, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.waits[w.ID]
	if ok && e.wound != nil {
		delete(d.waits, w.ID)
		return nil, e.wound
	}
	if !ok {
		slices.Sort(holders)
		e.holders = holders
	} else {
		for _, h := range holders {
			if i, found := slices.BinarySearch(e.holders, h); !found {
				e.holders = slices.Insert(e.holders, i, h)
			}
		}
	}
	e.Waiter = w
	d.waits[w.ID] = e
	cycle := d.findCycleFrom(w.ID)
	if cycle == nil {
		return nil, nil
	}
	victim := cycle[0] // w: the DFS starts there
	prio := w.Prio
	for _, t := range cycle[1:] {
		if p := d.waits[t].Prio; p > prio {
			victim, prio = t, p
		}
	}
	dl := &ErrDeadlock{Victim: victim, Cycle: cycle}
	if victim == w.ID {
		delete(d.waits, w.ID)
		return nil, dl
	}
	ve := d.waits[victim]
	ve.holders, ve.wound = nil, dl
	d.waits[victim] = ve
	return ve.Wake, nil
}

// ClearWaits removes waiter's entry (called when it wakes). If a cycle
// chose waiter as its victim while it slept, the wound is returned: the
// waiter must abort.
func (d *Detector) ClearWaits(waiter history.TxnID) error {
	d.mu.Lock()
	wound := d.waits[waiter].wound
	delete(d.waits, waiter)
	d.mu.Unlock()
	if wound != nil {
		return wound
	}
	return nil
}

// findCycleFrom runs a DFS from start over the live waits-for edges and
// returns a cycle through start (start first) if one exists. Edges are
// followed in sorted order, so the cycle found is reproducible. Only the
// returned cycle is allocated; the path and visited set are the
// detector's scratch. Caller holds mu.
func (d *Detector) findCycleFrom(start history.TxnID) []history.TxnID {
	defer func() {
		d.path = d.path[:0]
		clear(d.visited)
	}()
	d.path = append(d.path, dfsFrame{id: start})
	d.visited[start] = struct{}{}
	for len(d.path) > 0 {
		top := &d.path[len(d.path)-1]
		edges := d.waits[top.id].holders
		if top.next == len(edges) {
			d.path = d.path[:len(d.path)-1]
			continue
		}
		n := edges[top.next]
		top.next++
		if n == start {
			cycle := make([]history.TxnID, len(d.path))
			for i, f := range d.path {
				cycle[i] = f.id
			}
			return cycle
		}
		if _, seen := d.visited[n]; !seen {
			d.visited[n] = struct{}{}
			d.path = append(d.path, dfsFrame{id: n})
		}
	}
	return nil
}

// WaitCount returns the number of transactions currently waiting
// (diagnostics).
func (d *Detector) WaitCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.waits)
}
