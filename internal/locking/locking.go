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
	"repro/internal/stripe"
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
// of an engine. It is safe for concurrent use. The edge store is striped by
// waiter so that the per-shard engine hot path (declare a wait, clear waits
// on wake and at commit/abort) touches only one stripe lock; cycle
// detection — the rare path — holds every stripe lock (acquired in index
// order) and runs the DFS over the live maps, so it sees one instantaneous
// cut of the graph and exactly one victim is chosen per cycle, just as
// with a single-lock detector. A waiter's entry — its edges, priority and
// wake hook — exists only while it waits, so declaring priorities costs
// nothing per transaction.
type Detector struct {
	stripes []*detectorStripe
	mask    uint32
	// path and visited are findCycleFrom's scratch, reused by every
	// detection and touched only under every stripe lock, so a wait that
	// closes no cycle allocates nothing.
	path    []dfsFrame
	visited map[history.TxnID]struct{}
}

type detectorStripe struct {
	mu    sync.Mutex
	waits map[history.TxnID]waitEntry
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

// detectorStripes balances stripe-lock spread against snapshot cost.
const detectorStripes = 8

// NewDetector builds an empty detector.
func NewDetector() *Detector {
	d := &Detector{
		stripes: make([]*detectorStripe, detectorStripes),
		mask:    detectorStripes - 1,
		path:    make([]dfsFrame, 0, 8),
		visited: make(map[history.TxnID]struct{}, 8),
	}
	for i := range d.stripes {
		d.stripes[i] = &detectorStripe{waits: make(map[history.TxnID]waitEntry)}
	}
	return d
}

func (d *Detector) stripeOf(t history.TxnID) *detectorStripe {
	return d.stripes[stripe.FNV32a(string(t))&d.mask]
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
// back as the error.
func (d *Detector) AddWaits(w Waiter, holders []history.TxnID) (Waker, error) {
	st := d.stripeOf(w.ID)
	st.mu.Lock()
	e, ok := st.waits[w.ID]
	if ok && e.wound != nil {
		delete(st.waits, w.ID)
		st.mu.Unlock()
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
	st.waits[w.ID] = e
	st.mu.Unlock()
	// Detection under every stripe lock, acquired in index order (the
	// single-stripe paths take only one lock, so no ordering cycle). The
	// DFS therefore sees one instantaneous cut of the live graph — locking
	// stripes one at a time could assemble a phantom cycle from edges that
	// never overlapped in time and abort an innocent victim — and the
	// victim's edge removal is atomic with detection, so a racing detection
	// cannot see the already-broken cycle and pick a second victim.
	for _, s := range d.stripes {
		s.mu.Lock()
	}
	var wake Waker
	var err error
	if own := st.waits[w.ID]; own.wound != nil {
		// Wounded by a racing detection between the two lock sections.
		delete(st.waits, w.ID)
		err = own.wound
	} else if cycle := d.findCycleFrom(w.ID); cycle != nil {
		victim := cycle[0] // w: the DFS starts there
		prio := w.Prio
		for _, t := range cycle[1:] {
			if p := d.stripeOf(t).waits[t].Prio; p > prio {
				victim, prio = t, p
			}
		}
		dl := &ErrDeadlock{Victim: victim, Cycle: cycle}
		if victim == w.ID {
			delete(st.waits, w.ID)
			err = dl
		} else {
			vs := d.stripeOf(victim)
			ve := vs.waits[victim]
			ve.holders, ve.wound = nil, dl
			vs.waits[victim] = ve
			wake = ve.Wake
		}
	}
	for _, s := range d.stripes {
		s.mu.Unlock()
	}
	return wake, err
}

// ClearWaits removes waiter's entry (called after it wakes, and at commit
// or abort). If a cycle chose waiter as its victim while it slept, the
// wound is returned: the waiter must abort. Touches only the waiter's
// stripe.
func (d *Detector) ClearWaits(waiter history.TxnID) error {
	st := d.stripeOf(waiter)
	st.mu.Lock()
	wound := st.waits[waiter].wound
	delete(st.waits, waiter)
	st.mu.Unlock()
	if wound != nil {
		return wound
	}
	return nil
}

// findCycleFrom runs a DFS from start over the live waits-for edges and
// returns a cycle through start (start first) if one exists. Edges are
// followed in sorted order, so the cycle found is reproducible. Only the
// returned cycle is allocated; the path and visited set are the
// detector's scratch. Caller holds every stripe lock.
func (d *Detector) findCycleFrom(start history.TxnID) []history.TxnID {
	defer func() {
		d.path = d.path[:0]
		clear(d.visited)
	}()
	d.path = append(d.path, dfsFrame{id: start})
	d.visited[start] = struct{}{}
	for len(d.path) > 0 {
		top := &d.path[len(d.path)-1]
		edges := d.stripeOf(top.id).waits[top.id].holders
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
	n := 0
	for _, st := range d.stripes {
		st.mu.Lock()
		n += len(st.waits)
		st.mu.Unlock()
	}
	return n
}
