package wal

// Overlapped flush rounds: round k+1 is sequenced, written and synced while
// round k's sync still runs, and rounds complete strictly in order.

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/spec"
)

// heldBackend holds the i-th Sync call until the test sends its result on
// results[i], announcing each entry on entered. Writes are counted.
type heldBackend struct {
	writes  atomic.Int64
	syncs   atomic.Int64
	entered chan int
	results []chan error
}

func newHeldBackend(rounds int) *heldBackend {
	b := &heldBackend{entered: make(chan int, rounds), results: make([]chan error, rounds)}
	for i := range b.results {
		b.results[i] = make(chan error, 1)
	}
	return b
}

func (b *heldBackend) Write([]Record, []byte) error {
	b.writes.Add(1)
	return nil
}

func (b *heldBackend) Sync() error {
	i := int(b.syncs.Add(1) - 1)
	b.entered <- i
	return <-b.results[i]
}

func (b *heldBackend) Close() error { return nil }

// awaitEntry waits for the next Sync call to enter and returns its index.
func (b *heldBackend) awaitEntry(t *testing.T, what string) int {
	t.Helper()
	select {
	case i := <-b.entered:
		return i
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no Sync entered the backend", what)
		return -1
	}
}

// twoRounds stages one record, lets a barrier start round 0 and holds its
// Sync, then stages a second record whose barrier must lead round 1 while
// round 0's Sync is still held. It returns the two barriers' results.
func twoRounds(t *testing.T, l *Log, b *heldBackend) (first, second chan error) {
	t.Helper()
	barrier := func(txn history.TxnID) chan error {
		tk, err := l.AppendAsync(Record{Kind: Update, Txn: txn, Obj: "X", Op: adt.DepositOk(1)})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- l.WaitDurable(tk) }()
		return done
	}
	first = barrier("A")
	if i := b.awaitEntry(t, "round 0"); i != 0 {
		t.Fatalf("first Sync entered is call %d, want 0", i)
	}
	second = barrier("B")
	if i := b.awaitEntry(t, "round 1 while round 0's sync is held"); i != 1 {
		t.Fatalf("second Sync entered is call %d, want 1", i)
	}
	if w := b.writes.Load(); w != 2 {
		t.Fatalf("backend saw %d writes with round 0's sync held, want 2", w)
	}
	return first, second
}

// quiet reports a barrier that returned within the window — it must not.
func quiet(t *testing.T, done chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) before round 0 completed", what, err)
	case <-time.After(30 * time.Millisecond):
	}
}

func recv(t *testing.T, done chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s hung", what)
		return nil
	}
}

// TestOverlapRoundWritesAndSyncsWhileEarlierSyncBlocked: a barrier whose
// records are not in the round in flight leads its own round — written and
// synced while the earlier round's sync is still blocked — and its
// acknowledgement still waits for the earlier round to complete.
func TestOverlapRoundWritesAndSyncsWhileEarlierSyncBlocked(t *testing.T) {
	// The subtest names the one flush mode: barriers lead every round.
	// The subtest names the one flush mode: barriers lead every round.
	t.Run("sync", func(t *testing.T) {
		b := newHeldBackend(2)
		l, err := Open(Config{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		first, second := twoRounds(t, l, b)
		b.results[1] <- nil
		quiet(t, second, "round 1's barrier")
		if got := l.DurableLSN(); got != 0 {
			t.Fatalf("DurableLSN = %d with round 0 in flight, want 0", got)
		}
		b.results[0] <- nil
		for _, done := range []chan error{first, second} {
			if err := recv(t, done, "barrier"); err != nil {
				t.Fatalf("barrier: %v", err)
			}
		}
		if got := l.DurableLSN(); got != 2 {
			t.Fatalf("DurableLSN = %d after both rounds, want 2", got)
		}
	})
}

// TestOverlapEarlierFailureFailsLaterRound: round 0's sync fails after
// round 1's succeeded. Both barriers return round 0's error, the watermark
// stays where it was, and no later write reaches the backend — a later
// sync does not prove round 0's bytes reached the device.
func TestOverlapEarlierFailureFailsLaterRound(t *testing.T) {
	// The subtest names the one flush mode: barriers lead every round.
	// The subtest names the one flush mode: barriers lead every round.
	t.Run("sync", func(t *testing.T) {
		devErr := errors.New("device lost round 0")
		b := newHeldBackend(2)
		l, err := Open(Config{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		first, second := twoRounds(t, l, b)
		b.results[1] <- nil
		quiet(t, second, "round 1's barrier")
		b.results[0] <- devErr
		for _, done := range []chan error{first, second} {
			if err := recv(t, done, "barrier"); !errors.Is(err, devErr) {
				t.Fatalf("barrier = %v, want round 0's error", err)
			}
		}
		if got := l.DurableLSN(); got != 0 {
			t.Fatalf("DurableLSN = %d after round 0 failed, want 0", got)
		}
		tk, err := l.AppendAsync(Record{Kind: Update, Txn: "C", Obj: "X", Op: adt.DepositOk(1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(tk); !errors.Is(err, devErr) {
			t.Fatalf("later barrier = %v, want the sticky error", err)
		}
		if err := l.Close(); !errors.Is(err, devErr) {
			t.Fatalf("Close = %v, want the sticky error", err)
		}
		if w := b.writes.Load(); w != 2 {
			t.Fatalf("backend saw %d writes, want 2: nothing may follow the failed round", w)
		}
	})
}

// TestOverlapRotationUnderConcurrentCommits: eight committers on 64-byte
// segments, so nearly every round rotates and seals the segment other
// rounds may still be fsyncing, with Close racing the tail. No round may
// fail (a seal closing a file under a running fsync reports "file already
// closed"), and every acknowledged record is replayed after reopen. Run
// with -race.
func TestOverlapRotationUnderConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	b, err := CreateSegmentedBackend(dir, SegmentConfig{MaxSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	const committers = 8
	const per = 200
	var acked sync.Map // tag -> true
	var ackCount atomic.Int64
	closeAt := int64(committers * per * 3 / 4)
	var closeOnce sync.Once
	closed := make(chan error, 1)
	closeLog := func() { closeOnce.Do(func() { closed <- l.Close() }) }
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			txn := history.TxnID(fmt.Sprintf("C%d", c))
			for i := 0; i < per; i++ {
				tag := fmt.Sprintf("%d.%d", c, i)
				tk, err := l.AppendAsync(Record{Kind: Update, Txn: txn, Obj: "X",
					Op: spec.Op(spec.NewInvocation("w", tag), "ok")})
				if err == nil {
					err = l.WaitDurable(tk)
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("committer %d: %v", c, err)
					}
					return
				}
				acked.Store(tag, true)
				if ackCount.Add(1) == closeAt {
					go closeLog()
				}
			}
		}(c)
	}
	wg.Wait()
	closeLog()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(segmentsOf(b)) < 2 {
		t.Fatal("no segment rotation happened: the test is not exercising sealing")
	}
	rb, err := OpenSegmentedBackend(dir, SegmentConfig{MaxSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	recs, _ := rb.Replay()
	replayed := make(map[string]bool, len(recs))
	for _, r := range recs {
		replayed[r.Op.Inv.Args] = true
	}
	acked.Range(func(k, _ any) bool {
		if !replayed[k.(string)] {
			t.Errorf("acknowledged record %s not replayed", k)
		}
		return true
	})
}

// errseqDevice models how Linux reports a failed write-back of a file's
// pages: the failure bumps the file's error sequence, and an fsync through
// an open file description reports it if the sequence moved since that
// description's previous fsync — once per description, to whichever of
// its fsyncs checks first. The first len(check) fsyncs are held before
// their check (until check[i] is closed) and after it (until ret[i] is),
// so a test can interleave them; later ones run straight through.
type errseqDevice struct {
	mu      sync.Mutex
	errSeq  int
	calls   int
	entered chan int
	checked chan int
	check   []chan struct{}
	ret     []chan struct{}
}

func newErrseqDevice(held int) *errseqDevice {
	d := &errseqDevice{entered: make(chan int, held), checked: make(chan int, held)}
	for i := 0; i < held; i++ {
		d.check = append(d.check, make(chan struct{}))
		d.ret = append(d.ret, make(chan struct{}))
	}
	return d
}

// failWriteback records a write-back failure of some of the file's pages.
func (d *errseqDevice) failWriteback() {
	d.mu.Lock()
	d.errSeq++
	d.mu.Unlock()
}

// open is a SegmentedBackend opener whose files report fsync errors
// through the device model; writes go to the real file.
func (d *errseqDevice) open(path string, flag int) (segFile, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return &errseqFile{File: f, dev: d, seen: d.errSeq}, nil
}

type errseqFile struct {
	*os.File
	dev  *errseqDevice
	seen int // the error sequence this description last reported
}

func (f *errseqFile) Sync() error {
	d := f.dev
	d.mu.Lock()
	i := d.calls
	d.calls++
	d.mu.Unlock()
	held := i < len(d.check)
	if held {
		d.entered <- i
		<-d.check[i]
	}
	var err error
	d.mu.Lock()
	if f.seen != d.errSeq {
		f.seen = d.errSeq
		err = errors.New("input/output error")
	}
	d.mu.Unlock()
	if held {
		d.checked <- i
		<-d.ret[i]
	}
	return err
}

// TestOverlapSyncsEachSeeSharedWritebackError: batch 1's pages fail
// write-back while batch 1's fsync and batch 2's overlapping fsync both
// run, and batch 2's fsync checks for errors first. Had the two fsyncs
// shared one file description, batch 2's would have taken the only report
// of the error and batch 1's would have returned nil before the error was
// recorded — acknowledging a batch whose pages were lost. Each must fail.
func TestOverlapSyncsEachSeeSharedWritebackError(t *testing.T) {
	dev := newErrseqDevice(2)
	b, err := CreateSegmentedBackend(t.TempDir(), SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b.open = dev.open
	write := func(lsn LSN) {
		t.Helper()
		rec := Record{LSN: lsn, Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)}
		frame, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Write([]Record{rec}, frame); err != nil {
			t.Fatal(err)
		}
	}
	startSync := func() chan error {
		done := make(chan error, 1)
		go func() { done <- b.Sync() }()
		return done
	}
	next := func(ch chan int, what string) int {
		t.Helper()
		select {
		case i := <-ch:
			return i
		case <-time.After(5 * time.Second):
			t.Fatalf("no fsync %s", what)
			return -1
		}
	}
	write(1)
	first := startSync()
	if i := next(dev.entered, "entered for batch 1"); i != 0 {
		t.Fatalf("fsync %d entered, want 0", i)
	}
	write(2)
	second := startSync()
	if i := next(dev.entered, "entered for batch 2"); i != 1 {
		t.Fatalf("fsync %d entered, want 1", i)
	}
	dev.failWriteback()
	close(dev.check[1])
	next(dev.checked, "checked for batch 2")
	close(dev.check[0])
	next(dev.checked, "checked for batch 1")
	close(dev.ret[0])
	if err := recv(t, first, "batch 1's Sync"); err == nil {
		t.Fatal("batch 1's Sync returned nil although its pages failed write-back")
	}
	close(dev.ret[1])
	if err := recv(t, second, "batch 2's Sync"); err == nil {
		t.Fatal("batch 2's Sync returned nil after a write-back failure")
	}
	if err := b.Sync(); err == nil {
		t.Fatal("a Sync after the failure returned nil")
	}
	b.Close()
}

// TestWaitDurableOnDurableTicketStartsNoRound: a barrier on a ticket that
// is already durable returns without sequencing anything — in particular
// not another transaction's partially staged records.
func TestWaitDurableOnDurableTicketStartsNoRound(t *testing.T) {
	// The subtest names the one flush mode: barriers lead every round.
	t.Run("sync", func(t *testing.T) {
		l, err := Open(Config{Backend: &countingBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		tk, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(tk); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendAsync(Record{Kind: Update, Txn: "B", Obj: "Y", Op: adt.DepositOk(1)}); err != nil {
			t.Fatal(err)
		}
		before := l.flushes.Load()
		if err := l.WaitDurable(tk); err != nil {
			t.Fatal(err)
		}
		if got := l.flushes.Load(); got != before {
			t.Fatalf("WaitDurable on a durable ticket ran %d rounds, want 0", got-before)
		}
	})
}
