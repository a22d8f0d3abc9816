package wal

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/adt"
)

// TestClosedLogTypedErrors pins the post-Close contract: AppendAsync and
// Flush return ErrClosed-wrapped errors without staging, WaitDurable on an
// unreachable ticket reports ErrClosed, and a second Close returns the
// same result.
func TestClosedLogTypedErrors(t *testing.T) {
	// The subtest names the one flush mode: barriers lead every round.
	t.Run("sync", func(t *testing.T) {
		l, err := Open(Config{Backend: &countingBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		tk, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
		if err != nil || tk <= 0 {
			t.Fatalf("AppendAsync = (%d, %v) on an open log", tk, err)
		}
		first := l.Close()
		if first != nil {
			t.Fatalf("Close = %v", first)
		}
		if second := l.Close(); second != first {
			t.Fatalf("second Close = %v, want %v (idempotent)", second, first)
		}
		// The pre-close record was drained and made durable by Close.
		if !l.IsDurable(tk) {
			t.Error("record staged before Close not durable after Close")
		}
		if got := l.Records(); got != 1 {
			t.Fatalf("Records = %d after Close, want 1", got)
		}
		if _, err := l.AppendAsync(Record{Kind: Update, Txn: "B", Obj: "X", Op: adt.DepositOk(2)}); !errors.Is(err, ErrClosed) {
			t.Fatalf("AppendAsync after Close = %v, want ErrClosed", err)
		}
		if err := l.Flush(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Flush after Close = %v, want ErrClosed", err)
		}
		if got := l.Records(); got != 1 {
			t.Fatalf("Records = %d after post-close appends, want 1 (nothing staged)", got)
		}
		if err := l.WaitDurable(tk + 100); !errors.Is(err, ErrClosed) {
			t.Fatalf("WaitDurable(unreachable) after Close = %v, want ErrClosed", err)
		}
		if err := l.WaitDurable(0); err != nil {
			t.Fatalf("WaitDurable(0) = %v, want nil (zero ticket is always durable)", err)
		}
	})
}

// TestDurableWatermark tracks the watermark across the backend outcomes:
// it advances with every acknowledged batch, freezes at the first sync
// failure (WaitDurable then reports the sticky error), and — per the
// CrashPoint contract — keeps advancing under a simulated crash, where
// acknowledgements continue while nothing reaches the device.
func TestDurableWatermark(t *testing.T) {
	t.Run("advances-per-batch", func(t *testing.T) {
		b := &countingBackend{}
		l, err := Open(Config{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		t1, _ := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
		if l.IsDurable(t1) {
			t.Fatal("staged record durable before any flush")
		}
		l.Flush()
		if !l.IsDurable(t1) {
			t.Fatal("record not durable after its flush")
		}
		if got := l.DurableLSN(); got != 1 {
			t.Fatalf("DurableLSN = %d, want 1", got)
		}
		t2, _ := l.AppendAsync(Record{Kind: TxnCommitRec, Txn: "A"})
		l.Flush()
		if !l.IsDurable(t2) || l.DurableLSN() != 2 {
			t.Fatalf("watermark did not advance: IsDurable=%v DurableLSN=%d", l.IsDurable(t2), l.DurableLSN())
		}
		if err := l.WaitDurable(t2); err != nil {
			t.Fatalf("WaitDurable(durable ticket) = %v", err)
		}
	})

	t.Run("freezes-on-sync-failure", func(t *testing.T) {
		devErr := fmt.Errorf("device gone")
		fail := &syncFailBackend{err: devErr}
		l, err := Open(Config{Backend: fail})
		if err != nil {
			t.Fatal(err)
		}
		tk, _ := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
		l.Flush()
		if l.IsDurable(tk) {
			t.Fatal("record durable despite sync failure")
		}
		if got := l.DurableLSN(); got != 0 {
			t.Fatalf("DurableLSN = %d after failed sync, want 0", got)
		}
		if err := l.WaitDurable(tk); !errors.Is(err, devErr) {
			t.Fatalf("WaitDurable = %v, want the sticky backend failure", err)
		}
		if err := l.Close(); !errors.Is(err, devErr) {
			t.Fatalf("Close = %v, want the sticky backend failure", err)
		}
	})

	t.Run("advances-under-simulated-crash", func(t *testing.T) {
		b := &countingBackend{}
		l, err := Open(Config{
			Backend:    b,
			CrashPoint: func(batch int, _ []Record) bool { return true },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		tk, _ := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
		l.Flush()
		if b.syncs.Load() != 0 {
			t.Fatal("crashed log reached the backend")
		}
		if !l.IsDurable(tk) {
			t.Fatal("acknowledgements must continue after the simulated crash (the machine has not noticed it is dead)")
		}
		if err := l.WaitDurable(tk); err != nil {
			t.Fatalf("WaitDurable under simulated crash = %v", err)
		}
	})
}

// syncFailBackend fails every Sync with a fixed error.
type syncFailBackend struct{ err error }

func (b *syncFailBackend) Write([]Record, []byte) error { return nil }
func (b *syncFailBackend) Sync() error                  { return b.err }
func (b *syncFailBackend) Close() error                 { return nil }

// TestFlushRacingCloseIsTyped hammers Flush/AppendAsync against Close: no
// call may hang or panic, and once Close has returned, every subsequent
// append or flush reports ErrClosed. Run with -race.
func TestFlushRacingCloseIsTyped(t *testing.T) {
	for round := 0; round < 20; round++ {
		l, err := Open(Config{Backend: &countingBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				if _, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)}); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("AppendAsync = %v, want ErrClosed", err)
					}
					return
				}
				if err := l.Flush(); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Flush = %v, want nil or ErrClosed", err)
					return
				}
			}
		}()
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		if err := l.Close(); err != nil {
			t.Fatalf("Close = %v", err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("appender hung after Close")
		}
	}
}
