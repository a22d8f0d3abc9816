package txn

// Metrics-conservation test: every begun transaction is accounted for by
// exactly one terminal counter, and the block counters never invert,
// under both logging disciplines — with the observability layer attached,
// so the instrumentation itself is exercised (and raced) on every path.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/wal"
)

// TestMetricsConservation runs a contended bank workload with explicit
// aborts and deadlock-prone two-object transactions, quiesces, and
// checks the conservation law
//
//	Begins == Commits + Aborts + DurabilityFailures + DurabilityAborts
//
// (deadlock victims are aborted, so they land in Aborts) plus
// Blocked <= BlockEvents (an operation blocks at least once per wait it
// records). Any leak — a transaction that ends without a terminal
// counter, or one counted twice — breaks the equality.
func TestMetricsConservation(t *testing.T) {
	for _, disc := range []string{wal.DisciplineUndo, wal.DisciplineRedo} {
		t.Run(disc, func(t *testing.T) {
			o := obs.New(obs.Options{Epoch: time.Now(), SampleRate: 0.5, TraceSeed: 42})
			e := NewEngine(Options{
				Shards:        4,
				LogDiscipline: disc,
				Obs:           o,
			})
			defer e.Close()
			ba := adt.DefaultBankAccount()
			const objects = 4
			for i := 0; i < objects; i++ {
				e.MustRegister(history.ObjectID(fmt.Sprintf("acct%d", i)), ba, ba.NRBC(), UndoLogRecovery)
			}
			const workers, perWorker = 4, 40
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						tx := e.Begin()
						// Opposite acquisition orders across workers
						// provoke deadlocks; victims are aborted
						// inside Invoke.
						first := history.ObjectID(fmt.Sprintf("acct%d", (w+i)%objects))
						second := history.ObjectID(fmt.Sprintf("acct%d", (w+i+1)%objects))
						if w%2 == 1 {
							first, second = second, first
						}
						if _, err := tx.Invoke(first, adt.Deposit(1)); err != nil {
							if !errors.Is(err, ErrAborted) {
								_ = tx.Abort()
							}
							continue
						}
						if _, err := tx.Invoke(second, adt.Deposit(1)); err != nil {
							if !errors.Is(err, ErrAborted) {
								_ = tx.Abort()
							}
							continue
						}
						if i%5 == 0 {
							if err := tx.Abort(); err != nil {
								t.Errorf("abort: %v", err)
							}
							continue
						}
						if err := tx.Commit(); err != nil {
							t.Errorf("commit: %v", err)
						}
					}
				}(w)
			}
			wg.Wait()
			m := &e.Metrics
			begins := m.Begins.Load()
			terminal := m.Commits.Load() + m.Aborts.Load() +
				m.DurabilityFailures.Load() + m.DurabilityAborts.Load()
			if begins != terminal {
				t.Errorf("conservation violated: Begins=%d but Commits=%d + Aborts=%d + DurabilityFailures=%d + DurabilityAborts=%d = %d",
					begins, m.Commits.Load(), m.Aborts.Load(),
					m.DurabilityFailures.Load(), m.DurabilityAborts.Load(), terminal)
			}
			if begins != workers*perWorker {
				t.Errorf("Begins = %d, want %d", begins, workers*perWorker)
			}
			if m.Blocked.Load() > m.BlockEvents.Load() {
				t.Errorf("Blocked=%d > BlockEvents=%d", m.Blocked.Load(), m.BlockEvents.Load())
			}
			// The snapshot sees the same quiesced numbers, and the
			// end-to-end histogram saw every transaction exactly once.
			snap := e.ObsSnapshot()
			if snap.Engine.Begins != begins || snap.Engine.Commits != m.Commits.Load() {
				t.Errorf("snapshot disagrees with metrics: %+v", snap.Engine)
			}
			if snap.Phases == nil {
				t.Fatal("snapshot has no phase histograms despite an attached observer")
			}
			if got := snap.Phases.TxnE2E.Count; got != begins {
				t.Errorf("TxnE2E histogram count = %d, want Begins = %d", got, begins)
			}
		})
	}
}
