package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/txn"
	"repro/internal/wal"
)

// maxRetries is how often a deadlock victim is resubmitted before the
// scripted transaction counts as failed.
const maxRetries = 10

// round is one repetition of a workload on a fresh engine: set-up, the
// timed steady phase over a fixed number of scripted transactions, the
// oracle check, and for durable workloads the crash image and restart.
type round struct {
	w        *workload
	ids      []history.ObjectID
	scripts  [clients][]op
	inflight [clients][2]op
	txns     int // scripted transactions per client
	// dir is this round's private scratch directory (durable workloads);
	// it is removed when the round ends.
	dir    string
	traced bool
}

// roundResult is what one round measured.
type roundResult struct {
	steadyNS           int64
	attempted, commits int64
	failed, retries    int64
	p50NS, p99NS       int64
	mallocs            uint64
	cpuNS              int64 // process CPU time, user + system, over the steady phase
	// Durable workloads only.
	logBytes  int64 // bytes in the crash image's WAL segments
	restartNS int64 // OpenSegmentedBackend start -> RestartAllWithConfig return
	// Traced rounds only.
	layers map[string]float64
	logs   []*spanLog
	// errs lists every correctness or durability check that failed.
	errs []string
}

// client is one closed-loop caller.
type client struct {
	script  []op
	ledger  ledger
	lat     []int64 // first Begin -> acknowledged Commit, per committed transaction
	log     *spanLog
	commits int64
	failed  int64
	retries int64
	wallNS  int64
	err     error // first unexpected error
}

var spinSink atomic.Uint64

// think burns n loop iterations while the transaction holds its locks,
// yielding every 256 so the two clients' lock-hold windows overlap however
// the scheduler places them.
func think(n int) {
	var acc uint64 = 1469598103934665603
	for i := 0; i < n; i++ {
		acc = (acc ^ uint64(i)) * 1099511628211
		if i&255 == 255 {
			runtime.Gosched()
		}
	}
	spinSink.Add(acc)
}

// attempt runs one try at a scripted transaction. It reports whether the
// transaction committed and, if not, whether it was a deadlock victim that
// may be resubmitted.
func (c *client) attempt(e *txn.Engine, w *workload, ids []history.ObjectID, idx int32, body []op, ok []bool) (committed, retry bool) {
	l := c.log
	root := l.open(spanTxn, idx)
	s := l.now()
	tx := e.Begin()
	l.add(spanBegin, idx, root, s)
	for k, o := range body {
		s = l.now()
		res, err := tx.Invoke(ids[o.acct], invocations[o.inv])
		if err != nil {
			if errors.Is(err, txn.ErrAborted) {
				// Deadlock victim: the engine has already aborted it.
				l.add(spanVictim, idx, root, s)
				l.close(root, false)
				return false, true
			}
			l.add(spanInvoke, idx, root, s)
			c.fail(fmt.Errorf("invoke %s on %s: %w", invocations[o.inv], ids[o.acct], err))
			s = l.now()
			_ = tx.Abort() // already failing; the invoke error is the one reported
			l.add(spanAbort, idx, root, s)
			l.close(root, false)
			return false, false
		}
		l.add(spanInvoke, idx, root, s)
		ok[k] = res == "ok"
		if w.think > 0 {
			s = l.now()
			think(w.think)
			l.add(spanThink, idx, root, s)
		}
	}
	s = l.now()
	err := tx.Commit()
	l.add(spanCommit, idx, root, s)
	l.close(root, err == nil)
	if err != nil {
		c.fail(fmt.Errorf("commit: %w", err))
		return false, false
	}
	c.ledger.apply(body, ok)
	return true, false
}

func (c *client) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// run submits the client's script, one transaction at a time.
func (c *client) run(e *txn.Engine, w *workload, ids []history.ObjectID, ck *checkpointer) {
	start := time.Now()
	ok := make([]bool, w.opsPerTxn)
	n := len(c.script) / w.opsPerTxn
	for i := 0; i < n; i++ {
		body := c.script[i*w.opsPerTxn : (i+1)*w.opsPerTxn]
		t0 := time.Now()
		committed := false
		for try := 0; try <= maxRetries; try++ {
			var retry bool
			committed, retry = c.attempt(e, w, ids, int32(i), body, ok)
			if !retry {
				break
			}
			c.retries++
			// The victim's script takes the same first lock again, so a
			// resubmission that beats the winner to it deadlocks again.
			// Back off twice as long each time (the first wait is one
			// think time), so the winner gets to finish first.
			s := c.log.now()
			think(max(w.think, 1000) << try)
			c.log.add(spanBackoff, int32(i), -1, s)
		}
		if !committed {
			c.failed++
			continue
		}
		c.lat = append(c.lat, int64(time.Since(t0)))
		c.commits++
		ck.committed()
	}
	c.wallNS = int64(time.Since(start))
}

// checkpointer is the driver-owned goroutine of the checkpoint workload:
// it calls Engine.Checkpoint each time the committed count crosses a
// multiple of every. A nil checkpointer does nothing.
type checkpointer struct {
	every, total int64
	count        atomic.Int64
	// signal has room for one pending request: a crossing that happens
	// while a checkpoint is still running is served right after it, and
	// further ones coalesce.
	signal chan struct{}
	done   chan struct{}
	log    *spanLog
	cycles int
	err    error
}

func startCheckpointer(e *txn.Engine, total int64, cycles int, log *spanLog) *checkpointer {
	k := &checkpointer{
		every:  total / int64(cycles+1),
		total:  total,
		signal: make(chan struct{}, 1),
		done:   make(chan struct{}),
		log:    log,
	}
	go func() {
		defer close(k.done)
		for range k.signal {
			s := k.log.now()
			_, err := e.Checkpoint()
			k.log.add(spanCheckpoint, -1, -1, s)
			if err != nil && k.err == nil {
				k.err = err
			}
			k.cycles++
		}
	}()
	return k
}

// committed counts one acknowledged commit. The crossing at the very end
// of the script is skipped so that restart always has a suffix to replay.
func (k *checkpointer) committed() {
	if k == nil {
		return
	}
	if n := k.count.Add(1); n%k.every == 0 && n+k.every <= k.total {
		select {
		case k.signal <- struct{}{}:
		default:
		}
	}
}

// stop ends the goroutine after any checkpoint in progress and waits for it.
func (k *checkpointer) stop() {
	close(k.signal)
	<-k.done
}

func (r *round) run() (res roundResult) {
	w := r.w
	fail := func(format string, args ...any) {
		res.errs = append(res.errs, fmt.Sprintf(format, args...))
	}
	if w.durable {
		defer func() {
			if err := os.RemoveAll(r.dir); err != nil {
				fail("cleanup: %v", err)
			}
		}()
	}
	epoch := time.Now()
	var opts txn.Options
	var aux *spanLog // checkpointer and restart spans
	if r.traced {
		opts.Obs = obs.New(obs.Options{Epoch: epoch, SampleRate: 1.0 / 64})
		aux = newSpanLog(epoch, clients, 64)
	}
	live := txn.DurabilityOptions{Dir: filepath.Join(r.dir, "live"), SegmentBytes: segmentBytes}

	e, err := w.open(opts, live.Dir, r.ids)
	if err != nil {
		fail("set-up: %v", err)
		return res
	}
	// Close is idempotent: this one only serves the early returns, the
	// checked one follows the live-engine check below.
	defer func() { _ = e.Close() }()

	var cs [clients]*client
	for c := range cs {
		cs[c] = &client{
			script: r.scripts[c],
			ledger: make(ledger, w.accounts),
			lat:    make([]int64, 0, r.txns),
		}
		if r.traced {
			// Room for every span of the script plus a quarter again for
			// resubmitted victims, so recording does not reallocate.
			cs[c].log = newSpanLog(epoch, c, r.txns*(3+2*w.opsPerTxn)*5/4)
		}
	}
	total := int64(clients * r.txns)
	var ck *checkpointer
	if w.checkpoints > 0 {
		ck = startCheckpointer(e, total, w.checkpoints, aux)
	}

	// Steady phase. The collection beforehand starts every round from the
	// same heap state; allocations are counted across exactly the phase.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		fail("getrusage: %v", err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(e, w, r.ids, ck)
		}(c)
	}
	wg.Wait()
	res.steadyNS = int64(time.Since(start))
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		fail("getrusage: %v", err)
	}
	res.cpuNS = cpuNS(&ru1) - cpuNS(&ru0)
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	if ck != nil {
		ck.stop()
		if ck.err != nil {
			fail("checkpoint: %v", ck.err)
		}
	}
	snap := e.ObsSnapshot()

	var lat []int64
	var ledgers []ledger
	for i, c := range cs {
		res.commits += c.commits
		res.failed += c.failed
		res.retries += c.retries
		lat = append(lat, c.lat...)
		ledgers = append(ledgers, c.ledger)
		if c.err != nil {
			fail("client %d: %v", i, c.err)
		}
	}
	res.attempted = total
	slices.Sort(lat)
	res.p50NS = percentile(lat, 50)
	res.p99NS = percentile(lat, 99)
	want := expected(initialBalance, w.accounts, ledgers...)

	// Crash point: each client has one more transfer open, its update
	// records flushed, and no commit. The crash image is a copy of the
	// durable directory taken at that instant without closing anything:
	// every backend write is followed by fsync in the same call, so the
	// files hold exactly the flushed bytes and nothing unflushed survives.
	var open [clients]*txn.Txn
	for c := range open {
		open[c] = e.Begin()
		for _, o := range r.inflight[c] {
			if _, err := open[c].Invoke(r.ids[o.acct], invocations[o.inv]); err != nil {
				fail("in-flight transfer of client %d: %v", c, err)
			}
		}
	}
	image := txn.DurabilityOptions{Dir: filepath.Join(r.dir, "image"), SegmentBytes: segmentBytes}
	if w.durable {
		if err := e.WAL().Flush(); err != nil {
			fail("flush before crash image: %v", err)
		}
		res.logBytes, err = copyFlatDir(live.WALDir(), image.WALDir())
		if err == nil {
			_, err = copyFlatDir(live.CheckpointDir(), image.CheckpointDir())
		}
		if err != nil {
			fail("crash image: %v", err)
		}
	}
	for c, tx := range open {
		s := aux.now()
		err := tx.Abort()
		aux.add(spanAbort, -1, -1, s)
		if err != nil {
			fail("abort of client %d's in-flight transfer: %v", c, err)
		}
	}

	// The live engine must now show exactly the acknowledged commits.
	got := make([]int64, w.accounts)
	for i, id := range r.ids {
		store, ok := e.Object(id)
		if !ok {
			fail("account %s is not registered", id)
			continue
		}
		got[i], err = balanceOf(store.CommittedValue())
		if err != nil {
			fail("live %s: %v", id, err)
		}
	}
	res.errs = append(res.errs, checkBalances("live engine", want, got, nil, w.conserves)...)
	if err := e.Close(); err != nil {
		fail("close: %v", err)
	}

	var rs restarted
	if w.durable {
		rs, err = restart(image, r.ids, aux)
		if err != nil {
			fail("restart: %v", err)
		} else {
			res.restartNS = rs.wallNS
			res.errs = append(res.errs, checkBalances("restarted stores", want, rs.balances, r.inflight[:], w.conserves)...)
		}
	}
	if r.traced {
		for _, c := range cs {
			res.logs = append(res.logs, c.log)
		}
		res.logs = append(res.logs, aux)
		res.layers = layerMetrics(w, &res, snap, cs[:], aux, ck, rs)
	}
	return res
}

// cpuNS is the process CPU time, user plus system, a Getrusage call saw.
func cpuNS(ru *syscall.Rusage) int64 { return ru.Utime.Nano() + ru.Stime.Nano() }

func balanceOf(v adt.Value) (int64, error) {
	n, err := strconv.ParseInt(v.Encode(), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("balance %q: %w", v.Encode(), err)
	}
	return n, nil
}

// restarted is the outcome of recovering a crash image.
type restarted struct {
	balances   []int64
	stats      recovery.RestartStats
	logRecords int   // records the reopened log held before restart appended to it
	wallNS     int64 // OpenSegmentedBackend start -> RestartAllWithConfig return
}

// restart recovers the crash image the way a process coming back up would:
// reopen the segments, open the log over them, load the newest checkpoint
// if there is one, and run restart at its defaults.
func restart(image txn.DurabilityOptions, ids []history.ObjectID, log *spanLog) (out restarted, err error) {
	start := time.Now()
	s := log.now()
	backend, err := wal.OpenSegmentedBackend(image.WALDir(), image.SegmentConfig())
	if err != nil {
		return out, err
	}
	relog, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		_ = backend.Close() // the open error is the one to report
		return out, err
	}
	log.add(spanWALOpen, -1, -1, s)
	defer func() {
		if cerr := relog.Close(); err == nil {
			err = cerr
		}
	}()
	out.logRecords = relog.Records()

	s = log.now()
	store, err := checkpoint.OpenFileStore(image.CheckpointDir())
	if err != nil {
		return out, err
	}
	ckpt, err := store.Latest()
	if err != nil {
		return out, err
	}
	log.add(spanCkptLoad, -1, -1, s)

	s = log.now()
	stores, stats, err := recovery.RestartAllWithConfig(ids,
		func(history.ObjectID) adt.Machine { return account.Machine() }, relog, ckpt, recovery.RestartConfig{})
	if err != nil {
		return out, err
	}
	log.add(spanRestart, -1, -1, s)
	out.wallNS = int64(time.Since(start))
	out.stats = stats

	out.balances = make([]int64, len(ids))
	for i, id := range ids {
		st, ok := stores[id]
		if !ok {
			return out, fmt.Errorf("restart returned no store for %s", id)
		}
		if out.balances[i], err = balanceOf(st.CommittedValue()); err != nil {
			return out, fmt.Errorf("restarted %s: %w", id, err)
		}
	}
	return out, nil
}

// copyFlatDir copies the regular files of src into dst (created fresh) and
// returns the bytes copied. A WAL or checkpoint directory is a flat set of
// files.
func copyFlatDir(src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		n, err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name()))
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

func copyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if err != nil {
		_ = out.Close() // the copy error is the one to report
		return n, err
	}
	return n, out.Close()
}
