package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Driver-side tracing. A traced round records one span around every call
// the driver makes into a layer's public API. Spans live in pre-allocated
// memory during the round and are written out when the benchmark ends; no
// tracing is added inside the engine. An untraced round passes a nil
// *spanLog, on which every method is a no-op that does not read the clock.

type spanKind uint8

const (
	spanTxn        spanKind = iota // one attempt at a scripted transaction; parent of the client spans below
	spanBegin                      // Engine.Begin
	spanInvoke                     // Txn.Invoke that returned a response
	spanVictim                     // Txn.Invoke that returned a deadlock abort (detection + the engine's internal abort)
	spanThink                      // lock-holding think time
	spanBackoff                    // the wait before a deadlock victim is resubmitted
	spanCommit                     // Txn.Commit
	spanAbort                      // Txn.Abort called by the driver
	spanCheckpoint                 // Engine.Checkpoint
	spanWALOpen                    // wal.OpenSegmentedBackend + wal.Open
	spanCkptLoad                   // FileStore.Latest
	spanRestart                    // recovery.RestartAllWithConfig
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"txn", "Engine.Begin", "Txn.Invoke", "Txn.Invoke(deadlock victim)", "think", "backoff", "Txn.Commit", "Txn.Abort",
	"Engine.Checkpoint", "wal.OpenSegmentedBackend+wal.Open", "FileStore.Latest", "recovery.RestartAllWithConfig",
}

// span is one recorded interval, in nanoseconds since the round's epoch.
// parent indexes the enclosing span in the same log (-1 = none); txn is
// the scripted transaction the span belongs to (-1 = none), the identifier
// the spans of one transaction share.
type span struct {
	start, end int64
	txn        int32
	parent     int32
	kind       spanKind
	committed  bool // spanTxn only
}

// spanLog is the span buffer of one goroutine (a client, the checkpointer,
// or the restart path), so recording takes no lock.
type spanLog struct {
	epoch time.Time
	lane  int
	spans []span
}

func newSpanLog(epoch time.Time, lane, capacity int) *spanLog {
	return &spanLog{epoch: epoch, lane: lane, spans: make([]span, 0, capacity)}
}

// now reads the trace clock (0 when tracing is off).
func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.epoch))
}

// add records a finished span that started at start and ends now.
func (l *spanLog) add(kind spanKind, txn, parent int32, start int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{kind: kind, txn: txn, parent: parent, start: start, end: l.now()})
}

// open starts a parent span and returns its index for close and for its
// children's parent field.
func (l *spanLog) open(kind spanKind, txn int32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{kind: kind, txn: txn, parent: -1, start: l.now()})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(idx int32, committed bool) {
	if l == nil {
		return
	}
	l.spans[idx].end = l.now()
	l.spans[idx].committed = committed
}

// durations returns the lengths, in nanoseconds, of the spans of kind.
func (l *spanLog) durations(kind spanKind) []int64 {
	var out []int64
	if l == nil {
		return out
	}
	for i := range l.spans {
		if l.spans[i].kind == kind {
			out = append(out, l.spans[i].end-l.spans[i].start)
		}
	}
	return out
}

// writeChromeTrace writes the logs in Chrome trace-event format (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span, one
// thread lane per log, with the span's transaction and parent in args.
func writeChromeTrace(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, l := range logs {
		if l == nil {
			continue
		}
		for i, s := range l.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"txn":%d`,
				spanNames[s.kind], l.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.txn)
			if s.kind == spanTxn {
				fmt.Fprintf(w, `,"committed":%t`, s.committed)
			}
			fmt.Fprint(w, "}}")
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
