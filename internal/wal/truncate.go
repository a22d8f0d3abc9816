package wal

import (
	"fmt"
)

// TruncateBefore discards every record with LSN strictly below lsn from
// the log: Base advances past them and, when the backend supports it (see
// Truncator), durable storage drops them too — the log-reclamation half of
// fuzzy checkpointing. The requested point is clamped to the durable
// watermark plus one: truncation never crosses the watermark, because
// records past it are not durable (a round in flight or failed) and
// dropping their durable prefix would leave the file unreplayable. It
// returns the number of records discarded. LSNs are not renumbered; Base
// advances instead.
//
// On a log whose backend has died, or under a simulated crash
// (CrashPoint), only Base advances, unaligned — a dead machine cannot
// unlink its segments, and the sticky-error/crash contracts already freeze
// or fake the watermark accordingly.
//
// Otherwise the requested point is aligned down to the Truncator's
// boundary (the segmented backend truncates at segment starts) before Base
// moves, so Base+1 is the durable log's first LSN and a reopen replays
// exactly the records the live log counts.
func (l *Log) TruncateBefore(lsn LSN) (int, error) {
	// flushMu orders the truncation against batch sequencing (no new LSNs
	// are assigned mid-truncate) and serializes the backend unlink against
	// Write, matching flushOnce's flushMu → mu order; waiting out the
	// rounds in flight fixes the watermark and the failure state.
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	l.awaitIdle()
	tr, _ := l.backend.(Truncator)
	if l.crashed || l.dead.Load() || l.backendGone {
		tr = nil
	}
	if maxPoint := l.durableLSN + 1; lsn > maxPoint {
		lsn = maxPoint
	}
	l.mu.Unlock()
	if tr != nil {
		lsn = tr.AlignTruncate(lsn)
	}
	l.mu.Lock()
	if lsn <= l.base+1 {
		l.mu.Unlock()
		return 0, nil
	}
	n := int(lsn - 1 - l.base)
	l.base = lsn - 1
	l.mu.Unlock()
	if tr != nil {
		stats, err := tr.TruncateBefore(lsn)
		l.truncStats.Add(stats)
		l.bytes -= stats.BytesUnlinked
		if err != nil {
			return n, fmt.Errorf("wal: truncate backend before %d: %w", lsn, err)
		}
		// The durable log lost the prefix too, so a reopened log knows no
		// chain head at or below the base: forget them here as well, and a
		// transaction's next record chains to the nil LSN on both sides.
		// Without the backend's truncation a reopen would still replay
		// those heads, so the map keeps them.
		l.mu.Lock()
		for txn, last := range l.lastOf {
			if last < lsn {
				delete(l.lastOf, txn)
			}
		}
		l.mu.Unlock()
	}
	return n, nil
}

// AlignTruncate returns the truncation point the backend would realize for
// a TruncateBefore(lsn): the durable-watermark clamp followed by the
// backend's boundary alignment (segment starts, for the segmented
// backend). Checkpointing records this value so the durable snapshot names
// the exact durable truncation point.
func (l *Log) AlignTruncate(lsn LSN) LSN {
	l.mu.Lock()
	if maxPoint := l.durableLSN + 1; lsn > maxPoint {
		lsn = maxPoint
	}
	l.mu.Unlock()
	if tr, ok := l.backend.(Truncator); ok {
		return tr.AlignTruncate(lsn)
	}
	return lsn
}

// SegmentBounds returns the first LSN of each durable segment in ascending
// order when the backend is segmented (see Segmenter), or nil for
// unsegmented backends. Parallel restart partitions its pass-1 winner scan
// on these boundaries. Staged records are flushed first so the bounds
// cover everything sequenced.
func (l *Log) SegmentBounds() []LSN {
	l.sequenceStaged()
	if sg, ok := l.backend.(Segmenter); ok {
		return sg.SegmentStarts()
	}
	return nil
}
