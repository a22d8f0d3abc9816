package wal

// The segmented file backend: the durable log as a directory of rotated,
// size-bounded segment files. Each sequenced batch is appended (and
// fsynced) wholly into the active segment; when the active segment has
// reached the configured byte threshold the next batch rotates into a
// fresh segment named by its first LSN (wal-<firstLSN>.seg, zero-padded
// so lexical and numeric order agree). Because batches never split across
// segments and LSNs are contiguous, segment names tile the log exactly:
// segment i covers [firstLSN(i), firstLSN(i+1)).
//
// The payoff is truncation cost: truncation unlinks whole segments
// strictly below the truncation point — O(dead segments), no data byte
// ever rewritten. A log that never truncates needs no rotation at all; a
// threshold larger than the log keeps it in one segment file.
//
// Crash repair is per-segment: only the final (active) segment may carry a
// torn tail, which reopen truncates away. A torn or non-contiguous
// NON-final segment cannot be produced by any crash of this writer (later
// segments exist only because earlier ones were fsynced complete) and is
// rejected as corruption rather than silently repaired. The segment
// boundaries double as the fan-out units of parallel restart: recovery
// partitions its pass-1 winner scan by SegmentStarts.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSegmentBytes is the rotation threshold when SegmentConfig leaves
// MaxSegmentBytes zero.
const DefaultSegmentBytes = 4 << 20

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// TruncateStats describes the storage cost of backend truncation:
// SegmentsUnlinked counts whole segment files deleted, and WallNS is the
// wall-clock spent inside the backend call. Log.TruncateStats accumulates
// these across a log's lifetime.
type TruncateStats struct {
	SegmentsUnlinked int   `json:"segments_unlinked"`
	WallNS           int64 `json:"wall_ns"`
}

// Add accumulates o into s.
func (s *TruncateStats) Add(o TruncateStats) {
	s.SegmentsUnlinked += o.SegmentsUnlinked
	s.WallNS += o.WallNS
}

// SegmentConfig parameterizes a segmented backend.
type SegmentConfig struct {
	// MaxSegmentBytes is the rotation threshold: a batch that finds the
	// active segment at or past this size starts a new one. Zero selects
	// DefaultSegmentBytes. Batches are never split, so a segment can
	// exceed the threshold by up to one batch.
	MaxSegmentBytes int64
}

func (c SegmentConfig) maxBytes() int64 {
	if c.MaxSegmentBytes > 0 {
		return c.MaxSegmentBytes
	}
	return DefaultSegmentBytes
}

// SegmentInfo describes one segment file (diagnostics, tests).
type SegmentInfo struct {
	Path     string
	FirstLSN LSN
	Bytes    int64
}

// Segmenter is implemented by backends whose durable log is partitioned
// into LSN-contiguous segments. SegmentStarts returns the first LSN of
// each live segment in ascending order — the partition boundaries parallel
// restart fans its winner scan out over.
type Segmenter interface {
	SegmentStarts() []LSN
}

// SegmentedBackend implements Backend over a directory of rotated segment
// files. See the file comment for the design; it additionally implements
// Replayer, Truncator, and Segmenter.
type SegmentedBackend struct {
	mu  sync.Mutex
	dir string
	cfg SegmentConfig
	// sealed are the rotated (read-only) segments, ascending FirstLSN;
	// active is the open tail segment (nil until the first batch).
	sealed []SegmentInfo
	active *os.File
	actInf SegmentInfo
	replay []Record
	closed bool

	syncs     atomic.Int64
	rotations atomic.Int64
}

var (
	_ Backend   = (*SegmentedBackend)(nil)
	_ Replayer  = (*SegmentedBackend)(nil)
	_ Truncator = (*SegmentedBackend)(nil)
	_ Segmenter = (*SegmentedBackend)(nil)
)

func segName(first LSN) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, uint64(first), segSuffix)
}

func parseSegName(name string) (LSN, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return LSN(n), true
}

// CreateSegmentedBackend creates an empty segmented backend in dir
// (created if absent; any existing segment files are removed). The first
// segment file appears with the first synced batch, named by its first
// LSN.
func CreateSegmentedBackend(dir string, cfg SegmentConfig) (*SegmentedBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create segmented backend %s: %w", dir, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: create segmented backend %s: %w", dir, err)
	}
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("wal: create segmented backend %s: %w", dir, err)
			}
		}
	}
	return &SegmentedBackend{dir: dir, cfg: cfg}, nil
}

// OpenSegmentedBackend re-opens an existing segmented log after a crash:
// segments are scanned in LSN order, LSN continuity is verified within and
// across segments, the final segment's torn tail (if any) is truncated
// away, and a torn non-final segment is rejected as corruption — a crash
// of this writer can only tear the tail of the last segment, because a
// later segment exists only after its predecessors were fsynced complete.
// The scanned records are available through Replay; new batches append to
// the final segment.
func OpenSegmentedBackend(dir string, cfg SegmentConfig) (*SegmentedBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open segmented backend %s: %w", dir, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open segmented backend %s: %w", dir, err)
	}
	var infos []SegmentInfo
	for _, e := range ents {
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		infos = append(infos, SegmentInfo{Path: filepath.Join(dir, e.Name()), FirstLSN: first})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].FirstLSN < infos[j].FirstLSN })
	for i := 1; i < len(infos); i++ {
		if infos[i].FirstLSN == infos[i-1].FirstLSN {
			return nil, fmt.Errorf("wal: segmented backend %s: duplicate segment first LSN %d", dir, infos[i].FirstLSN)
		}
	}
	b := &SegmentedBackend{dir: dir, cfg: cfg}
	for i := range infos {
		final := i == len(infos)-1
		f, err := os.OpenFile(infos[i].Path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %s: %w", infos[i].Path, err)
		}
		recs, clean, err := scanFileLog(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: scan segment %s: %w", infos[i].Path, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: stat segment %s: %w", infos[i].Path, err)
		}
		if !final && clean != st.Size() {
			f.Close()
			return nil, fmt.Errorf("wal: segment %s: torn tail in non-final segment (%d of %d bytes scan clean) — corruption, not crash repair",
				infos[i].Path, clean, st.Size())
		}
		if len(recs) > 0 && recs[0].LSN != infos[i].FirstLSN {
			f.Close()
			return nil, fmt.Errorf("wal: segment %s: first record LSN %d does not match segment name",
				infos[i].Path, recs[0].LSN)
		}
		if !final && len(recs) == 0 {
			f.Close()
			return nil, fmt.Errorf("wal: segment %s: empty non-final segment", infos[i].Path)
		}
		if len(b.replay) > 0 && len(recs) > 0 && recs[0].LSN != b.replay[len(b.replay)-1].LSN+1 {
			f.Close()
			return nil, fmt.Errorf("wal: segment %s: LSN %d out of sequence across segment boundary (want %d)",
				infos[i].Path, recs[0].LSN, b.replay[len(b.replay)-1].LSN+1)
		}
		b.replay = append(b.replay, recs...)
		if final {
			// Repair the (only legally tearable) tail and keep the handle
			// as the active segment.
			if err := f.Truncate(clean); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", infos[i].Path, err)
			}
			if _, err := f.Seek(clean, 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: seek %s: %w", infos[i].Path, err)
			}
			b.active = f
			b.actInf = SegmentInfo{Path: infos[i].Path, FirstLSN: infos[i].FirstLSN, Bytes: clean}
		} else {
			f.Close()
			b.sealed = append(b.sealed, SegmentInfo{Path: infos[i].Path, FirstLSN: infos[i].FirstLSN, Bytes: clean})
		}
	}
	return b, nil
}

// Dir returns the segment directory.
func (b *SegmentedBackend) Dir() string { return b.dir }

// Replay implements Replayer: the records that survived the crash, across
// all segments, in LSN order.
func (b *SegmentedBackend) Replay() []Record { return b.replay }

// Syncs returns the number of batches fsynced.
func (b *SegmentedBackend) Syncs() int64 { return b.syncs.Load() }

// DurableBytes returns the exact number of encoded log bytes across every
// live segment file — the ground truth the Log.Bytes accounting is
// asserted against.
func (b *SegmentedBackend) DurableBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, s := range b.sealed {
		n += s.Bytes
	}
	if b.active != nil {
		n += b.actInf.Bytes
	}
	return n
}

// Rotations returns the number of segment rotations performed since open.
func (b *SegmentedBackend) Rotations() int64 { return b.rotations.Load() }

// Segments returns a snapshot of the current segment layout, oldest first
// (the active segment last).
func (b *SegmentedBackend) Segments() []SegmentInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]SegmentInfo(nil), b.sealed...)
	if b.active != nil {
		out = append(out, b.actInf)
	}
	return out
}

// SegmentStarts implements Segmenter.
func (b *SegmentedBackend) SegmentStarts() []LSN {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]LSN, 0, len(b.sealed)+1)
	for _, s := range b.sealed {
		out = append(out, s.FirstLSN)
	}
	if b.active != nil {
		out = append(out, b.actInf.FirstLSN)
	}
	return out
}

// rotateLocked seals the active segment (if any) and opens a fresh one
// whose name is the first LSN it will hold. The new dirent is made durable
// before any batch is acknowledged against it: without the directory fsync
// a crash could lose the whole new segment — acknowledged commits with it.
func (b *SegmentedBackend) rotateLocked(first LSN) error {
	if b.active != nil {
		if err := b.active.Sync(); err != nil {
			return fmt.Errorf("wal: seal segment %s: %w", b.actInf.Path, err)
		}
		if err := b.active.Close(); err != nil {
			return fmt.Errorf("wal: seal segment %s: %w", b.actInf.Path, err)
		}
		b.sealed = append(b.sealed, b.actInf)
		b.active = nil
		b.rotations.Add(1)
	}
	path := filepath.Join(b.dir, segName(first))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	if err := syncDir(b.dir); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: create segment %s: directory sync: %w", path, err)
	}
	b.active = f
	b.actInf = SegmentInfo{Path: path, FirstLSN: first}
	return nil
}

// Sync implements Backend: rotate if the active segment is full (or absent),
// then encode the whole batch, append it to the active segment in one
// write, and fsync. A batch is never split across segments, so segment
// names tile the LSN space and a crash tears at most the final segment's
// tail.
func (b *SegmentedBackend) Sync(records []Record) error {
	if len(records) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("wal: sync on closed segmented backend %s", b.dir)
	}
	// Encode before any byte is written or any rotation happens, so an
	// unencodable record rejects the batch atomically.
	var batch strings.Builder
	for _, r := range records {
		line, err := encodeRecord(r)
		if err != nil {
			return err
		}
		batch.WriteString(line)
	}
	if b.active == nil || b.actInf.Bytes >= b.cfg.maxBytes() {
		if err := b.rotateLocked(records[0].LSN); err != nil {
			return err
		}
	}
	if _, err := b.active.WriteString(batch.String()); err != nil {
		return fmt.Errorf("wal: write %s: %w", b.actInf.Path, err)
	}
	if err := b.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", b.actInf.Path, err)
	}
	b.actInf.Bytes += int64(batch.Len())
	b.syncs.Add(1)
	return nil
}

// AlignTruncate implements Truncator: the greatest segment boundary
// at or below lsn — the point TruncateBefore can realize exactly by
// unlinking whole segments. With no segments (empty backend) lsn is
// returned unchanged (truncation is a no-op anyway).
func (b *SegmentedBackend) AlignTruncate(lsn LSN) LSN {
	b.mu.Lock()
	defer b.mu.Unlock()
	aligned := lsn
	first := true
	for _, s := range b.sealed {
		if s.FirstLSN <= lsn && (first || s.FirstLSN > aligned) {
			aligned, first = s.FirstLSN, false
		}
	}
	if b.active != nil && b.actInf.FirstLSN <= lsn && (first || b.actInf.FirstLSN > aligned) {
		aligned, first = b.actInf.FirstLSN, false
	}
	if first {
		return lsn
	}
	return aligned
}

// TruncateBefore implements Truncator by unlinking whole dead segments —
// segments whose every record has LSN strictly below lsn — oldest first,
// then fsyncing the directory. No data byte is ever rewritten: the
// boundary segment containing lsn (and everything after it) is left
// untouched, which is why Log.TruncateBefore aligns its in-memory
// truncation to AlignTruncate first. Crash atomicity is trivial: each
// unlink is atomic, a crash mid-pass leaves a shorter prefix of segments
// removed, and reopen scans whatever tile of segments survives.
func (b *SegmentedBackend) TruncateBefore(lsn LSN) (TruncateStats, error) {
	start := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	var stats TruncateStats
	if b.closed {
		return stats, fmt.Errorf("wal: truncate on closed segmented backend %s", b.dir)
	}
	// sealed[i] is dead iff the next segment starts at or below lsn (its
	// own records all precede that start). The active segment never dies.
	nextFirst := func(i int) LSN {
		if i+1 < len(b.sealed) {
			return b.sealed[i+1].FirstLSN
		}
		return b.actInf.FirstLSN // active exists whenever sealed is non-empty
	}
	dead := 0
	for dead < len(b.sealed) && nextFirst(dead) != 0 && nextFirst(dead) <= lsn {
		dead++
	}
	if dead == 0 {
		stats.WallNS = time.Since(start).Nanoseconds()
		return stats, nil
	}
	for i := 0; i < dead; i++ {
		if err := os.Remove(b.sealed[i].Path); err != nil {
			stats.WallNS = time.Since(start).Nanoseconds()
			return stats, fmt.Errorf("wal: unlink segment %s: %w", b.sealed[i].Path, err)
		}
		stats.SegmentsUnlinked++
	}
	b.sealed = append(b.sealed[:0:0], b.sealed[dead:]...)
	if err := syncDir(b.dir); err != nil {
		stats.WallNS = time.Since(start).Nanoseconds()
		return stats, fmt.Errorf("wal: truncate %s: directory sync: %w", b.dir, err)
	}
	stats.WallNS = time.Since(start).Nanoseconds()
	return stats, nil
}

// Close implements Backend. Idempotent.
func (b *SegmentedBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	if b.active == nil {
		return nil
	}
	if err := b.active.Sync(); err != nil {
		b.active.Close()
		return err
	}
	return b.active.Close()
}
