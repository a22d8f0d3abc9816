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
// A batch is written under the log's flush lock and fsynced outside it,
// so fsyncs of the active segment may overlap each other and the next
// batch's write. Overlapping fsyncs go through distinct open file
// descriptions of the segment, all opened before its first write: Linux
// reports a write-back error once per file description, so two fsyncs
// sharing one could hand a failure of one batch's pages to the other
// batch's fsync and let the first return nil. With one description per
// running fsync, each sees every error since its description's previous
// fsync, and that fsync recorded any error it saw before releasing the
// description. Sealing a segment — on rotation or Close — waits for every
// fsync running against it, then fsyncs and closes it: a batch whose own
// fsync had not started by then is covered by the seal's.
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
	"time"
)

// DefaultSegmentBytes is the rotation threshold when SegmentConfig leaves
// MaxSegmentBytes zero.
const DefaultSegmentBytes = 4 << 20

// segSyncFiles is the number of open file descriptions of the active
// segment that fsyncs run through, and so the number of fsyncs that can
// overlap; a further Sync waits for one to come free.
const segSyncFiles = 4

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// TruncateStats describes the storage cost of backend truncation:
// SegmentsUnlinked counts whole segment files deleted, and WallNS is the
// wall-clock spent inside the backend call. Log.Stats reports their sum
// across a log's lifetime (Stats.Truncate).
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

// segmentInfo describes one segment file.
type segmentInfo struct {
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

// segFile is what the backend does with an open segment file.
type segFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// openSegFile opens a segment file on the real file system.
func openSegFile(path string, flag int) (segFile, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// SegmentedBackend implements Backend over a directory of rotated segment
// files. See the file comment for the design; it additionally implements
// Replayer, Truncator, and Segmenter.
type SegmentedBackend struct {
	mu  sync.Mutex
	dir string
	cfg SegmentConfig
	// open opens segment files (openSegFile; a test substitutes a model
	// of a device's write-back error reporting).
	open func(path string, flag int) (segFile, error)
	// sealed are the rotated (read-only) segments, ascending FirstLSN;
	// active is the open tail segment (nil until the first batch), written
	// through this handle.
	sealed []segmentInfo
	active segFile
	actInf segmentInfo
	// replay and sizes are the records a reopen scanned and each one's
	// encoded size, until Replay hands them over.
	replay []Record
	sizes  []int64
	closed bool
	// syncFiles are the active segment's file descriptions that no fsync
	// is using (active among them); syncing counts the fsyncs running
	// outside mu. idle is signalled whenever an fsync finishes: a seal
	// waits for syncing to reach zero, a Sync for a free description.
	syncFiles []segFile
	syncing   int
	idle      sync.Cond
	// err is the first failed fsync or seal. Once set, every Sync fails
	// with it: no batch written before the failure can be vouched for, and
	// a later successful fsync does not prove the earlier pages reached
	// the disk.
	err error
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
	return newSegmentedBackend(dir, cfg), nil
}

func newSegmentedBackend(dir string, cfg SegmentConfig) *SegmentedBackend {
	b := &SegmentedBackend{dir: dir, cfg: cfg, open: openSegFile}
	b.idle.L = &b.mu
	return b
}

// activate makes f, just opened on the segment at path and not yet
// written, the active segment, and opens the rest of its sync file
// descriptions. They exist before the segment's first write, so each
// reports every write-back error of the segment's pages.
func (b *SegmentedBackend) activate(f segFile, path string, info segmentInfo) error {
	files := append(b.syncFiles[:0], f)
	for len(files) < segSyncFiles {
		g, err := b.open(path, os.O_WRONLY)
		if err != nil {
			for _, h := range files[1:] {
				h.Close()
			}
			clear(files)
			b.syncFiles = files[:0]
			return fmt.Errorf("wal: open segment %s for sync: %w", path, err)
		}
		files = append(files, g)
	}
	b.syncFiles = files
	b.active, b.actInf = f, info
	return nil
}

// OpenSegmentedBackend re-opens an existing segmented log after a crash:
// segments are scanned in LSN order, LSN continuity is verified within and
// across segments, the final segment's torn tail (if any) is truncated
// away, and a torn non-final segment is rejected as corruption — a crash
// of this writer can only tear the tail of the last segment, because a
// later segment exists only after its predecessors were fsynced complete.
// The scanned records are handed over by Replay; new batches append to the
// final segment.
func OpenSegmentedBackend(dir string, cfg SegmentConfig) (*SegmentedBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open segmented backend %s: %w", dir, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open segmented backend %s: %w", dir, err)
	}
	var infos []segmentInfo
	for _, e := range ents {
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		infos = append(infos, segmentInfo{Path: filepath.Join(dir, e.Name()), FirstLSN: first})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].FirstLSN < infos[j].FirstLSN })
	for i := 1; i < len(infos); i++ {
		if infos[i].FirstLSN == infos[i-1].FirstLSN {
			return nil, fmt.Errorf("wal: segmented backend %s: duplicate segment first LSN %d", dir, infos[i].FirstLSN)
		}
	}
	b := newSegmentedBackend(dir, cfg)
	for i := range infos {
		final := i == len(infos)-1
		f, err := os.OpenFile(infos[i].Path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %s: %w", infos[i].Path, err)
		}
		recs, sizes, clean, err := scanFileLog(f)
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
		if b.replay == nil {
			b.replay, b.sizes = recs, sizes
		} else {
			b.replay = append(b.replay, recs...)
			b.sizes = append(b.sizes, sizes...)
		}
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
			if err := b.activate(f, infos[i].Path, segmentInfo{Path: infos[i].Path, FirstLSN: infos[i].FirstLSN, Bytes: clean}); err != nil {
				f.Close()
				return nil, err
			}
		} else {
			f.Close()
			b.sealed = append(b.sealed, segmentInfo{Path: infos[i].Path, FirstLSN: infos[i].FirstLSN, Bytes: clean})
		}
	}
	return b, nil
}

// Replay implements Replayer: the records that survived the crash, across
// all segments, in LSN order, with the line length each was scanned from.
// The backend hands them over once and keeps no reference (Open adopts
// them as the log's committed region); a second call returns nil.
func (b *SegmentedBackend) Replay() ([]Record, []int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	recs, sizes := b.replay, b.sizes
	b.replay, b.sizes = nil, nil
	return recs, sizes
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

// sealLocked waits for every fsync running against the active segment,
// then fsyncs and closes it, moving it to the sealed list. A failure is
// sticky (see err): the batches written into the segment since its last
// completed fsync are lost with it.
func (b *SegmentedBackend) sealLocked() error {
	for b.syncing > 0 {
		b.idle.Wait()
	}
	err := b.active.Sync()
	for _, f := range b.syncFiles {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	clear(b.syncFiles)
	b.syncFiles = b.syncFiles[:0]
	b.sealed = append(b.sealed, b.actInf)
	b.active, b.actInf = nil, segmentInfo{}
	if err != nil {
		err = fmt.Errorf("wal: seal segment %s: %w", b.sealed[len(b.sealed)-1].Path, err)
		if b.err == nil {
			b.err = err
		}
		return err
	}
	return nil
}

// rotateLocked seals the active segment (if any) and opens a fresh one
// whose name is the first LSN it will hold. The new dirent is made durable
// before any batch is acknowledged against it: without the directory fsync
// a crash could lose the whole new segment — acknowledged commits with it.
func (b *SegmentedBackend) rotateLocked(first LSN) error {
	if b.active != nil {
		if err := b.sealLocked(); err != nil {
			return err
		}
	}
	path := filepath.Join(b.dir, segName(first))
	f, err := b.open(path, os.O_RDWR|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	if err := syncDir(b.dir); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: create segment %s: directory sync: %w", path, err)
	}
	if err := b.activate(f, path, segmentInfo{Path: path, FirstLSN: first}); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return nil
}

// Write implements Backend: rotate if the active segment is full (or
// absent), then append the batch's encoded frame to the active segment in
// one write. A batch is never split across segments, so segment names tile
// the LSN space and a crash tears at most the final segment's tail.
func (b *SegmentedBackend) Write(records []Record, frame []byte) error {
	if len(records) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("wal: write on closed segmented backend %s", b.dir)
	}
	if b.err != nil {
		return b.err
	}
	if b.active == nil || b.actInf.Bytes >= b.cfg.maxBytes() {
		if err := b.rotateLocked(records[0].LSN); err != nil {
			return err
		}
		// A Sync may have failed while the seal waited for it.
		if b.err != nil {
			return b.err
		}
	}
	if _, err := b.active.Write(frame); err != nil {
		return fmt.Errorf("wal: write %s: %w", b.actInf.Path, err)
	}
	b.actInf.Bytes += int64(len(frame))
	return nil
}

// Sync implements Backend by fsyncing the active segment outside mu, so it
// overlaps other Syncs and the next Write. Each running fsync holds its
// own file description of the segment (see the file comment), so it
// reports every write-back error since that description's previous fsync,
// and that fsync, which finished before this one began, left any error it
// saw in err. Batches written into an older segment were covered by that
// segment's seal, which completed before the rotating Write returned.
func (b *SegmentedBackend) Sync() error {
	b.mu.Lock()
	for b.err == nil && b.active != nil && len(b.syncFiles) == 0 {
		b.idle.Wait()
	}
	if b.err != nil || b.active == nil {
		defer b.mu.Unlock()
		return b.err
	}
	f := b.syncFiles[len(b.syncFiles)-1]
	b.syncFiles = b.syncFiles[:len(b.syncFiles)-1]
	path := b.actInf.Path
	b.syncing++
	b.mu.Unlock()
	err := f.Sync()
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("wal: fsync %s: %w", path, err)
		if b.err == nil {
			b.err = err
		}
	}
	// The description goes back only with its error recorded.
	b.syncFiles = append(b.syncFiles, f)
	b.syncing--
	b.idle.Broadcast()
	if err != nil {
		return err
	}
	return b.err
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
		return b.actInf.FirstLSN // 0 once Close or a failed seal left no active segment
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

// Close implements Backend: it seals the active segment, after the fsyncs
// running against it finish. Idempotent.
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
	return b.sealLocked()
}
