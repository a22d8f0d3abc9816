package main

import (
	"slices"

	"repro/internal/obs"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a caller of the engine sees, with the share of
// the parent's median by which each may worsen. They are measured with
// tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commits_per_s", "1/s", "higher", 0.25},
	{"commit_p50_us", "us", "lower", 0.25},
	{"commit_p99_us", "us", "lower", 0.25},
	{"allocs_per_commit", "count", "lower", 0.03},
	{"cpu_us_per_commit", "us", "lower", 0.25},
}

// durableOnly are end-to-end metrics that exist on the durable workloads
// only. The driver's contract wants every end-to-end metric on every
// workload, so BENCHMARK.json lists these two among the per-layer metrics
// (0 on hot-*); `bench -compare` still holds them to these bounds.
var durableOnly = []metricDef{
	{"restart_s", "s", "lower", 0.15},
	{"log_bytes_per_commit", "count", "lower", 0.01},
}

// gated is every metric `bench -compare` holds to a bound.
var gated = slices.Concat(endToEnd, durableOnly)

// perLayer are the metrics of single layers, taken from traced rounds. The
// prefix is the module the number belongs to.
var perLayer = []metricDef{
	{Name: "restart_s", Unit: "s", Better: "lower"},
	{Name: "log_bytes_per_commit", Unit: "count", Better: "lower"},
	{Name: "restart_spans_s", Unit: "s", Better: "lower"},

	{Name: "txn.begin_us", Unit: "us", Better: "lower"},
	{Name: "txn.begin_p50_us", Unit: "us", Better: "lower"},
	{Name: "txn.invoke_us", Unit: "us", Better: "lower"},
	{Name: "txn.invoke_p50_us", Unit: "us", Better: "lower"},
	{Name: "txn.commit_us", Unit: "us", Better: "lower"},
	{Name: "txn.commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "txn.abort_us", Unit: "us", Better: "lower"},
	{Name: "txn.abort_p50_us", Unit: "us", Better: "lower"},
	{Name: "txn.client_share.invoke", Unit: "ratio", Better: "lower"},
	{Name: "txn.client_share.think", Unit: "ratio", Better: "higher"},
	{Name: "txn.client_share.commit", Unit: "ratio", Better: "lower"},
	{Name: "txn.client_share.retry", Unit: "ratio", Better: "lower"},
	{Name: "txn.client_share.sum", Unit: "ratio", Better: "higher"},

	{Name: "locking.blocked_ratio", Unit: "ratio", Better: "lower"},
	{Name: "locking.block_events_per_op", Unit: "ratio", Better: "lower"},
	{Name: "locking.deadlock_retries_per_txn", Unit: "ratio", Better: "lower"},
	{Name: "locking.wait_us_per_txn", Unit: "us", Better: "lower"},

	{Name: "stripe.registry_lock_acqs", Unit: "count", Better: "lower"},

	{Name: "recovery.abort_us", Unit: "us", Better: "lower"},

	{Name: "wal.records_per_commit", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "count", Better: "lower"},
	{Name: "wal.flushes_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "wal.records_per_flush", Unit: "count", Better: "higher"},
	{Name: "wal.stripe_acqs_per_commit", Unit: "count", Better: "lower"},
	{Name: "wal.stage_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "wal.barrier_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us_per_flush", Unit: "us", Better: "lower"},
	{Name: "wal.open_us_per_krec", Unit: "us", Better: "lower"},

	{Name: "recovery.replayed_records", Unit: "count", Better: "lower"},
	{Name: "recovery.skipped_records", Unit: "count", Better: "higher"},
	{Name: "recovery.undone_records", Unit: "count", Better: "lower"},
	{Name: "recovery.pass1_us", Unit: "us", Better: "lower"},
	{Name: "recovery.pass2_us", Unit: "us", Better: "lower"},
	{Name: "recovery.replay_us_per_krec", Unit: "us", Better: "lower"},

	{Name: "checkpoint.cycles", Unit: "count", Better: "higher"},
	{Name: "checkpoint.call_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.truncated_records", Unit: "count", Better: "higher"},
	{Name: "checkpoint.segments_unlinked", Unit: "count", Better: "higher"},
	{Name: "checkpoint.bytes_rewritten", Unit: "count", Better: "lower"},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.commit_p99_during_us", Unit: "us", Better: "lower"},

	{Name: "device.syncs", Unit: "count", Better: "lower"},
	{Name: "device.bytes_per_sync", Unit: "count", Better: "higher"},

	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
}

// estimator is the summarize argument for an end-to-end metric: a time or a
// rate reports the quartile on its better side, because the sandbox only
// ever slows a round down; a count varies both ways and reports its median.
func (d metricDef) estimator() string {
	if d.Unit == "count" {
		return ""
	}
	return d.Better
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(ns float64) float64 { return ns / 1e3 }

// layerMetrics derives one traced round's per-layer numbers from the
// driver's spans and from the counters the engine, the log and restart
// report at the same boundaries. obs.overhead_pct is a property of the
// whole run and is filled in by the caller.
func layerMetrics(w *workload, res *roundResult, snap obs.Snapshot, cs []*client, aux *spanLog, ck *checkpointer, rs restarted) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	commits := float64(res.commits)

	// txn: the driver's spans around Begin, Invoke, Commit and Abort, and
	// where each client's wall time went. A span counts towards invoke,
	// think or commit when its attempt committed; every attempt that did
	// not commit counts whole as retry, and so does the back-off after it.
	var begin, invoke, commit, victim []int64
	var wall, inInvoke, inThink, inCommit, inRetry float64
	type interval struct{ start, end int64 }
	var committedTxns []interval
	for _, c := range cs {
		wall += float64(c.wallNS)
		begin = append(begin, c.log.durations(spanBegin)...)
		invoke = append(invoke, c.log.durations(spanInvoke)...)
		commit = append(commit, c.log.durations(spanCommit)...)
		victim = append(victim, c.log.durations(spanVictim)...)
		for _, s := range c.log.spans {
			d := float64(s.end - s.start)
			switch {
			case s.kind == spanTxn && s.committed:
				committedTxns = append(committedTxns, interval{s.start, s.end})
			case s.kind == spanTxn, s.kind == spanBackoff:
				inRetry += d
			case !c.log.spans[s.parent].committed:
			case s.kind == spanInvoke:
				inInvoke += d
			case s.kind == spanThink:
				inThink += d
			case s.kind == spanCommit:
				inCommit += d
			}
		}
	}
	abort := aux.durations(spanAbort)
	for name, d := range map[string][]int64{"begin": begin, "invoke": invoke, "commit": commit, "abort": abort} {
		slices.Sort(d)
		m["txn."+name+"_us"] = us(meanInt64(d))
		m["txn."+name+"_p50_us"] = us(float64(percentile(d, 50)))
	}
	m["txn.client_share.invoke"] = ratio(inInvoke, wall)
	m["txn.client_share.think"] = ratio(inThink, wall)
	m["txn.client_share.commit"] = ratio(inCommit, wall)
	m["txn.client_share.retry"] = ratio(inRetry, wall)
	m["txn.client_share.sum"] = ratio(inInvoke+inThink+inCommit+inRetry, wall)

	// locking: how often a request found a conflicting holder.
	ops := float64(snap.Engine.Operations)
	m["locking.blocked_ratio"] = ratio(float64(snap.Engine.Blocked), ops)
	m["locking.block_events_per_op"] = ratio(float64(snap.Engine.BlockEvents), ops)
	m["locking.deadlock_retries_per_txn"] = ratio(float64(res.retries), float64(res.attempted))
	m["stripe.registry_lock_acqs"] = float64(snap.Engine.RegistryLockAcqs)
	// recovery (stores): what undoing a victim costs, as far as the outside
	// can see it — the Invoke that returned the deadlock abort.
	m["recovery.abort_us"] = us(meanInt64(victim))

	// wal: records, bytes and flusher rounds per acknowledged commit.
	// Bytes are the retained log's mean record size times the records
	// appended, so a truncating workload is not under-counted.
	ws := snap.WAL
	recBytes := ratio(float64(ws.Bytes), float64(ws.Records))
	m["wal.records_per_commit"] = ratio(float64(ws.FlushedRecords), commits)
	m["wal.bytes_per_commit"] = ratio(recBytes*float64(ws.FlushedRecords), commits)
	m["wal.flushes_per_commit"] = ratio(float64(ws.Flushes), commits)
	m["wal.records_per_flush"] = ratio(float64(ws.FlushedRecords), float64(ws.Flushes))
	m["wal.stripe_acqs_per_commit"] = ratio(float64(ws.StripeAcquisitions), commits)
	if p := snap.Phases; p != nil {
		m["locking.wait_us_per_txn"] = us(ratio(float64(p.LockWait.Sum), commits))
		m["wal.stage_us_per_commit"] = us(ratio(float64(p.WALStage.Sum), commits))
		m["wal.barrier_us_per_commit"] = us(ratio(float64(p.BarrierWait.Sum), commits))
		m["wal.sync_us_per_flush"] = us(p.FlushSync.Mean())
	}
	if !w.durable {
		return m
	}

	// device: one write + one fsync per flusher round. These are the
	// sandbox's file system, not a disk.
	m["device.syncs"] = float64(ws.Flushes)
	m["device.bytes_per_sync"] = ratio(recBytes*float64(ws.FlushedRecords), float64(ws.Flushes))

	// recovery (restart) and the phases of restart_s.
	var spans float64
	for _, k := range []spanKind{spanWALOpen, spanCkptLoad, spanRestart} {
		for _, d := range aux.durations(k) {
			spans += float64(d)
		}
	}
	m["restart_s"] = float64(res.restartNS) / 1e9
	m["restart_spans_s"] = spans / 1e9
	if ck == nil {
		m["log_bytes_per_commit"] = ratio(float64(res.logBytes), commits)
	}
	m["wal.open_us_per_krec"] = us(ratio(meanInt64(aux.durations(spanWALOpen)), float64(rs.logRecords)/1e3))
	m["recovery.replayed_records"] = float64(rs.stats.Replayed)
	m["recovery.skipped_records"] = float64(rs.stats.Skipped)
	m["recovery.undone_records"] = float64(rs.stats.Undone)
	m["recovery.pass1_us"] = us(float64(rs.stats.Pass1NS))
	m["recovery.pass2_us"] = us(float64(rs.stats.Pass2NS))
	m["recovery.replay_us_per_krec"] = us(ratio(meanInt64(aux.durations(spanRestart)), float64(rs.stats.Replayed)/1e3))
	m["checkpoint.load_ms"] = meanInt64(aux.durations(spanCkptLoad)) / 1e6

	// checkpoint: the background work and the foreground commits it
	// overlapped.
	if ck != nil {
		m["checkpoint.cycles"] = float64(ck.cycles)
		m["checkpoint.call_ms"] = meanInt64(aux.durations(spanCheckpoint)) / 1e6
		m["checkpoint.truncated_records"] = float64(snap.Checkpoint.TruncatedRecords)
		m["checkpoint.segments_unlinked"] = float64(ws.TruncSegmentsUnlinked)
		m["checkpoint.bytes_rewritten"] = float64(ws.TruncBytesRewritten)
		var during []int64
		for _, s := range aux.spans {
			if s.kind != spanCheckpoint {
				continue
			}
			for _, t := range committedTxns {
				if t.start < s.end && s.start < t.end {
					during = append(during, t.end-t.start)
				}
			}
		}
		slices.Sort(during)
		m["checkpoint.commit_p99_during_us"] = us(float64(percentile(during, 99)))
	}
	return m
}
