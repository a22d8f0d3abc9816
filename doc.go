// Package repro is a full reproduction of William E. Weihl's "The Impact of
// Recovery on Concurrency Control" (PODS 1989; JCSS 47, 157–184, 1993) as a
// production-quality Go library.
//
// The library implements the paper's event-based transaction model, serial
// specifications as prefix-closed operation-sequence languages, exact
// decision procedures for the looks-like and equieffectiveness preorders and
// the forward/right-backward commutativity relations, the abstract atomic
// object I(X, Spec, View, Conflict) with the update-in-place (UIP) and
// deferred-update (DU) recovery abstractions, dynamic-atomicity checkers,
// and — on the systems side — an executable transaction engine with
// conflict-relation-driven strict operation locking, an undo-log (WAL)
// recovery manager realizing UIP, and an intentions-list recovery manager
// realizing DU. Both change object state in place: an ADT machine's Peek
// computes the response the lock is checked against without touching the
// state, and its Apply and Undo then change the one state the store — or
// a DU transaction's private workspace — owns, so a bank-account step
// allocates nothing and a set or map update costs O(1), not a copy.
//
// The engine is built to scale with cores while staying auditable: the
// object registry is one sync.Map, whose lookup takes no lock on the hit
// path and whose registration does not copy the registry. One recorder
// appends every event under the object latch, so Engine.History() is
// the single totally ordered history the checkers replay, and one
// deadlock detector holds the waits-for graph under one lock, taken only
// by a transaction that waits. The write-ahead log is
// group-committed in overlapping rounds: updates stage into one queue in
// ticket order; a round takes the whole queue (a consistent cut by
// construction), assigns it a contiguous LSN range and writes it
// to a pluggable durability backend — fsync-simulating, or the segmented
// files (wal.SegmentedBackend) that recovery.RestartAllWithConfig replays
// after a crash — then syncs it outside the flush lock, so the next round
// is written and synced while this one's sync still runs. Rounds complete
// in order, and a commit barrier is acknowledged only once its round and
// every earlier one are durable; a barrier whose records are not in the
// round in flight starts its own round instead of waiting that sync out.
// A durable log keeps no copy of what it hands the backend: restart reads
// only the records a freshly reopened log replayed from its backend, once,
// and refuses a log that has appended since it was opened. An engine built
// without a log gets wal.New(), a sink with no backend: it stamps and
// counts each record and keeps none, because an in-memory engine has
// nothing to restart from and live abort walks each store's own undo
// chain. Checkpointing and restart refuse such a log.
//
// Crash restart is transaction-atomic: Txn.Commit stages a single
// transaction-level commit record (wal.TxnCommitRec) after per-object
// commit processing and before releasing locks, and
// recovery.RestartAllWithConfig runs a two-pass presumed-abort protocol —
// transactions without a durable TxnCommitRec are losers at every object,
// however many per-object commit records survived. The crash-injection suites in internal/recovery prove,
// at every flush boundary, that exactly the transaction-granularity
// winners survive and that multi-object transfers are never recovered by
// halves. See internal/txn, internal/history, internal/wal, and
// internal/recovery.
//
// Locks release early, before the durability barrier. Every managed
// object publishes its last committed writer's WAL stage ticket, so a
// dependent's own barrier waits until the durable watermark covers its
// read-from set, and a dead backend cascades termination through the
// abort path instead of acknowledging commits the log will never contain. So no acknowledged commit ever reads from an
// unsynced loser, and no lock is held across a sync.
//
// Txn.Commit sweeps its participants in object-ID order and stages every
// per-object commit record under one WAL staging-queue acquisition
// (wal.Log.AppendBatchAsync — sound outside the checkpoint gate because
// restart decides by the transaction-level winner set, never by
// per-object commit records alone); the gate is held only for the
// discharge-to-TxnCommitRec decision window. Concurrent committers then
// release their locks in whatever order the schedule gives them, not in
// ticket order: correctness rests on the conflict relation, the recovery
// view and the commit point, and durability on the dependency tickets —
// a dependent's ticket is at least that of every commit it read from,
// and the durable watermark only advances over a ticket prefix.
//
// Restart cost is bounded by fuzzy checkpointing (internal/checkpoint,
// txn.Engine.Checkpoint): a checkpointer walks the registry once
// without stopping the world, capturing each undo-log object's
// state and in-flight transaction table under its latch and stamping the
// capture with a wal.CheckpointRec marker whose LSN splits that object's
// records into captured-versus-replayable; the snapshot is saved (write-
// temp-then-rename, torn checkpoints ignored on reopen) only after the
// durable watermark covers its last marker, and the log is then truncated
// before the checkpoint frontier (wal.TruncateBefore, clamped to the
// watermark). recovery.RestartAllWithConfig seeds object state from
// the newest snapshot and replays only the bounded suffix — the
// restart-time-versus-log-length trade-off, proven correct by crash
// injection at every boundary including mid-checkpoint crashes.
//
// The durable log itself is segmented (wal.SegmentedBackend, what
// txn.NewDurableEngine builds): records append to a size-bounded active
// segment file, rotation seals whole segments (a flush batch never spans
// one, so only the final segment can be torn by a crash — a torn earlier
// segment is corruption), and truncation unlinks dead segments below the
// frontier instead of rewriting the survivor — wal.TruncateStats counts
// the segments unlinked. Restart exploits the same structure in parallel
// (recovery.RestartAllWithConfig): the winner scan fans out one goroutine
// per segment and pass 2 hashes objects over a worker pool, with the
// recovered state, winner set, appended records, and stats bit-identical
// at every parallelism.
//
// Two logging disciplines share those seams (txn.Options.LogDiscipline).
// The default is undo logging — UIP's recovery half, everything above.
// wal.DisciplineRedo selects REDO-only dependency logging, the DU-shaped
// bargain over the same update-in-place execution: the durable log
// carries logical operation records with no undo payload (wal.RedoRec)
// plus each winner's commit-order dependency set on its TxnCommitRec,
// aborts log nothing, and restart (recovery.RestartAllWithConfig,
// dispatching on the log's own discipline marker) replays the winners-only
// projection forward — no undo pass, nothing appended, sound by Theorem
// 9's equieffectiveness under an NRBC-containing conflict relation. A
// log's first record brands its discipline (re-branded past every
// checkpoint frontier so truncation cannot erase it), and every seam —
// registration, restart, the record-kind audit, checkpoint agreement —
// rejects a mixed-discipline handoff loudly. The trade is fewer log bytes per commit and
// winners-only replay, paid for with dependency sets on commit records.
//
// # Observability
//
// The engine self-reports through internal/obs, a leaf package wired in
// by txn.Options.Obs: lock-free sharded power-of-two-bucket histograms
// over every commit phase (lock wait, WAL staging, barrier wait with the
// dependency-stall subset, commit-protocol lock hold, end-to-end latency,
// flush-round batch size and sync, checkpoint capture/save), sampled
// transaction-lifecycle tracing (deterministic splitmix64 sampling by
// transaction sequence number, exported as Chrome trace-event JSON
// loadable in chrome://tracing or Perfetto), and a unified introspection
// snapshot (txn.Engine.ObsSnapshot) folding engine counters, the WAL's
// single-sequence-point accounting (wal.Log.Stats), checkpoint progress,
// phase histograms, trace statistics, and — when a restart ran — the
// recovery.RestartStats into one JSON document. Every hook is
// nil-receiver-safe and the disabled path allocates nothing (0 allocs/op
// by testing.AllocsPerRun; sampling on leaves workload results
// byte-identical), and obs itself never reads the wall clock or
// math/rand — callers pass duration deltas, so the package sits inside
// detreplay's determinism scope.
//
// # Static invariants
//
// The disciplines above are conventions the compiler cannot check: a
// swallowed WAL error converts "durable" into "probably durable", a
// latch leaked on one error path wedges its object forever, a store
// mutation that precedes its record's staging leaves a crash window the
// log cannot explain, a wall-clock read or map-order iteration in
// restart breaks the bit-identical parallel-replay proof, and one plain
// access to an atomically-published field silently breaks its
// release/acquire protocol. internal/analysis promotes all five to
// machine-checked rules — a dependency-free go/analysis-style framework
// with analyzers walerr, locksafe, stagebeforemutate, detreplay, and
// atomicfield — driven by cmd/cclint both standalone (`go run
// ./cmd/cclint ./...`) and through `go vet -vettool`. Every finding must
// be fixed or silenced by a `//lint:ignore <analyzer> <justification>`
// comment; cclint counts the suppressions and reprints each
// justification in its summary, so silence stays auditable, and CI's
// lint job fails on any unsuppressed diagnostic.
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper, and cmd/ccbench prints the paper-artifact experiments.
// Engine performance — throughput, commit latency, allocations, and a
// per-layer breakdown across recovery method × conflict relation ×
// logging discipline — is measured by bench/ (run `bash bench/run.sh`;
// BENCHMARK.json declares its workloads and bounds). See EXPERIMENTS.md
// for the methodology and the recorded results.
package repro
