package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/atomicity"
	"repro/internal/histfile"
	"repro/internal/history"
)

// TestScalingHistfileRoundTrip records the concurrent transfer workload on
// a many-shard engine, renders the merged history through histfile, parses
// it back, and re-verifies the parsed history: no event lost, still
// well-formed, still dynamic atomic.
func TestScalingHistfileRoundTrip(t *testing.T) {
	cfg := DefaultTransferConfig()
	cfg.Workers = 4
	cfg.TxnsPerWorker = 5
	cfg.Shards = 8
	cfg.Seed = 3
	cfg.Record = true
	e := NewTransferEngine(cfg, nil)
	RunTransfers(e, cfg)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	h := e.History()
	sp := cfg.BankAccount().Spec()
	f := &histfile.File{Specs: atomicity.Specs{}, H: h}
	names := map[history.ObjectID]string{}
	for _, obj := range h.Objects() {
		f.Specs[obj] = sp
		names[obj] = "bank-account"
	}
	var buf bytes.Buffer
	if err := histfile.Render(&buf, f, names); err != nil {
		t.Fatal(err)
	}
	parsed, err := histfile.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.H) != len(h) {
		t.Fatalf("round trip lost events: %d vs %d", len(parsed.H), len(h))
	}
	if err := history.WellFormed(parsed.H); err != nil {
		t.Fatalf("parsed history malformed: %v", err)
	}
	// The atomicity check replays against the in-code wide specs: the file
	// format resolves "bank-account" to the default window (initial balance
	// 0), which cannot describe a workload seeded at 1000.
	specs := atomicity.Specs{}
	for _, obj := range parsed.H.Objects() {
		specs[obj] = sp
	}
	rng := rand.New(rand.NewSource(23))
	da, viol, err := atomicity.DynamicAtomicSampled(parsed.H, specs, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !da {
		t.Fatalf("parsed history not dynamic atomic: %v", viol)
	}
}
