// Package wal is a fixture stub mirroring the engine's wal.Log staging
// surface (AppendAsync), matched by package and type name.
package wal

// Record is a stand-in log record.
type Record struct{ Kind int }

// Ticket names an asynchronous append awaiting durability.
type Ticket uint64

// Log mirrors the staging surface of the engine's wal.Log.
type Log struct{}

// AppendAsync stages a record for group commit.
func (l *Log) AppendAsync(r Record) (Ticket, error) { return 0, nil }
