// Package wal is a fixture stub mirroring the engine's wal.Log method
// set: walerr matches by package name and type name, so this stand-in
// exercises the analyzer without importing the real engine.
package wal

// Record is a stand-in log record.
type Record struct{ Kind int }

// LSN is a log sequence number.
type LSN uint64

// Ticket names an asynchronous append awaiting durability.
type Ticket uint64

// Log mirrors the error-returning surface of the engine's wal.Log.
type Log struct{}

// TicketLSN names a ticket's LSN; it cannot fail (no error result).
func (l *Log) TicketLSN(t Ticket) LSN { return 0 }

// AppendAsync stages a record for group commit.
func (l *Log) AppendAsync(r Record) (Ticket, error) { return 0, nil }

// Flush forces staged records to the backend.
func (l *Log) Flush() error { return nil }

// WaitDurable blocks until the ticket's batch is durable.
func (l *Log) WaitDurable(t Ticket) error { return nil }

// Close seals the log.
func (l *Log) Close() error { return nil }

// Err reports the log's sticky error.
func (l *Log) Err() error { return nil }
