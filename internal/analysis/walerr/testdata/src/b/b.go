// Package b holds walerr's passing fixtures: every sanctioned way of
// consuming a wal.Log error, plus the no-error methods walerr must not
// touch.
package b

import "wal"

func checked(l *wal.Log) error {
	if err := l.Flush(); err != nil {
		return err
	}
	return nil
}

func propagated(l *wal.Log) error {
	return l.Flush()
}

func boundAndWaited(l *wal.Log) (wal.Ticket, error) {
	t, err := l.AppendAsync(wal.Record{})
	if err != nil {
		return 0, err
	}
	return t, l.WaitDurable(t)
}

// joined mirrors the engine's error-join idiom on secondary failures.
func joined(l *wal.Log, primary error) error {
	if cerr := l.Close(); cerr != nil && primary == nil {
		primary = cerr
	}
	return primary
}

// ticketLSNHasNoError: TicketLSN returns only an LSN, so a bare call is fine.
func ticketLSNHasNoError(l *wal.Log) {
	l.TicketLSN(0)
}
