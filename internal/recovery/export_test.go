package recovery

// RedoOnly reports whether the store logs under the REDO-only discipline,
// for the external crash tests' check of the discipline restart chose.
func (u *UndoLog) RedoOnly() bool { return u.redoOnly }
