package histfile

// Render is the write side of the file format, for the tests that save a
// recorded history and parse it back.

import (
	"fmt"
	"io"

	"repro/internal/history"
)

// Render writes the history back in file format.
func Render(w io.Writer, f *File, typeNames map[history.ObjectID]string) error {
	for _, x := range f.H.Objects() {
		name := typeNames[x]
		if name == "" {
			name = "bank-account"
		}
		if _, err := fmt.Fprintf(w, "object %s %s\n", x, name); err != nil {
			return err
		}
	}
	for _, e := range f.H {
		var err error
		switch e.Kind {
		case history.Invoke:
			_, err = fmt.Fprintf(w, "invoke %s %s %s\n", e.Obj, e.Txn, e.Inv)
		case history.Respond:
			_, err = fmt.Fprintf(w, "respond %s %s %s\n", e.Obj, e.Txn, e.Res)
		case history.Commit:
			_, err = fmt.Fprintf(w, "commit %s %s\n", e.Obj, e.Txn)
		case history.Abort:
			_, err = fmt.Fprintf(w, "abort %s %s\n", e.Obj, e.Txn)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
