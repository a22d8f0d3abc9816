// Package histfile parses and renders histories in a simple line-oriented
// text format, so that counterexamples and engine traces can be saved,
// shared, and re-checked with cmd/histcheck.
//
// Format (one statement per line, '#' starts a comment):
//
//	object <id> <type>            # declare an object and its serial spec
//	invoke <obj> <txn> <inv>      # invocation event, e.g. deposit(3)
//	respond <obj> <txn> <res>     # response event, e.g. ok
//	commit <obj> <txn>
//	abort <obj> <txn>
//
// Types are the registered ADT names (bank-account, int-set, fifo-queue,
// kv-store, register, resource-pool).
package histfile

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/history"
	"repro/internal/spec"
)

// File is a parsed history file: the declared objects with their specs and
// the event sequence.
type File struct {
	Specs atomicity.Specs
	Types map[history.ObjectID]adt.Type
	H     history.History
}

// TypeByName resolves a registered ADT name.
func TypeByName(name string) (adt.Type, bool) {
	switch name {
	case "bank-account":
		return adt.DefaultBankAccount(), true
	case "int-set":
		return adt.DefaultIntSet(), true
	case "fifo-queue":
		return adt.DefaultFIFOQueue(), true
	case "kv-store":
		return adt.DefaultKVStore(), true
	case "register":
		return adt.DefaultRegister(), true
	case "resource-pool":
		return adt.DefaultResourcePool(), true
	case "escrow-counter":
		return adt.DefaultEscrowCounter(), true
	}
	return nil, false
}

// ParseInvocation parses "name" or "name(a,b)" into an Invocation.
func ParseInvocation(s string) (spec.Invocation, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if strings.ContainsAny(s, ") ,") {
			return spec.Invocation{}, fmt.Errorf("histfile: malformed invocation %q", s)
		}
		return spec.Invocation{Name: s}, nil
	}
	if !strings.HasSuffix(s, ")") {
		return spec.Invocation{}, fmt.Errorf("histfile: malformed invocation %q", s)
	}
	name := s[:open]
	args := s[open+1 : len(s)-1]
	if name == "" {
		return spec.Invocation{}, fmt.Errorf("histfile: malformed invocation %q", s)
	}
	return spec.Invocation{Name: name, Args: args}, nil
}

// Parse reads a history file.
func Parse(r io.Reader) (*File, error) {
	f := &File{
		Specs: atomicity.Specs{},
		Types: make(map[history.ObjectID]adt.Type),
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("histfile: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "object":
			if len(fields) != 3 {
				return nil, fail("object wants <id> <type>")
			}
			ty, ok := TypeByName(fields[2])
			if !ok {
				return nil, fail("unknown type %q", fields[2])
			}
			id := history.ObjectID(fields[1])
			f.Specs[id] = ty.Spec()
			f.Types[id] = ty
		case "invoke":
			if len(fields) != 4 {
				return nil, fail("invoke wants <obj> <txn> <invocation>")
			}
			inv, err := ParseInvocation(fields[3])
			if err != nil {
				return nil, fail("%v", err)
			}
			f.H = append(f.H, history.Event{
				Kind: history.Invoke,
				Obj:  history.ObjectID(fields[1]),
				Txn:  history.TxnID(fields[2]),
				Inv:  inv,
			})
		case "respond":
			if len(fields) != 4 {
				return nil, fail("respond wants <obj> <txn> <response>")
			}
			f.H = append(f.H, history.Event{
				Kind: history.Respond,
				Obj:  history.ObjectID(fields[1]),
				Txn:  history.TxnID(fields[2]),
				Res:  spec.Response(fields[3]),
			})
		case "commit", "abort":
			if len(fields) != 3 {
				return nil, fail("%s wants <obj> <txn>", fields[0])
			}
			kind := history.Commit
			if fields[0] == "abort" {
				kind = history.Abort
			}
			f.H = append(f.H, history.Event{
				Kind: kind,
				Obj:  history.ObjectID(fields[1]),
				Txn:  history.TxnID(fields[2]),
			})
		default:
			return nil, fail("unknown statement %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, x := range f.H.Objects() {
		if _, ok := f.Specs[x]; !ok {
			return nil, fmt.Errorf("histfile: object %q used but not declared", x)
		}
	}
	return f, nil
}
