package adt

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/commute"
	"repro/internal/spec"
)

// KVStore is a key-value store: put(k,v) overwrites, get(k) returns the
// value or "nil", del(k) removes (total: deleting an absent key succeeds).
// Operations on distinct keys commute in both senses; on the same key,
// put/put and put/get order, giving the familiar per-key write/read
// conflict structure of record stores.
type KVStore struct {
	// Keys and Values bound the window specification's alphabet.
	Keys   []string
	Values []string
}

// DefaultKVStore returns the configuration used in tests:
// keys {x, y}, values {0, 1}.
func DefaultKVStore() KVStore {
	return KVStore{Keys: []string{"x", "y"}, Values: []string{"0", "1"}}
}

// Put builds the put(k,v) invocation.
func Put(k, v string) spec.Invocation { return spec.NewInvocation("put", k, v) }

// Get builds the get(k) invocation.
func Get(k string) spec.Invocation { return spec.NewInvocation("get", k) }

// Del builds the del(k) invocation.
func Del(k string) spec.Invocation { return spec.NewInvocation("del", k) }

// PutOk is [put(k,v), ok].
func PutOk(k, v string) spec.Operation { return spec.Op(Put(k, v), "ok") }

// GetIs is [get(k), v]; use "nil" for an unset key.
func GetIs(k, v string) spec.Operation { return spec.Op(Get(k), spec.Response(v)) }

// DelOk is [del(k), ok].
func DelOk(k string) spec.Operation { return spec.Op(Del(k), "ok") }

// Name implements Type.
func (KVStore) Name() string { return "kv-store" }

func encodeKV(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return "<" + strings.Join(parts, ",") + ">"
}

func decodeKV(s string) (map[string]string, error) {
	if !strings.HasPrefix(s, "<") || !strings.HasSuffix(s, ">") {
		return nil, fmt.Errorf("adt: malformed kv state %q", s)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(s, "<"), ">")
	m := make(map[string]string)
	if body == "" {
		return m, nil
	}
	for _, p := range strings.Split(body, ",") {
		kv := strings.SplitN(p, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("adt: malformed kv pair %q", p)
		}
		m[kv[0]] = kv[1]
	}
	return m, nil
}

// Spec implements Type: an exact finite specification over assignments of
// the key alphabet to values (or unset).
func (t KVStore) Spec() spec.Enumerable {
	var ops []spec.Operation
	for _, k := range t.Keys {
		for _, v := range t.Values {
			ops = append(ops, PutOk(k, v), GetIs(k, v))
		}
		ops = append(ops, GetIs(k, "nil"), DelOk(k))
	}
	return &spec.FuncSpec{
		SpecName: t.Name(),
		Start:    []string{encodeKV(map[string]string{})},
		Ops:      ops,
		NextFunc: func(state string, op spec.Operation) []string {
			m, err := decodeKV(state)
			if err != nil {
				return nil
			}
			key, val := kvArgs(op.Inv.Args)
			switch op.Inv.Name {
			case "put":
				m[key] = val
				return []string{encodeKV(m)}
			case "get":
				cur, ok := m[key]
				if !ok {
					cur = "nil"
				}
				if string(op.Res) != cur {
					return nil
				}
				return []string{state}
			case "del":
				delete(m, key)
				return []string{encodeKV(m)}
			}
			return nil
		},
	}
}

// Checker builds a commute.Checker over the exact finite spec.
func (t KVStore) Checker() *commute.Checker { return commute.NewChecker(t.Spec()) }

// NFC implements Type; derived exactly from the window specification.
func (t KVStore) NFC() commute.Relation { return t.Checker().NFCRelation() }

// NRBC implements Type; derived exactly from the window specification.
func (t KVStore) NRBC() commute.Relation { return t.Checker().NRBCRelation() }

// RW implements Type: get is the read operation.
func (t KVStore) RW() commute.Relation {
	return readOnlyRelation(t.Name(), func(op spec.Operation) bool {
		return op.Inv.Name == "get"
	})
}

// Machine implements Type.
func (t KVStore) Machine() Machine { return kvMachine{} }

// KVValue is the runtime state of a KVStore, changed in place.
type KVValue map[string]string

// Clone implements Value.
func (v KVValue) Clone() Value {
	out := make(KVValue, len(v))
	out.CopyFrom(v)
	return out
}

// CopyFrom implements Value.
func (v KVValue) CopyFrom(src Value) {
	clear(v)
	for k, val := range src.(KVValue) {
		v[k] = val
	}
}

// Encode implements Value.
func (v KVValue) Encode() string { return encodeKV(v) }

type kvMachine struct{}

// kvArgs returns the first two comma-separated fields of an invocation's
// arguments: the key, and for put the value. It reads them in place, so a
// step allocates nothing for its arguments.
func kvArgs(args string) (key, val string) {
	key, rest, _ := strings.Cut(args, ",")
	val, _, _ = strings.Cut(rest, ",")
	return key, val
}

func (kvMachine) Name() string { return "kv-store" }

func (kvMachine) Init() Value { return KVValue{} }

func (kvMachine) Peek(v Value, inv spec.Invocation) (spec.Response, error) {
	m, err := stateOf[KVValue](v, "kv-store")
	if err != nil {
		return "", err
	}
	switch inv.Name {
	case "put", "del":
		return "ok", nil
	case "get":
		key, _ := kvArgs(inv.Args)
		cur, ok := m[key]
		if !ok {
			cur = "nil"
		}
		return spec.Response(cur), nil
	}
	return "", fmt.Errorf("adt: kv-store: unknown invocation %s", inv)
}

func (kvMachine) Apply(v Value, op spec.Operation) error {
	m, err := stateOf[KVValue](v, "kv-store")
	if err != nil {
		return err
	}
	key, val := kvArgs(op.Inv.Args)
	switch op.Inv.Name {
	case "put":
		m[key] = val
	case "del":
		delete(m, key)
	case "get":
	default:
		return fmt.Errorf("adt: kv-store: cannot apply %s", op)
	}
	return nil
}

// DecodeValue implements ValueCodec: the canonical sorted key=value
// encoding round-trips through decodeKV.
func (kvMachine) DecodeValue(s string) (Value, error) {
	m, err := decodeKV(s)
	if err != nil {
		return nil, fmt.Errorf("adt: kv-store: bad encoded state %q: %w", s, err)
	}
	return KVValue(m), nil
}

// Undo for a KV store is not purely logical: undoing a put requires the
// overwritten value. The recovery managers therefore capture the key's
// before-image (CaptureBefore) and undo through UndoWithBefore. For the
// plain Machine interface, Undo of put/del is unsupported and returns an
// error.
func (kvMachine) Undo(v Value, op spec.Operation) error {
	if _, err := stateOf[KVValue](v, "kv-store"); err != nil {
		return err
	}
	if op.Inv.Name == "get" {
		return nil
	}
	return fmt.Errorf("adt: kv-store: %s requires before-value undo", op)
}

// kvBefore is the before-image of a single key's cell.
type kvBefore struct {
	key     string
	val     string
	present bool
}

// CaptureBefore implements BeforeImageUndoer: puts and dels capture the
// affected key's previous cell; gets capture nothing.
func (kvMachine) CaptureBefore(v Value, inv spec.Invocation) any {
	if inv.Name == "get" {
		return nil
	}
	m, ok := v.(KVValue)
	if !ok {
		return nil
	}
	key, _ := kvArgs(inv.Args)
	val, present := m[key]
	return kvBefore{key: key, val: val, present: present}
}

// UndoWithBefore implements BeforeImageUndoer: restores the single affected
// key's cell in place, leaving concurrent updates to other keys intact.
func (kvMachine) UndoWithBefore(v Value, op spec.Operation, before any) error {
	m, err := stateOf[KVValue](v, "kv-store")
	if err != nil {
		return err
	}
	if op.Inv.Name == "get" {
		return nil
	}
	b, ok := before.(kvBefore)
	if !ok {
		return fmt.Errorf("adt: kv-store: bad before-image %T", before)
	}
	if b.present {
		m[b.key] = b.val
	} else {
		delete(m, b.key)
	}
	return nil
}

// kvBeforeWire is the durable rendering of kvBefore.
type kvBeforeWire struct {
	Key     string `json:"k"`
	Val     string `json:"v"`
	Present bool   `json:"p"`
}

// EncodeUndoToken implements UndoTokenCodec.
func (kvMachine) EncodeUndoToken(tok any) (string, error) {
	b, ok := tok.(kvBefore)
	if !ok {
		return "", fmt.Errorf("adt: kv-store: cannot encode undo token %T", tok)
	}
	buf, err := json.Marshal(kvBeforeWire{Key: b.key, Val: b.val, Present: b.present})
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// DecodeUndoToken implements UndoTokenCodec.
func (kvMachine) DecodeUndoToken(s string) (any, error) {
	var w kvBeforeWire
	if err := json.Unmarshal([]byte(s), &w); err != nil {
		return nil, fmt.Errorf("adt: kv-store: bad undo token %q: %w", s, err)
	}
	return kvBefore{key: w.Key, val: w.Val, present: w.Present}, nil
}
