// Package stripe holds the small helpers every striped structure in the
// engine shares: the string hash that picks a stripe, the power-of-two
// rounding that sizes the stripe array, and the common stripe-count cap.
// Centralizing them keeps the txn registry, the restart worker count, and
// the deadlock detector partitioning identically instead of drifting apart
// copy by copy.
package stripe

// MaxStripes caps every stripe array in the engine (a stripe is cheap but
// not free; past this point more stripes cannot help).
const MaxStripes = 256

// FNV32a hashes s with 32-bit FNV-1a (inline loop — no allocation, unlike
// hash/fnv).
func FNV32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// RoundPow2 rounds n up to a power of two no greater than max; the result
// is always in [1, max]. A non-power-of-two max is first rounded down so
// the contract holds for any max ≥ 1.
func RoundPow2(n, max int) int {
	hi := 1
	for hi*2 <= max {
		hi <<= 1
	}
	if n > hi {
		n = hi
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
