package adt

import (
	"fmt"
	"testing"
)

// TestMustIntMatchesSscanf: mustInt accepts exactly fmt.Sscanf's "%d"
// grammar — the same value where Sscanf parses, a panic where it fails —
// whichever of its two parsers handles the input.
func TestMustIntMatchesSscanf(t *testing.T) {
	for _, s := range []string{
		"7", "-3", "+2", "007", "0", "-0", " 5", "5x", "", "0x10", "x",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808", "99999999999999999999",
	} {
		var want int
		_, serr := fmt.Sscanf(s, "%d", &want)
		got, panicked := func() (n int, panicked bool) {
			defer func() { panicked = recover() != nil }()
			return mustInt(s), false
		}()
		switch {
		case serr != nil && !panicked:
			t.Errorf("mustInt(%q) = %d, want a panic (Sscanf: %v)", s, got, serr)
		case serr == nil && panicked:
			t.Errorf("mustInt(%q) panicked, want %d", s, want)
		case serr == nil && got != want:
			t.Errorf("mustInt(%q) = %d, want %d", s, got, want)
		}
	}
}

// TestMustIntAllocFree: canonical arguments — what this package's
// constructors emit — parse without allocating.
func TestMustIntAllocFree(t *testing.T) {
	for _, s := range []string{"25", "-3", "0"} {
		if n := testing.AllocsPerRun(100, func() { mustInt(s) }); n != 0 {
			t.Errorf("mustInt(%q) = %v allocs, want 0", s, n)
		}
	}
}

func BenchmarkMustInt(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustInt("25")
	}
}
