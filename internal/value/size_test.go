package value

import (
	"testing"
	"unsafe"
)

// TestValueSize pins the Value layout at 32 bytes. A scan allocates one
// Value per column per row, so the size is a per-row cost of every query:
// issue 20's step table has analytics_mem at 22.6 and 22.2 ops/s with the
// 48-byte {typ, i, f, s, b} layout and 29.8 and 29.3 ops/s with this one
// (200,000 five-column rows per scan, 48 → 32 bytes each; allocation and GC
// mark work shrink with it). A field added here shows up there; fold new
// payloads into i or s.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestPayloadsShareOneWord checks the accessors recover exactly what the
// constructors stored now that Int, Float and Bool share the scalar word.
func TestPayloadsShareOneWord(t *testing.T) {
	for _, f := range []float64{0, -0.0, 1.5, -2.25, 1e300, -1e-300} {
		if got := NewFloat(f).Float(); got != f {
			t.Fatalf("NewFloat(%v).Float() = %v", f, got)
		}
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Fatal("Bool payload lost")
	}
	if got := NewInt(-7).Float(); got != -7 {
		t.Fatalf("Int read as Float = %v, want -7", got)
	}
	if NewFloat(0) == NewInt(0) || NewBool(false) == NewInt(0) {
		t.Fatal("values of different types must not compare identical")
	}
	// Asked for a payload it does not hold, a value answers zero — not the
	// shared word reinterpreted.
	if NewFloat(1.5).Int() != 0 || NewBool(true).Int() != 0 || NewBool(true).Float() != 0 ||
		NewInt(1).Bool() || NewFloat(1.5).Bool() || NewText("x").Float() != 0 {
		t.Fatal("an accessor leaked another type's payload")
	}
}
