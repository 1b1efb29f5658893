package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTypeRoundTrip(t *testing.T) {
	cases := map[string]Type{
		"int": Int, "INTEGER": Int, "bigint": Int,
		"float": Float, "REAL": Float, "double": Float,
		"text": Text, "VARCHAR": Text, "string": Text,
		"bool": Bool, "BOOLEAN": Bool,
	}
	for s, want := range cases {
		got, err := ParseType(s)
		if err != nil || got != want {
			t.Fatalf("ParseType(%q)=%v,%v want %v", s, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Fatal("unknown type should error")
	}
}

func TestNullSemantics(t *testing.T) {
	n := NewNull()
	if !n.IsNull() || n.Type() != Null {
		t.Fatal("zero value should be NULL")
	}
	if Equal(n, NewInt(1)) || Equal(NewInt(1), n) || Equal(n, n) {
		t.Fatal("NULL never equals anything, including NULL")
	}
	v, err := Arith('+', n, NewInt(1))
	if err != nil || !v.IsNull() {
		t.Fatalf("NULL arithmetic: %v %v", v, err)
	}
}

func TestCompareNumericCrossType(t *testing.T) {
	c, err := Compare(NewInt(2), NewFloat(2.0))
	if err != nil || c != 0 {
		t.Fatalf("2 == 2.0: %d %v", c, err)
	}
	c, _ = Compare(NewInt(2), NewFloat(2.5))
	if c != -1 {
		t.Fatalf("2 < 2.5: %d", c)
	}
	if _, err := Compare(NewInt(1), NewText("x")); err == nil {
		t.Fatal("int vs text should error")
	}
}

func TestCompareTotalOrderOnInts(t *testing.T) {
	if err := quick.Check(func(a, b int64) bool {
		c1, err1 := Compare(NewInt(a), NewInt(b))
		c2, err2 := Compare(NewInt(b), NewInt(a))
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2 && ((a == b) == (c1 == 0))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArithIntAndFloat(t *testing.T) {
	v, _ := Arith('+', NewInt(2), NewInt(3))
	if v.Int() != 5 {
		t.Fatalf("2+3=%v", v)
	}
	v, _ = Arith('*', NewInt(2), NewFloat(1.5))
	if v.Type() != Float || v.Float() != 3.0 {
		t.Fatalf("2*1.5=%v", v)
	}
	v, _ = Arith('%', NewInt(7), NewInt(3))
	if v.Int() != 1 {
		t.Fatalf("7%%3=%v", v)
	}
	if _, err := Arith('/', NewInt(1), NewInt(0)); err == nil {
		t.Fatal("division by zero should error")
	}
	v, _ = Arith('+', NewText("a"), NewText("b"))
	if v.Text() != "ab" {
		t.Fatalf("text concat=%v", v)
	}
	if _, err := Arith('-', NewText("a"), NewInt(1)); err == nil {
		t.Fatal("text minus int should error")
	}
}

func TestCoerce(t *testing.T) {
	v, err := NewInt(3).Coerce(Float)
	if err != nil || v.Float() != 3.0 {
		t.Fatalf("int->float: %v %v", v, err)
	}
	v, err = NewFloat(4.0).Coerce(Int)
	if err != nil || v.Int() != 4 {
		t.Fatalf("float4.0->int: %v %v", v, err)
	}
	if _, err := NewFloat(4.5).Coerce(Int); err == nil {
		t.Fatal("lossy float->int should error")
	}
	if _, err := NewText("x").Coerce(Int); err == nil {
		t.Fatal("text->int should error")
	}
	v, err = NewNull().Coerce(Int)
	if err != nil || !v.IsNull() {
		t.Fatal("NULL coerces to anything")
	}
}

func TestHashEqualValuesAgree(t *testing.T) {
	if NewInt(42).Hash() != NewFloat(42.0).Hash() {
		t.Fatal("42 and 42.0 must hash alike (join keys)")
	}
	if NewInt(1).Hash() == NewInt(2).Hash() {
		t.Fatal("1 and 2 should not collide")
	}
	if NewText("a").Hash() == NewText("b").Hash() {
		t.Fatal("'a' and 'b' should not collide")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	if err := quick.Check(func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		if Equal(va, vb) {
			return va.Hash() == vb.Hash()
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%lo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_x", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
	}
	for _, c := range cases {
		if got := Like(c.s, c.p); got != c.want {
			t.Fatalf("Like(%q,%q)=%v want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":    NewNull(),
		"42":      NewInt(42),
		"1.5":     NewFloat(1.5),
		"'it''s'": NewText("it's"),
		"TRUE":    NewBool(true),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Fatalf("String()=%q want %q", got, want)
		}
	}
}

func TestRowCloneAndHash(t *testing.T) {
	r := Row{NewInt(1), NewText("x")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int() != 1 {
		t.Fatal("clone aliases original")
	}
	r2 := Row{NewInt(1), NewText("x"), NewFloat(9)}
	if r.Hash([]int{0, 1}) != r2.Hash([]int{0, 1}) {
		t.Fatal("same key columns must hash alike")
	}
	if r.Hash([]int{0}) == r.Hash([]int{1}) {
		t.Fatal("different key columns should differ")
	}
}

func TestBoolCompare(t *testing.T) {
	c, err := Compare(NewBool(false), NewBool(true))
	if err != nil || c != -1 {
		t.Fatalf("false < true: %d %v", c, err)
	}
	c, _ = Compare(NewBool(true), NewBool(true))
	if c != 0 {
		t.Fatal("true == true")
	}
}

// TestCoerceFloatToIntBounds: an integral float converts to Int only inside
// the int64 range. float64(math.MaxInt64) is 2^63, one past the range, so
// the upper bound is exclusive; -2^63 is math.MinInt64 exactly.
func TestCoerceFloatToIntBounds(t *testing.T) {
	two63 := math.Ldexp(1, 63)
	ok := map[float64]int64{
		0:                         0,
		-3:                        -3,
		-two63:                    math.MinInt64,
		math.Nextafter(two63, 0):  math.MaxInt64 - 1023, // largest float below 2^63
		math.Nextafter(-two63, 0): math.MinInt64 + 1024,
	}
	for f, want := range ok {
		v, err := NewFloat(f).Coerce(Int)
		if err != nil || v.Type() != Int || v.Int() != want {
			t.Errorf("Coerce(%v) = %v, %v; want %d", f, v, err, want)
		}
	}
	bad := []float64{
		two63, math.Nextafter(-two63, math.Inf(-1)), 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), 0.5,
	}
	for _, f := range bad {
		if v, err := NewFloat(f).Coerce(Int); err == nil {
			t.Errorf("Coerce(%v) = %v, want an error", f, v)
		}
	}
	// Hash folds an integral float onto the equal Int under the same bounds.
	if NewFloat(-two63).Hash() != NewInt(math.MinInt64).Hash() {
		t.Error("Float(-2^63) and Int(MinInt64) compare equal and must hash alike")
	}
}
