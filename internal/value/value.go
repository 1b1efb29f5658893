// Package value defines the runtime value system shared by the catalog,
// parser, optimizer, and execution engine: SQL types, typed values, NULL
// semantics, comparison, arithmetic, and hashing.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates column types.
type Type int

// Supported SQL column types.
const (
	Null  Type = iota // the type of the NULL literal before coercion
	Int               // 64-bit signed integer
	Float             // 64-bit IEEE float
	Text              // variable-length string
	Bool              // boolean
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case Text:
		return "TEXT"
	case Bool:
		return "BOOL"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType maps a SQL type name to a Type. It accepts common synonyms.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return Int, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return Float, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return Text, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	}
	return Null, fmt.Errorf("unknown type %q", s)
}

// Value is one SQL value. The zero Value is NULL. It is 32 bytes: a row is
// allocated per scanned record, so every byte here is paid per value per row
// (size_test.go pins the size). One scalar word serves the three fixed-width
// types — i holds the Int payload, a Float's math.Float64bits, or a Bool as
// 0/1 — so the accessors check the type before reading it: asked for a
// payload the value does not hold, they return the zero payload, as they did
// when each type had a field of its own.
type Value struct {
	s   string
	i   int64
	typ Type
}

// NewNull returns the NULL value.
func NewNull() Value { return Value{} }

// NewInt returns an Int value.
func NewInt(v int64) Value { return Value{typ: Int, i: v} }

// NewFloat returns a Float value.
func NewFloat(v float64) Value { return Value{typ: Float, i: int64(math.Float64bits(v))} }

// NewText returns a Text value.
func NewText(v string) Value { return Value{typ: Text, s: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value {
	if v {
		return Value{typ: Bool, i: 1}
	}
	return Value{typ: Bool}
}

// FromGo converts a Go argument bound to a `?` placeholder: nil, a Value, or
// an int, int32, int64, uint32, float32, float64, string or bool. Both the
// embedded API and the wire client bind through it.
func FromGo(a any) (Value, error) {
	switch x := a.(type) {
	case nil:
		return NewNull(), nil
	case Value:
		return x, nil
	case int:
		return NewInt(int64(x)), nil
	case int32:
		return NewInt(int64(x)), nil
	case int64:
		return NewInt(x), nil
	case uint32:
		return NewInt(int64(x)), nil
	case float32:
		return NewFloat(float64(x)), nil
	case float64:
		return NewFloat(x), nil
	case string:
		return NewText(x), nil
	case bool:
		return NewBool(x), nil
	}
	return Value{}, fmt.Errorf("unsupported argument type %T", a)
}

// Type returns the value's type (Null for NULL).
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == Null }

// Int returns the integer payload; valid only when Type()==Int.
func (v Value) Int() int64 {
	if v.typ != Int {
		return 0
	}
	return v.i
}

// Float returns the float payload, coercing Int.
func (v Value) Float() float64 {
	switch v.typ {
	case Int:
		return float64(v.i)
	case Float:
		return math.Float64frombits(uint64(v.i))
	}
	return 0
}

// Text returns the string payload; valid only when Type()==Text.
func (v Value) Text() string { return v.s }

// Bool returns the boolean payload; valid only when Type()==Bool.
func (v Value) Bool() bool { return v.typ == Bool && v.i != 0 }

// String renders the value as SQL literal text.
func (v Value) String() string {
	switch v.typ {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case Text:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case Bool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Coerce converts v to type t when a lossless or standard SQL conversion
// exists (Int->Float, integral in-range Float->Int, NULL->anything). It
// fails otherwise.
func (v Value) Coerce(t Type) (Value, error) {
	if v.typ == t || v.typ == Null {
		return v, nil
	}
	switch {
	case v.typ == Int && t == Float:
		return NewFloat(float64(v.i)), nil
	case v.typ == Float && t == Int:
		if n, ok := floatAsInt(v.Float()); ok {
			return NewInt(n), nil
		}
	}
	return Value{}, fmt.Errorf("cannot coerce %s to %s", v.typ, t)
}

// floatAsInt returns f as an int64 when f is integral and inside the int64
// range. The upper bound is strict: float64(math.MaxInt64) rounds up to 2^63,
// which int64 cannot hold (the conversion's result is then implementation-
// defined). NaN fails the integrality test, the infinities the range test.
func floatAsInt(f float64) (int64, bool) {
	if f != math.Trunc(f) || f < math.MinInt64 || f >= math.MaxInt64 {
		return 0, false
	}
	return int64(f), true
}

// numeric reports whether the type participates in arithmetic.
func numeric(t Type) bool { return t == Int || t == Float }

// Compare orders two values: -1, 0, or +1. NULL compares less than any
// non-NULL (used only for sorting; predicate comparison with NULL is handled
// by the caller via IsNull). Comparing incompatible types returns an error.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if numeric(a.typ) && numeric(b.typ) {
		if a.typ == Int && b.typ == Int {
			switch {
			case a.i < b.i:
				return -1, nil
			case a.i > b.i:
				return 1, nil
			}
			return 0, nil
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	if a.typ != b.typ {
		return 0, fmt.Errorf("cannot compare %s with %s", a.typ, b.typ)
	}
	switch a.typ {
	case Text:
		return strings.Compare(a.s, b.s), nil
	case Bool:
		ab, bb := a.Bool(), b.Bool()
		switch {
		case !ab && bb:
			return -1, nil
		case ab && !bb:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("cannot compare %s values", a.typ)
}

// Equal reports SQL equality of two non-NULL values; either side NULL yields
// false (SQL three-valued logic collapses to false in filters).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Arith applies +, -, *, / or % to numeric values. Division by zero and type
// mismatches return errors. NULL operands yield NULL.
func Arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return NewNull(), nil
	}
	if !numeric(a.typ) || !numeric(b.typ) {
		if op == '+' && a.typ == Text && b.typ == Text {
			return NewText(a.s + b.s), nil
		}
		return Value{}, fmt.Errorf("arithmetic %q on %s and %s", op, a.typ, b.typ)
	}
	if a.typ == Int && b.typ == Int {
		switch op {
		case '+':
			return NewInt(a.i + b.i), nil
		case '-':
			return NewInt(a.i - b.i), nil
		case '*':
			return NewInt(a.i * b.i), nil
		case '/':
			if b.i == 0 {
				return Value{}, fmt.Errorf("division by zero")
			}
			return NewInt(a.i / b.i), nil
		case '%':
			if b.i == 0 {
				return Value{}, fmt.Errorf("division by zero")
			}
			return NewInt(a.i % b.i), nil
		}
	}
	af, bf := a.Float(), b.Float()
	switch op {
	case '+':
		return NewFloat(af + bf), nil
	case '-':
		return NewFloat(af - bf), nil
	case '*':
		return NewFloat(af * bf), nil
	case '/':
		if bf == 0 {
			return Value{}, fmt.Errorf("division by zero")
		}
		return NewFloat(af / bf), nil
	case '%':
		return Value{}, fmt.Errorf("modulo on floats")
	}
	return Value{}, fmt.Errorf("unknown operator %q", op)
}

// FNV-1a parameters, inlined so hashing the hot join/group keys never
// allocates a hasher (hash/fnv returns its state behind an interface, which
// escapes to the heap on every New64a call).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte folds one byte into an FNV-1a state.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvU64 folds a little-endian uint64 into an FNV-1a state.
func fnvU64(h, u uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(u>>i))) * fnvPrime64
	}
	return h
}

// fnvString folds a string's bytes into an FNV-1a state.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// Hash returns a stable hash of the value, with Int and equal-valued Float
// hashing alike so numeric join keys match across types. The hash is an
// allocation-free inline FNV-1a over the same byte encoding earlier versions
// fed through hash/fnv, so stored hash-dependent orderings are unchanged.
//
//stagedb:hot
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset64)
	switch v.typ {
	case Null:
		h = fnvByte(h, 0)
	case Int:
		h = fnvU64(h, uint64(v.i))
	case Float:
		if n, ok := floatAsInt(v.Float()); ok {
			h = fnvU64(h, uint64(n))
		} else {
			h = fnvU64(h, uint64(v.i))
		}
	case Text:
		h = fnvByte(h, 2)
		h = fnvString(h, v.s)
	case Bool:
		h = fnvByte(h, 4)
		if v.Bool() {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
	}
	return h
}

// Like implements the SQL LIKE operator with % and _ wildcards.
func Like(s, pattern string) bool {
	return likeMatch(s, pattern, nil)
}

// LikeMatcher matches a fixed LIKE pattern, reusing its DP scratch buffer
// across calls. Compiled predicate kernels hold one per LIKE with a constant
// pattern; it is not safe for concurrent use.
type LikeMatcher struct {
	pattern string
	dp      []bool
}

// NewLikeMatcher returns a matcher for the given pattern.
func NewLikeMatcher(pattern string) *LikeMatcher {
	return &LikeMatcher{pattern: pattern}
}

// Match reports whether s matches the matcher's pattern.
//
//stagedb:hot
func (m *LikeMatcher) Match(s string) bool {
	if cap(m.dp) < len(s)+1 {
		m.dp = make([]bool, len(s)+1)
	}
	return likeMatch(s, m.pattern, m.dp[:len(s)+1])
}

func likeMatch(s, p string, dp []bool) bool {
	// Dynamic programming over bytes (patterns in this codebase are ASCII).
	n, m := len(s), len(p)
	if dp == nil {
		dp = make([]bool, n+1)
	} else {
		for i := range dp {
			dp[i] = false
		}
	}
	dp[0] = true
	for j := 0; j < m; j++ {
		if p[j] == '%' {
			// dp stays: %'s row is prefix-or.
			for i := 1; i <= n; i++ {
				dp[i] = dp[i] || dp[i-1]
			}
			continue
		}
		prev := dp[0]
		dp[0] = false
		for i := 1; i <= n; i++ {
			cur := dp[i]
			dp[i] = prev && (p[j] == '_' || p[j] == s[i-1])
			prev = cur
		}
	}
	return dp[n]
}

// Row is a tuple of values.
type Row []Value

// Clone returns a copy of the row (values are immutable, so a shallow slice
// copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a comma-separated list.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Hash combines the hashes of the given column indexes of the row.
//
//stagedb:hot
func (r Row) Hash(cols []int) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range cols {
		h = (h ^ r[c].Hash()) * fnvPrime64
	}
	return h
}

// HashRows hashes the key columns of each row into dst, the batch entry of
// the vectorized join and aggregation kernels: one call hashes a whole page
// of keys with zero allocations when dst capacity suffices. It returns dst
// resized to len(rows).
//
//stagedb:hot
func HashRows(rows []Row, cols []int, dst []uint64) []uint64 {
	if cap(dst) < len(rows) {
		dst = make([]uint64, len(rows))
	}
	dst = dst[:len(rows)]
	for i, r := range rows {
		dst[i] = r.Hash(cols)
	}
	return dst
}
