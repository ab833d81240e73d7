// Package tuple defines the value, tuple, and schema model shared by the
// storage engine, the stored-procedure interpreter, and every log format.
//
// Values are a small tagged union over int64, float64, and string. Tuples are
// flat slices of values described by a Schema. The package also provides the
// compact binary encoding used by log records and checkpoints, and helpers
// for packing composite keys into the uint64 candidate keys the indexes use.
package tuple

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// Value kinds. The zero Kind is KindNull so that zero Values are well formed.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Value is a dynamically typed column value. Numeric payloads live in bits;
// strings live in str. The zero Value is NULL.
type Value struct {
	kind Kind
	bits uint64
	str  string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// I returns an integer value.
func I(v int64) Value { return Value{kind: KindInt, bits: uint64(v)} }

// F returns a float value.
func F(v float64) Value { return Value{kind: KindFloat, bits: math.Float64bits(v)} }

// S returns a string value.
func S(v string) Value { return Value{kind: KindString, str: v} }

// Bool returns an integer value encoding b as 1 or 0. The IR has no separate
// boolean kind; conditions treat any non-zero integer as true.
func Bool(b bool) Value {
	if b {
		return I(1)
	}
	return I(0)
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload. It is valid only for KindInt values;
// other kinds return 0.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.bits)
}

// Float returns the float payload, converting integers. Other kinds return 0.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.bits)
	case KindInt:
		return float64(int64(v.bits))
	default:
		return 0
	}
}

// Str returns the string payload. It is valid only for KindString values;
// other kinds return "".
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return v.str
}

// Truthy reports whether the value counts as true in a condition: non-zero
// numbers and non-empty strings are true; NULL is false.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindInt:
		return v.bits != 0
	case KindFloat:
		return math.Float64frombits(v.bits) != 0
	case KindString:
		return v.str != ""
	default:
		return false
	}
}

// Equal reports deep equality of two values, including kind.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.kind == KindString {
		return v.str == o.str
	}
	return v.bits == o.bits
}

// Compare orders two values of the same kind: -1, 0, or +1. Values of
// different kinds compare by kind tag (NULL sorts first).
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		switch {
		case v.kind < o.kind:
			return -1
		default:
			return 1
		}
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindInt:
		a, b := int64(v.bits), int64(o.bits)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case KindFloat:
		a, b := math.Float64frombits(v.bits), math.Float64frombits(o.bits)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	default:
		switch {
		case v.str < o.str:
			return -1
		case v.str > o.str:
			return 1
		}
		return 0
	}
}

func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.bits), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.bits), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str)
	default:
		return fmt.Sprintf("value(kind=%d)", v.kind)
	}
}
