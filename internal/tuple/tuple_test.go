package tuple

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if got := I(42).Int(); got != 42 {
		t.Errorf("I(42).Int() = %d", got)
	}
	if got := I(-7).Int(); got != -7 {
		t.Errorf("I(-7).Int() = %d", got)
	}
	if got := F(3.5).Float(); got != 3.5 {
		t.Errorf("F(3.5).Float() = %g", got)
	}
	if got := S("abc").Str(); got != "abc" {
		t.Errorf(`S("abc").Str() = %q`, got)
	}
	if Null().Kind() != KindNull || I(1).Kind() != KindInt ||
		F(1).Kind() != KindFloat || S("").Kind() != KindString {
		t.Error("Kind() mismatch")
	}
	// Cross-kind accessors return zero values.
	if S("x").Int() != 0 || I(3).Str() != "" || S("x").Float() != 0 {
		t.Error("cross-kind accessors should return zero values")
	}
	// Int promotes to float.
	if I(4).Float() != 4.0 {
		t.Error("I(4).Float() != 4.0")
	}
}

func TestValueTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{I(0), false}, {I(1), true}, {I(-1), true},
		{F(0), false}, {F(0.1), true},
		{S(""), false}, {S("x"), true},
		{Null(), false},
		{Bool(true), true}, {Bool(false), false},
	}
	for _, c := range cases {
		if c.v.Truthy() != c.want {
			t.Errorf("%v.Truthy() = %v, want %v", c.v, !c.want, c.want)
		}
	}
}

func TestValueEqualAndCompare(t *testing.T) {
	if !I(5).Equal(I(5)) || I(5).Equal(I(6)) || I(5).Equal(F(5)) {
		t.Error("Equal on ints broken")
	}
	if !S("a").Equal(S("a")) || S("a").Equal(S("b")) {
		t.Error("Equal on strings broken")
	}
	if I(1).Compare(I(2)) != -1 || I(2).Compare(I(1)) != 1 || I(2).Compare(I(2)) != 0 {
		t.Error("Compare on ints broken")
	}
	if F(-1.5).Compare(F(0)) != -1 || S("b").Compare(S("a")) != 1 {
		t.Error("Compare on float/string broken")
	}
	if Null().Compare(I(0)) != -1 {
		t.Error("NULL should sort before ints")
	}
	// Negative ints must compare as signed.
	if I(-2).Compare(I(1)) != -1 {
		t.Error("signed comparison broken")
	}
}

func TestValueString(t *testing.T) {
	if I(3).String() != "3" || S("hi").String() != `"hi"` || Null().String() != "NULL" {
		t.Errorf("String() output unexpected: %s %s %s", I(3), S("hi"), Null())
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		Null(), I(0), I(1), I(-1), I(math.MaxInt64), I(math.MinInt64),
		F(0), F(3.14159), F(math.Inf(1)), F(-math.SmallestNonzeroFloat64),
		S(""), S("hello"), S(string(make([]byte, 1000))),
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("%v: consumed %d of %d bytes", v, n, len(buf))
		}
		if !got.Equal(v) {
			t.Errorf("round trip: got %v, want %v", got, v)
		}
	}
}

func TestTupleRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() Tuple {
		n := rng.Intn(8)
		tp := make(Tuple, n)
		for i := range tp {
			switch rng.Intn(4) {
			case 0:
				tp[i] = Null()
			case 1:
				tp[i] = I(rng.Int63() - rng.Int63())
			case 2:
				tp[i] = F(rng.NormFloat64())
			default:
				b := make([]byte, rng.Intn(32))
				rng.Read(b)
				tp[i] = S(string(b))
			}
		}
		return tp
	}
	f := func() bool {
		tp := gen()
		buf := AppendTuple(nil, tp)
		got, n, err := DecodeTuple(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return got.Equal(tp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{byte(KindInt)},                      // missing payload
		{byte(KindInt), 1, 2, 3},             // short payload
		{byte(KindString), 10, 0, 0, 0, 'a'}, // length runs past buffer
		{255},                                // unknown kind
	}
	for i, b := range cases {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, _, err := DecodeTuple([]byte{1}); err == nil {
		t.Error("short tuple header: expected error")
	}
	if _, _, err := DecodeTuple([]byte{2, 0, byte(KindInt)}); err == nil {
		t.Error("tuple with truncated value: expected error")
	}
}

func TestTupleCloneAndEqual(t *testing.T) {
	a := Tuple{I(1), S("x")}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b[0] = I(2)
	if a[0].Int() != 1 {
		t.Error("clone aliases original")
	}
	if a.Equal(Tuple{I(1)}) {
		t.Error("tuples of different length compared equal")
	}
	var nilT Tuple
	if nilT.Clone() != nil {
		t.Error("nil tuple clone should be nil")
	}
}

func TestSchema(t *testing.T) {
	s, err := NewSchema("acct", Col("id", KindInt), Col("name", KindString), Col("bal", KindFloat))
	if err != nil {
		t.Fatal(err)
	}
	if s.Table() != "acct" || s.NumColumns() != 3 {
		t.Error("basic accessors broken")
	}
	if s.ColIndex("name") != 1 || s.ColIndex("nope") != -1 {
		t.Error("ColIndex broken")
	}
	if s.Column(2).Kind != KindFloat {
		t.Error("Column broken")
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema("t", Col("a", KindInt), Col("a", KindInt)); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", Col("", KindInt)); err == nil {
		t.Error("empty column name accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on error")
		}
	}()
	MustSchema("t", Col("a", KindInt), Col("a", KindInt))
}

func TestKeyPacker(t *testing.T) {
	p := NewKeyPacker(16, 8, 24, 16)
	k := p.Pack(513, 7, 99999, 12)
	if want := uint64(513)<<48 | 7<<40 | 99999<<16 | 12; k != want {
		t.Errorf("pack = %#x, want %#x", k, want)
	}
	// Order preservation on the most significant field.
	if p.Pack(2, 0, 0, 0) <= p.Pack(1, 255, 1<<24-1, 1<<16-1) {
		t.Error("packing does not preserve field order")
	}
}

func TestKeyPackerQuick(t *testing.T) {
	p := NewKeyPacker(20, 20, 24)
	f := func(a, b, c uint32) bool {
		fa, fb, fc := uint64(a)&(1<<20-1), uint64(b)&(1<<20-1), uint64(c)&(1<<24-1)
		return p.Pack(fa, fb, fc) == fa<<44|fb<<24|fc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyPackerPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("overflow width", func() { NewKeyPacker(40, 40) })
	mustPanic("zero width", func() { NewKeyPacker(0) })
	p := NewKeyPacker(8, 8)
	mustPanic("field overflow", func() { p.Pack(256, 0) })
	mustPanic("wrong arity", func() { p.Pack(1) })
}
