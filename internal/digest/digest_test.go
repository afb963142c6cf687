package digest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

type inner struct {
	B float64
	A string
}

type outer struct {
	Ptr    *inner
	Nil    *inner
	Slice  []float64
	NilSl  []int
	M      map[string]int
	hidden int
}

func TestCanonicalShape(t *testing.T) {
	v := outer{
		Ptr:   &inner{B: math.Inf(1), A: "x"},
		Slice: []float64{1, math.NaN()},
		M:     map[string]int{"b": 2, "a": 1},
	}
	v.hidden = 7 // must not influence the digest
	b, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"+Inf"`, `"NaN"`, `"Nil":null`, `"NilSl":null`, `{"a":1,"b":2}`} {
		if !strings.Contains(s, want) {
			t.Errorf("canonical form %s missing %s", s, want)
		}
	}
	if strings.Contains(s, "hidden") {
		t.Errorf("canonical form leaked unexported field: %s", s)
	}
}

func TestSumDeterministicAndSensitive(t *testing.T) {
	a := outer{Ptr: &inner{A: "x"}, M: map[string]int{"k": 1}}
	d1, err := Sum(a)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Sum(a)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not deterministic: %s vs %s", d1, d2)
	}
	a.M["k"] = 2
	d3, err := Sum(a)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("digest insensitive to value change")
	}
	if len(d1) != 64 {
		t.Fatalf("want hex sha256, got %q", d1)
	}
}

// treeCanonical is the reference canonicalization: it rebuilds v as a
// tree of maps, slices and scalars and lets encoding/json sort and
// render it. Canonical must emit exactly these bytes.
func treeCanonical(v any) ([]byte, error) {
	return json.Marshal(tree(reflect.ValueOf(v)))
}

func tree(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return tree(v.Elem())
	case reflect.Struct:
		m := make(map[string]any, v.NumField())
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).IsExported() {
				m[t.Field(i).Name] = tree(v.Field(i))
			}
		}
		return m
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return nil
		}
		out := make([]any, v.Len())
		for i := range out {
			out[i] = tree(v.Index(i))
		}
		return out
	case reflect.Map:
		m := make(map[string]any, v.Len())
		for it := v.MapRange(); it.Next(); {
			m[fmt.Sprint(it.Key().Interface())] = tree(it.Value())
		}
		return m
	case reflect.Float64, reflect.Float32:
		f := v.Float()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Sprint(f)
		}
		return f
	default:
		return v.Interface()
	}
}

type level int

func (l level) MarshalJSON() ([]byte, error) {
	return []byte(`"level-` + fmt.Sprint(int(l)) + `"`), nil
}

type Embedded struct{ Z, A int }

type kitchen struct {
	Embedded
	F64      []float64
	F32      float32
	I8       int8
	U64      uint64
	Arr      [3]uint16
	Bytes    []byte
	Str      []string
	Any      any
	AnyNil   any
	Keyed    map[int]string
	NilMap   map[string]int
	Dur      time.Duration
	Level    level
	Deep     **inner
	Empty    []inner
	Bool     bool
	lower    string
	Zeta     string
	ID, Id   int
	Children []*kitchen
}

func kitchenValue() kitchen {
	in := &inner{B: -0.0, A: "q"}
	return kitchen{
		Embedded: Embedded{Z: 1, A: 2},
		F64: []float64{0, math.Copysign(0, -1), 1, -1.5, 123.456, 1e20, 1e21, 1.5e300, 1e-6, 1e-7, 5e-324,
			math.MaxFloat64, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0.1 + 0.2},
		F32:      0.1,
		I8:       -128,
		U64:      math.MaxUint64,
		Arr:      [3]uint16{1, 2, 65535},
		Bytes:    []byte("hi\n"),
		Str:      []string{"", "plain", `q"uote\back`, "<html>&amp;", "tab\tnl\n\x01", "ünï©ødé", " ", "bad\xffutf8", "del\x7f"},
		Any:      &inner{B: 2, A: "in"},
		Keyed:    map[int]string{10: "ten", 2: "two", -1: "neg"},
		Dur:      1500 * time.Millisecond,
		Level:    3,
		Deep:     &in,
		Empty:    []inner{},
		Bool:     true,
		lower:    "hidden",
		Zeta:     "z",
		ID:       7,
		Id:       8,
		Children: []*kitchen{nil, {Zeta: "child", Keyed: map[int]string{}}},
	}
}

// TestCanonicalMatchesTree pins the direct encoder to the reference
// tree encoding across every kind, float edge and string escape.
func TestCanonicalMatchesTree(t *testing.T) {
	for _, v := range []any{
		kitchenValue(),
		&outer{Ptr: &inner{B: math.Inf(-1)}, Slice: []float64{}, M: map[string]int{"<": 1, "&": 2}},
		[]any{1, "x", nil, 2.5, []int(nil)},
		map[float64]bool{1.5: true, math.Inf(1): false},
		(*inner)(nil),
		math.NaN(),
		"top",
	} {
		want, err := treeCanonical(v)
		if err != nil {
			t.Fatalf("reference encoding of %T: %v", v, err)
		}
		got, err := Canonical(v)
		if err != nil {
			t.Fatalf("Canonical(%T): %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Canonical(%T) differs from the reference:\n got %s\nwant %s", v, got, want)
		}
	}
}

// TestCanonicalUnsupported: kinds JSON cannot carry fail the encoding.
func TestCanonicalUnsupported(t *testing.T) {
	if _, err := Canonical(struct{ C chan int }{make(chan int)}); err == nil {
		t.Fatal("Canonical accepted a channel")
	}
}

// decodable holds every kind Decode supports.
type decodable struct {
	F   []float64
	F32 float32
	I   int64
	I8  int8
	U   uint32
	Arr [2]int
	B   bool
	S   []string
	P   *inner
	Nil *inner
	PP  **inner
	E   []inner
	NS  []int
	Ns  []*decodable
}

func TestDecodeRoundTrip(t *testing.T) {
	in := &inner{B: 1, A: "a"}
	v := decodable{
		F:   []float64{0, math.Copysign(0, -1), 1e21, 1e-7, 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), 0.1},
		F32: 0.1, I: math.MinInt64, I8: 127, U: math.MaxUint32, Arr: [2]int{-1, 1}, B: true,
		S: []string{"", `"\`, "<&>", "ünï", "\x01", "\ufffd"},
		P: &inner{B: math.Inf(1), A: "x"}, PP: &in, E: []inner{},
		Ns: []*decodable{nil, {E: []inner{{}}}},
	}
	enc, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	var got decodable
	if err := Decode(enc, &got); err != nil {
		t.Fatalf("Decode: %v\n%s", err, enc)
	}
	if got.E == nil || len(got.E) != 0 {
		t.Errorf("empty slice decoded as %#v, want empty and non-nil", got.E)
	}
	if got.NS != nil || got.Nil != nil {
		t.Errorf("null decoded as non-nil: %#v %#v", got.NS, got.Nil)
	}
	if math.Float64bits(got.F[1]) != math.Float64bits(math.Copysign(0, -1)) || got.F32 != 0.1 {
		t.Errorf("float bits changed: %v %v", got.F[1], got.F32)
	}
	again, err := Canonical(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, enc) {
		t.Errorf("round trip changed the bytes:\n got %s\nwant %s", again, enc)
	}
}

// TestDecodeRejects: anything but the canonical layout is an error that
// names its offset.
func TestDecodeRejects(t *testing.T) {
	for _, c := range []struct {
		in     string
		offset int
	}{
		{``, 0},
		{`null`, 0},
		{`{"A":"x"}`, 8},
		{`{"B":1,"A":"x"}`, 1},
		{`{"A":"x", "B":1}`, 9},
		{`{"A":"x","B":1,"C":2}`, 14},
		{`{"A":"x","B":1}x`, 15},
		{`{"A":"x","B":1} `, 15},
		{`{"A":x,"B":1}`, 5},
		{`{"A":"x,"B":1}`, 9},
		{`{"A":"\q","B":1}`, 5},
		{`{"A":"x","B":01}`, 14},
		{`{"A":"x","B":1.}`, 13},
		{`{"A":"x","B":-}`, 13},
		{`{"A":"x","B":1e999}`, 13},
		{`{"A":"x","B":"Infinity"}`, 13},
		{`{"A":"x","B":true}`, 13},
		{`{"A":"unterminated`, 5},
	} {
		var v inner
		err := Decode([]byte(c.in), &v)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("Decode(%q) = %v, want a *DecodeError", c.in, err)
			continue
		}
		if de.Offset != c.offset {
			t.Errorf("Decode(%q) failed at offset %d (%v), want %d", c.in, de.Offset, err, c.offset)
		}
	}
	var o outer
	if err := Decode([]byte(`{"M":null,"Nil":null,"NilSl":null,"Ptr":null,"Slice":null}`), &o); err == nil || !strings.Contains(err.Error(), "not decodable") {
		t.Errorf("map field decoded: %v", err)
	}
	var i8 struct{ I int8 }
	if err := Decode([]byte(`{"I":128}`), &i8); err == nil {
		t.Error("int8 overflow accepted")
	}
	var arr struct{ A [2]int }
	if err := Decode([]byte(`{"A":[1,2,3]}`), &arr); err == nil {
		t.Error("array of the wrong length accepted")
	}
	if err := Decode([]byte(`{}`), inner{}); err == nil {
		t.Error("non-pointer target accepted")
	}
}
