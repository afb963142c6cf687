// Package digest is the one codec for campaign outcomes: it renders a
// value as canonical JSON, hashes those bytes into a SHA-256 digest, and
// reads them back. The golden determinism harness (internal/campaign),
// the campaign service (internal/service) and the distributed worker
// wire (internal/distengine) all use these bytes, so a digest computed
// by a daemon or a remote worker is comparable, byte for byte, with one
// computed over the in-process library path.
//
// Layout. The canonical form is compact JSON (no whitespace) derived from
// the value's Go type:
//   - a struct is an object of its exported fields keyed by Go field name
//     (json tags are ignored), sorted by name in byte order; an embedded
//     struct is nested under its type name, not flattened;
//   - a map is an object keyed by fmt.Sprint of each key, sorted the same
//     way;
//   - a slice or array is an array, and a nil slice is null;
//   - a pointer or interface is its pointee, and nil is null;
//   - a finite float is formatted as encoding/json formats a float64;
//     +Inf, -Inf and NaN are the strings "+Inf", "-Inf" and "NaN";
//   - integers, bools and strings are written as encoding/json writes
//     them, strings with its escaping (HTML characters included).
//
// The field order of each type is computed once and cached as the type's
// plan; Canonical and Decode both walk it.
//
// Decode is the strict inverse for the kinds outcomes and snapshots are
// made of: pointers, structs, slices, arrays, floats, integers, bools and
// strings. It accepts exactly the layout above — every exported field
// present and in canonical order, no whitespace, nothing after the value
// — and reports anything else, including maps, interfaces and types with
// their own JSON methods, as a *DecodeError carrying the byte offset. An
// empty array decodes to an empty, non-nil slice, so a value survives
// Canonical → Decode → Canonical byte for byte.
package digest

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
)

// Canonical returns the canonical JSON encoding of v.
func Canonical(v any) ([]byte, error) {
	e := getEncoder()
	defer encoders.Put(e)
	if err := e.top(v); err != nil {
		return nil, err
	}
	return bytes.Clone(e.buf), nil
}

// Sum returns the hex SHA-256 over v's canonical JSON form.
func Sum(v any) (string, error) {
	e := getEncoder()
	defer encoders.Put(e)
	if err := e.top(v); err != nil {
		return "", err
	}
	return Hash(e.buf), nil
}

// Hash returns the hex SHA-256 of already-canonical bytes: Sum(v) equals
// Hash of Canonical(v).
func Hash(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// plan is the cached codec layout of one Go type.
type plan struct {
	kind reflect.Kind
	// viaJSON marks a scalar type that encoding/json renders itself — one
	// with its own JSON or text marshaler, or a kind JSON rejects (chan,
	// func, complex). Canonical defers to json.Marshal; Decode refuses it.
	viaJSON bool
	// elem is the pointee, element or map-value plan.
	elem *plan
	// fields are a struct's exported fields, sorted by name.
	fields []field
}

type field struct {
	name  string
	index int
	// key is the field's object key as written, colon included.
	key  string
	plan *plan
}

var (
	plans   sync.Map // reflect.Type → *plan, complete plans only
	buildMu sync.Mutex

	jsonMarshaler = reflect.TypeFor[json.Marshaler]()
	textMarshaler = reflect.TypeFor[encoding.TextMarshaler]()
)

// planFor returns t's plan, building and caching it (and the plans of
// every type it reaches) on first use.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	building := make(map[reflect.Type]*plan)
	p := buildPlan(t, building)
	for t, bp := range building {
		plans.Store(t, bp)
	}
	return p
}

// buildPlan fills in t's plan. building holds the plans under
// construction, so a recursive type refers to its own (still incomplete)
// plan instead of recursing forever.
func buildPlan(t reflect.Type, building map[reflect.Type]*plan) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p, ok := building[t]; ok {
		return p
	}
	p := &plan{kind: t.Kind()}
	building[t] = p
	switch p.kind {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		p.elem = buildPlan(t.Elem(), building)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			key, _ := json.Marshal(f.Name)
			p.fields = append(p.fields, field{
				name:  f.Name,
				index: i,
				key:   string(key) + ":",
				plan:  buildPlan(f.Type, building),
			})
		}
		sort.Slice(p.fields, func(i, j int) bool { return p.fields[i].name < p.fields[j].name })
	case reflect.Float32, reflect.Float64, reflect.Interface:
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.viaJSON = t.Implements(jsonMarshaler) || t.Implements(textMarshaler)
	default:
		p.viaJSON = true
	}
	return p
}

// encoder appends the canonical form of values to buf.
type encoder struct {
	buf []byte
}

// encoders recycles encoding buffers, so encoding an outcome allocates
// little beyond the bytes Canonical returns.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

func getEncoder() *encoder {
	e := encoders.Get().(*encoder)
	e.buf = e.buf[:0]
	return e
}

// top encodes v into e.buf.
func (e *encoder) top(v any) error {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	return e.value(rv, planFor(rv.Type()))
}

func (e *encoder) value(v reflect.Value, p *plan) error {
	switch p.kind {
	case reflect.Pointer:
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		return e.value(v.Elem(), p.elem)
	case reflect.Interface:
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		v = v.Elem()
		return e.value(v, planFor(v.Type()))
	case reflect.Struct:
		e.buf = append(e.buf, '{')
		for i, f := range p.fields {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, f.key...)
			if err := e.value(v.Field(f.index), f.plan); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, '}')
	case reflect.Slice, reflect.Array:
		if p.kind == reflect.Slice && v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		e.buf = append(e.buf, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if err := e.value(v.Index(i), p.elem); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, ']')
	case reflect.Map:
		return e.mapValue(v, p)
	case reflect.Float32, reflect.Float64:
		e.buf = appendFloat(e.buf, v.Float())
	default:
		if p.viaJSON {
			b, err := json.Marshal(v.Interface())
			if err != nil {
				return err
			}
			e.buf = append(e.buf, b...)
			return nil
		}
		switch p.kind {
		case reflect.Bool:
			e.buf = strconv.AppendBool(e.buf, v.Bool())
		case reflect.String:
			e.buf = appendString(e.buf, v.String())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			e.buf = strconv.AppendInt(e.buf, v.Int(), 10)
		default:
			e.buf = strconv.AppendUint(e.buf, v.Uint(), 10)
		}
	}
	return nil
}

// mapValue writes a map as an object keyed by fmt.Sprint of its keys.
func (e *encoder) mapValue(v reflect.Value, p *plan) error {
	type entry struct {
		key string
		val reflect.Value
	}
	entries := make([]entry, 0, v.Len())
	for it := v.MapRange(); it.Next(); {
		entries = append(entries, entry{fmt.Sprint(it.Key().Interface()), it.Value()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	e.buf = append(e.buf, '{')
	for i, en := range entries {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendString(e.buf, en.key)
		e.buf = append(e.buf, ':')
		if err := e.value(en.val, p.elem); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, '}')
	return nil
}

// appendFloat writes f as encoding/json writes a float64, with the
// non-finite values as strings.
func appendFloat(b []byte, f float64) []byte {
	switch {
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json writes it.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString writes s as a JSON string. Plain printable ASCII is copied
// as is; anything encoding/json would escape goes through it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// DecodeError reports why Decode refused its input and where.
type DecodeError struct {
	// Offset is the byte offset into the input at which decoding failed.
	Offset int
	// Msg describes what was expected there.
	Msg string
}

// Error formats the failure with its offset.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("digest: decode at offset %d: %s", e.Offset, e.Msg)
}

// Decode parses canonical JSON into the value v points to. It is strict:
// see the package documentation for the layout it accepts. On error, v
// may be partly written.
func Decode(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return &DecodeError{Msg: fmt.Sprintf("need a non-nil pointer, got %T", v)}
	}
	d := decoder{data: data}
	if err := d.value(rv.Elem(), planFor(rv.Elem().Type())); err != nil {
		return err
	}
	if d.off != len(d.data) {
		return d.errorf("trailing bytes after the value")
	}
	return nil
}

// decoder reads canonical JSON from data, starting at off.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) errorf(format string, args ...any) error {
	return &DecodeError{Offset: d.off, Msg: fmt.Sprintf(format, args...)}
}

// literal consumes lit if the input continues with it.
func (d *decoder) literal(lit string) bool {
	if end := d.off + len(lit); end <= len(d.data) && string(d.data[d.off:end]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

// expect consumes the byte c or fails.
func (d *decoder) expect(c byte) error {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return nil
	}
	return d.errorf("want %q", c)
}

func (d *decoder) value(v reflect.Value, p *plan) error {
	if p.viaJSON {
		return d.errorf("type %s is not decodable", v.Type())
	}
	switch p.kind {
	case reflect.Pointer:
		if d.literal("null") {
			v.SetZero()
			return nil
		}
		v.Set(reflect.New(v.Type().Elem()))
		return d.value(v.Elem(), p.elem)
	case reflect.Struct:
		if err := d.expect('{'); err != nil {
			return err
		}
		for i, f := range p.fields {
			if i > 0 {
				if err := d.expect(','); err != nil {
					return err
				}
			}
			if !d.literal(f.key) {
				return d.errorf("want field %s of %s", f.key[:len(f.key)-1], v.Type())
			}
			if err := d.value(v.Field(f.index), f.plan); err != nil {
				return err
			}
		}
		return d.expect('}')
	case reflect.Slice:
		if d.literal("null") {
			v.SetZero()
			return nil
		}
		if err := d.expect('['); err != nil {
			return err
		}
		s := reflect.New(v.Type()).Elem()
		s.Set(reflect.MakeSlice(v.Type(), 0, d.count(v.Type().Elem().Size())))
		for n := 0; !d.literal("]"); n++ {
			if n > 0 {
				if err := d.expect(','); err != nil {
					return err
				}
			}
			s.Grow(1)
			s.SetLen(n + 1)
			if err := d.value(s.Index(n), p.elem); err != nil {
				return err
			}
		}
		v.Set(s)
		return nil
	case reflect.Array:
		if err := d.expect('['); err != nil {
			return err
		}
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				if err := d.expect(','); err != nil {
					return err
				}
			}
			if err := d.value(v.Index(i), p.elem); err != nil {
				return err
			}
		}
		if err := d.expect(']'); err != nil {
			return d.errorf("want ']' after %d elements of %s", v.Len(), v.Type())
		}
		return nil
	case reflect.Float32, reflect.Float64:
		return d.float(v)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		start := d.off
		tok, isInt := d.number()
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if !isInt || err != nil || v.OverflowInt(n) {
			d.off = start
			return d.errorf("want an integer for %s", v.Type())
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		start := d.off
		tok, isInt := d.number()
		n, err := strconv.ParseUint(string(tok), 10, 64)
		if !isInt || err != nil || v.OverflowUint(n) {
			d.off = start
			return d.errorf("want an unsigned integer for %s", v.Type())
		}
		v.SetUint(n)
	case reflect.Bool:
		switch {
		case d.literal("true"):
			v.SetBool(true)
		case d.literal("false"):
			v.SetBool(false)
		default:
			return d.errorf("want true or false")
		}
	case reflect.String:
		s, err := d.str()
		if err != nil {
			return err
		}
		v.SetString(s)
	default:
		return d.errorf("type %s is not decodable", v.Type())
	}
	return nil
}

// count returns the number of elements in the array whose '[' was just
// read, so a slice is allocated once at its final size. Malformed input
// can only make the count wrong, not the decode: it is a capacity, capped
// at eight bytes of elements per input byte.
func (d *decoder) count(elemSize uintptr) int {
	depth, n := 0, 0
	for i := d.off; i < len(d.data); i++ {
		switch d.data[i] {
		case '"':
			for i++; i < len(d.data) && d.data[i] != '"'; i++ {
				if d.data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ',':
			if depth == 0 {
				n++
			}
		case ']', '}':
			if depth > 0 {
				depth--
				continue
			}
			if i > d.off {
				n++
			}
			if elemSize > 0 {
				n = min(n, 8*(i-d.off)/int(elemSize))
			}
			return n
		}
	}
	return 0
}

// float reads a number or one of the non-finite strings.
func (d *decoder) float(v reflect.Value) error {
	start := d.off
	if d.off < len(d.data) && d.data[d.off] == '"' {
		s, err := d.str()
		if err != nil {
			return err
		}
		switch s {
		case "+Inf":
			v.SetFloat(math.Inf(1))
		case "-Inf":
			v.SetFloat(math.Inf(-1))
		case "NaN":
			v.SetFloat(math.NaN())
		default:
			d.off = start
			return d.errorf("want a number, \"+Inf\", \"-Inf\" or \"NaN\"")
		}
		return nil
	}
	tok, _ := d.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if len(tok) == 0 || err != nil || v.OverflowFloat(f) {
		d.off = start
		return d.errorf("want a finite number for %s", v.Type())
	}
	v.SetFloat(f)
	return nil
}

// number consumes one JSON number token and reports whether it is an
// integer (no fraction or exponent). A malformed token comes back empty
// with the offset unmoved.
func (d *decoder) number() (tok []byte, isInt bool) {
	b, i := d.data, d.off
	digits := func() bool {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
		isInt = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
		isInt = false
	}
	tok = b[d.off:i]
	d.off = i
	return tok, isInt
}

// str reads one JSON string. Plain printable ASCII is taken as is;
// escapes and other bytes are decoded by encoding/json.
func (d *decoder) str() (string, error) {
	start := d.off
	if err := d.expect('"'); err != nil {
		return "", err
	}
	plain := true
	for i := d.off; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			raw := d.data[start : i+1]
			d.off = i + 1
			if plain {
				return string(raw[1 : len(raw)-1]), nil
			}
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				d.off = start
				return "", d.errorf("bad string: %v", err)
			}
			return s, nil
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c > 0x7e:
			plain = false
		}
	}
	d.off = start
	return "", d.errorf("unterminated string")
}
