// Zero-allocation Event decoding for the /admit hot path.
//
// encoding/json cannot decode an Event without allocating: every string
// field, the nested TaskSpec, and the decoder's own state go through the
// heap. At ingest rates the decode alloc rate becomes GC pressure that
// competes with the engine. This file is a hand-rolled, pooled decoder
// for exactly the Event schema:
//
//   - the request body is read into a reused buffer,
//   - the Event/TaskSpec/OverloadSpec targets are scratch structs owned
//     by the decoder (the admit handler hands them to the engine and only
//     recycles the decoder after the engine's reply),
//   - task/op names are interned in a bounded map — the no-alloc
//     map[string(bytes)] lookup makes repeated names free,
//   - numbers parse with an exact fast path (mantissa < 2^53, |exp10| ≤ 22
//     multiplies/divides by an exactly-representable power of ten, which
//     is correctly rounded); the rare hard cases fall back to
//     strconv.ParseFloat.
//
// Steady state on the hot path (known names, no ExtraLevels): 0 allocs/op,
// enforced by testing.AllocsPerRun in decode_test.go.
//
// Semantics follow the existing encoding/json handler: unknown fields are
// rejected (DisallowUnknownFields) whatever their value, null included;
// field names match case-insensitively under encoding/json's folding; null
// leaves a value unchanged and sets a pointer or slice to nil; a duplicate
// key decodes into the value already there, as encoding/json does. It is
// stricter about number syntax only where JSON itself is (leading zeros,
// bare '.'). The one deliberate difference: a bare top-level null body,
// which encoding/json decodes to the zero Event, is rejected with
// `expected "{"`. FuzzDecodeEvent holds the decoder to encoding/json.
package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	runtimepkg "nprt/internal/runtime"
	"nprt/internal/task"
)

// maxInterned bounds the name-interning map so a hostile client cannot
// grow it without limit; past the cap, unseen names simply allocate.
const maxInterned = 4096

type eventDecoder struct {
	buf     []byte // request-body scratch, reused across requests
	data    []byte // the bytes being parsed
	pos     int
	scratch []byte // string-unescape scratch
	key     []byte // folded-key scratch

	one  []runtimepkg.Event // len 1; one[0] is the scratch Event
	spec runtimepkg.TaskSpec
	over runtimepkg.OverloadSpec

	names map[string]string
}

var decoderPool = sync.Pool{New: func() any {
	d := &eventDecoder{
		one:   make([]runtimepkg.Event, 1),
		names: make(map[string]string, 64),
	}
	// The op names every request carries.
	for _, s := range []string{"add", "remove", "overload"} {
		d.names[s] = s
	}
	return d
}}

func getDecoder() *eventDecoder  { return decoderPool.Get().(*eventDecoder) }
func putDecoder(d *eventDecoder) { decoderPool.Put(d) }

// Decoder is the pooled zero-allocation Event decoder, exported for the
// sharded router (internal/cluster), which shares the /admit hot path. Get
// a decoder per request, Decode, and Put it back only after the engine is
// done with the returned scratch events.
type Decoder = eventDecoder

// GetDecoder takes a pooled decoder.
func GetDecoder() *Decoder { return getDecoder() }

// PutDecoder recycles a decoder taken with GetDecoder.
func PutDecoder(d *Decoder) { putDecoder(d) }

// Decode reads r to EOF and parses one Event. The returned slice is the
// decoder's scratch (always length 1): valid until the decoder is reused,
// so put the decoder back only after the engine is done with the event.
func (d *eventDecoder) Decode(r io.Reader) ([]runtimepkg.Event, error) {
	if err := d.readAll(r); err != nil {
		return nil, err
	}
	return d.decodeBytes(d.buf)
}

// decodeBytes parses one Event from b (which the decoder aliases — the
// caller must keep b alive and unchanged as long as the Event is in use).
func (d *eventDecoder) decodeBytes(b []byte) ([]runtimepkg.Event, error) {
	d.data, d.pos = b, 0
	d.one[0] = runtimepkg.Event{}
	d.spec = runtimepkg.TaskSpec{}
	d.over = runtimepkg.OverloadSpec{}
	if err := d.parseEvent(&d.one[0]); err != nil {
		return nil, err
	}
	d.skipWS()
	if d.pos != len(d.data) {
		return nil, d.syntaxErr("trailing data after event")
	}
	return d.one, nil
}

// readAll slurps r into the reused body buffer.
func (d *eventDecoder) readAll(r io.Reader) error {
	if cap(d.buf) == 0 {
		d.buf = make([]byte, 0, 4096)
	}
	d.buf = d.buf[:0]
	for {
		if len(d.buf) == cap(d.buf) {
			nb := make([]byte, len(d.buf), 2*cap(d.buf))
			copy(nb, d.buf)
			d.buf = nb
		}
		n, err := r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func (d *eventDecoder) syntaxErr(format string, args ...any) error {
	return fmt.Errorf("json offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *eventDecoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

func (d *eventDecoder) expect(c byte) error {
	d.skipWS()
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		return d.syntaxErr("expected %q", string(c))
	}
	d.pos++
	return nil
}

// peek reports whether the next non-WS byte is c, consuming it if so.
func (d *eventDecoder) peek(c byte) bool {
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// tryNull consumes a JSON null if present.
func (d *eventDecoder) tryNull() bool {
	d.skipWS()
	if d.pos+4 <= len(d.data) && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// parseString returns the string's bytes — a slice into the input when no
// escapes are present, the unescape scratch otherwise. Valid only until
// the next parseString call; intern or convert immediately.
func (d *eventDecoder) parseString() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for i := d.pos; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			s := d.data[start:i]
			d.pos = i + 1
			if !utf8.Valid(s) {
				d.scratch = appendCoerced(d.scratch[:0], s)
				return d.scratch, nil
			}
			return s, nil
		}
		if c == '\\' || c < 0x20 {
			return d.parseStringSlow(start)
		}
	}
	d.pos = len(d.data)
	return nil, d.syntaxErr("unterminated string")
}

// parseStringSlow handles escapes, coercing invalid sequences to U+FFFD
// exactly like encoding/json.
func (d *eventDecoder) parseStringSlow(start int) ([]byte, error) {
	d.scratch = d.scratch[:0]
	i := start
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			if !utf8.Valid(d.scratch) {
				// Raw invalid UTF-8 mixed with escapes: coerce in place.
				coerced := appendCoerced(nil, d.scratch)
				d.scratch = append(d.scratch[:0], coerced...)
			}
			return d.scratch, nil
		case c == '\\':
			if i+1 >= len(d.data) {
				d.pos = len(d.data)
				return nil, d.syntaxErr("unterminated escape")
			}
			e := d.data[i+1]
			i += 2
			switch e {
			case '"', '\\', '/':
				d.scratch = append(d.scratch, e)
			case 'b':
				d.scratch = append(d.scratch, '\b')
			case 'f':
				d.scratch = append(d.scratch, '\f')
			case 'n':
				d.scratch = append(d.scratch, '\n')
			case 'r':
				d.scratch = append(d.scratch, '\r')
			case 't':
				d.scratch = append(d.scratch, '\t')
			case 'u':
				r1, ok := d.hex4(i)
				if !ok {
					d.pos = i
					return nil, d.syntaxErr("invalid \\u escape")
				}
				i += 4
				r := rune(r1)
				if utf16.IsSurrogate(r) {
					// Try to pair it; unpaired surrogates become U+FFFD.
					if i+6 <= len(d.data) && d.data[i] == '\\' && d.data[i+1] == 'u' {
						if r2, ok := d.hex4(i + 2); ok {
							if paired := utf16.DecodeRune(r, rune(r2)); paired != utf8.RuneError {
								r = paired
								i += 6
							} else {
								r = utf8.RuneError
							}
						} else {
							r = utf8.RuneError
						}
					} else {
						r = utf8.RuneError
					}
				}
				d.scratch = utf8.AppendRune(d.scratch, r)
			default:
				d.pos = i
				return nil, d.syntaxErr("invalid escape \\%s", string(e))
			}
		case c < 0x20:
			d.pos = i
			return nil, d.syntaxErr("control character in string")
		default:
			d.scratch = append(d.scratch, c)
			i++
		}
	}
	d.pos = len(d.data)
	return nil, d.syntaxErr("unterminated string")
}

// hex4 parses 4 hex digits at offset i.
func (d *eventDecoder) hex4(i int) (uint16, bool) {
	if i+4 > len(d.data) {
		return 0, false
	}
	var v uint16
	for _, c := range d.data[i : i+4] {
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= uint16(c - '0')
		case c >= 'a' && c <= 'f':
			v |= uint16(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v |= uint16(c-'A') + 10
		default:
			return 0, false
		}
	}
	return v, true
}

// appendCoerced copies src to dst replacing invalid UTF-8 with U+FFFD.
func appendCoerced(dst, src []byte) []byte {
	for len(src) > 0 {
		r, size := utf8.DecodeRune(src)
		if r == utf8.RuneError && size == 1 {
			dst = utf8.AppendRune(dst, utf8.RuneError)
		} else {
			dst = append(dst, src[:size]...)
		}
		src = src[size:]
	}
	return dst
}

// intern returns b as a string, reusing a previously-built string when the
// same bytes were seen before (the map[string(b)] lookup does not allocate).
func (d *eventDecoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.names) < maxInterned {
		d.names[s] = s
	}
	return s
}

// scanNumber consumes one JSON number token and validates its grammar.
func (d *eventDecoder) scanNumber() ([]byte, error) {
	d.skipWS()
	start := d.pos
	i := d.pos
	n := len(d.data)
	if i < n && d.data[i] == '-' {
		i++
	}
	// Integer part: 0 | [1-9][0-9]*
	switch {
	case i < n && d.data[i] == '0':
		i++
	case i < n && d.data[i] >= '1' && d.data[i] <= '9':
		for i < n && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
	default:
		d.pos = i
		return nil, d.syntaxErr("invalid number")
	}
	if i < n && d.data[i] == '.' {
		i++
		if i >= n || d.data[i] < '0' || d.data[i] > '9' {
			d.pos = i
			return nil, d.syntaxErr("digit required after decimal point")
		}
		for i < n && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if i >= n || d.data[i] < '0' || d.data[i] > '9' {
			d.pos = i
			return nil, d.syntaxErr("digit required in exponent")
		}
		for i < n && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
	}
	d.pos = i
	return d.data[start:i], nil
}

// The field parsers below (parseInt, parseUint64, parseFloat, parseName,
// and the object parsers) decode one field value into their target. A
// null leaves the target unchanged, as encoding/json leaves a non-pointer
// field; pointer and slice fields, which null sets to nil, handle it in
// their own case. They run only once an object's switch has matched the
// key, so an unknown field is rejected whatever its value.

// parseInt parses an integer-valued number into dst (what encoding/json
// allows for an int64 target: no fraction, no exponent).
func parseInt[T ~int | ~int64](d *eventDecoder, dst *T) error {
	if d.tryNull() {
		return nil
	}
	tok, err := d.scanNumber()
	if err != nil {
		return err
	}
	neg := false
	i := 0
	if tok[0] == '-' {
		neg = true
		i = 1
	}
	var v uint64
	for ; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return d.syntaxErr("number %s is not an integer", tok)
		}
		if v > (1<<63-1-9)/10+1 { // loose pre-check; exact check below
			return d.syntaxErr("integer %s overflows int64", tok)
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		if v > 1<<63 {
			return d.syntaxErr("integer %s overflows int64", tok)
		}
		*dst = T(-int64(v))
		return nil
	}
	if v > 1<<63-1 {
		return d.syntaxErr("integer %s overflows int64", tok)
	}
	*dst = T(v)
	return nil
}

func (d *eventDecoder) parseUint64(dst *uint64) error {
	if d.tryNull() {
		return nil
	}
	tok, err := d.scanNumber()
	if err != nil {
		return err
	}
	var v uint64
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return d.syntaxErr("number %s is not an unsigned integer", tok)
		}
		const cutoff = (1<<64 - 1) / 10
		if v > cutoff || (v == cutoff && c > '5') {
			return d.syntaxErr("integer %s overflows uint64", tok)
		}
		v = v*10 + uint64(c-'0')
	}
	*dst = v
	return nil
}

// pow10 holds the exactly-representable powers of ten (10^0 … 10^22).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat parses a JSON number into dst, allocation-free for the
// common cases.
func (d *eventDecoder) parseFloat(dst *float64) error {
	if d.tryNull() {
		return nil
	}
	tok, err := d.scanNumber()
	if err != nil {
		return err
	}
	if f, ok := fastFloat(tok); ok {
		*dst = f
		return nil
	}
	f, err := strconv.ParseFloat(string(tok), 64) // rare slow path: allocates
	if err != nil {
		return d.syntaxErr("number %s: %v", tok, err)
	}
	*dst = f
	return nil
}

// parseName parses a string into dst, interned.
func (d *eventDecoder) parseName(dst *string) error {
	if d.tryNull() {
		return nil
	}
	b, err := d.parseString()
	if err != nil {
		return err
	}
	*dst = d.intern(b)
	return nil
}

// fastFloat is the Clinger fast path: when the decimal mantissa fits in
// 2^53 and the net exponent is within ±22, one float multiply/divide by an
// exact power of ten is correctly rounded. ok=false sends the caller to
// strconv.
func fastFloat(tok []byte) (float64, bool) {
	i := 0
	neg := false
	if i < len(tok) && tok[i] == '-' {
		neg = true
		i++
	}
	var mant uint64
	exp := 0
	for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
		if mant > (1<<53-1-9)/10 {
			return 0, false // mantissa would lose precision
		}
		mant = mant*10 + uint64(tok[i]-'0')
	}
	if i < len(tok) && tok[i] == '.' {
		i++
		for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
			if mant > (1<<53-1-9)/10 {
				return 0, false
			}
			mant = mant*10 + uint64(tok[i]-'0')
			exp--
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		eneg := false
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			eneg = tok[i] == '-'
			i++
		}
		e := 0
		for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
			e = e*10 + int(tok[i]-'0')
			if e > 400 {
				return 0, false
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i != len(tok) {
		return 0, false
	}
	var f float64
	switch {
	case mant == 0:
		f = 0
	case exp >= 0 && exp < len(pow10):
		f = float64(mant) * pow10[exp]
	case exp < 0 && -exp < len(pow10):
		f = float64(mant) / pow10[-exp]
	default:
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}

// objectKeys drives a `{ "key": value, ... }` loop: it returns the next
// key (nil when the object ends) and positions the parser after the colon.
func (d *eventDecoder) objectKeys(first *bool) ([]byte, error) {
	if *first {
		*first = false
		if err := d.expect('{'); err != nil {
			return nil, err
		}
		if d.peek('}') {
			return nil, nil
		}
	} else {
		if d.peek('}') {
			return nil, nil
		}
		if err := d.expect(','); err != nil {
			return nil, d.syntaxErr("expected ',' or '}' in object")
		}
	}
	key, err := d.parseString()
	if err != nil {
		return nil, err
	}
	if err := d.expect(':'); err != nil {
		return nil, err
	}
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return d.foldKey(key), nil
		}
	}
	return key, nil
}

// foldKey rewrites the two non-ASCII runes whose case-fold set holds an
// ASCII letter, ſ (U+017F, with s) and the Kelvin sign K (U+212A, with k),
// to that letter, so foldEq matches every key encoding/json's folding does.
func (d *eventDecoder) foldKey(key []byte) []byte {
	d.key = d.key[:0]
	for len(key) > 0 {
		r, n := utf8.DecodeRune(key)
		switch r {
		case '\u017F': // ſ
			d.key = append(d.key, 's')
		case '\u212A': // Kelvin sign
			d.key = append(d.key, 'k')
		default:
			d.key = append(d.key, key[:n]...)
		}
		key = key[n:]
	}
	return d.key
}

// foldEq is ASCII-case-insensitive equality against a letters-only field
// name (the match rule encoding/json applies to untagged fields).
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i]|0x20 != s[i]|0x20 {
			return false
		}
	}
	return true
}

func (d *eventDecoder) parseEvent(ev *runtimepkg.Event) error {
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		switch {
		case foldEq(key, "epoch"):
			err = parseInt(d, &ev.Epoch)
		case foldEq(key, "op"):
			err = d.parseName(&ev.Op)
		case foldEq(key, "task"):
			if d.tryNull() {
				ev.Task, d.spec = nil, runtimepkg.TaskSpec{}
			} else if err = d.parseTaskSpec(&d.spec); err == nil {
				ev.Task = &d.spec
			}
		case foldEq(key, "name"):
			err = d.parseName(&ev.Name)
		case foldEq(key, "overload"):
			if d.tryNull() {
				ev.Overload, d.over = nil, runtimepkg.OverloadSpec{}
			} else if err = d.parseOverload(&d.over); err == nil {
				ev.Overload = &d.over
			}
		case foldEq(key, "seq"):
			err = d.parseUint64(&ev.Seq)
		default:
			return d.syntaxErr("unknown field %q in event", key)
		}
		if err != nil {
			return err
		}
	}
}

func (d *eventDecoder) parseTaskSpec(spec *runtimepkg.TaskSpec) error {
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		switch {
		case foldEq(key, "task"):
			err = d.parseTask(&spec.Task)
		case foldEq(key, "criticality"):
			err = parseInt(d, &spec.Criticality)
		default:
			return d.syntaxErr("unknown field %q in task spec", key)
		}
		if err != nil {
			return err
		}
	}
}

func (d *eventDecoder) parseTask(tt *task.Task) error {
	if d.tryNull() {
		return nil
	}
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		switch {
		case foldEq(key, "id"):
			err = parseInt(d, &tt.ID)
		case foldEq(key, "name"):
			err = d.parseName(&tt.Name)
		case foldEq(key, "period"):
			err = parseInt(d, &tt.Period)
		case foldEq(key, "release"):
			err = parseInt(d, &tt.Release)
		case foldEq(key, "wcetaccurate"):
			err = parseInt(d, &tt.WCETAccurate)
		case foldEq(key, "wcetimprecise"):
			err = parseInt(d, &tt.WCETImprecise)
		case foldEq(key, "execaccurate"):
			err = d.parseDist(&tt.ExecAccurate)
		case foldEq(key, "execimprecise"):
			err = d.parseDist(&tt.ExecImprecise)
		case foldEq(key, "error"):
			err = d.parseDist(&tt.Error)
		case foldEq(key, "maxconsecutiveimprecise"):
			err = parseInt(d, &tt.MaxConsecutiveImprecise)
		case foldEq(key, "extralevels"):
			err = d.parseExtraLevels(tt)
		default:
			return d.syntaxErr("unknown field %q in task", key)
		}
		if err != nil {
			return err
		}
	}
}

func (d *eventDecoder) parseDist(dist *task.Dist) error {
	if d.tryNull() {
		return nil
	}
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		var target *float64
		switch {
		case foldEq(key, "mean"):
			target = &dist.Mean
		case foldEq(key, "sigma"):
			target = &dist.Sigma
		case foldEq(key, "min"):
			target = &dist.Min
		case foldEq(key, "max"):
			target = &dist.Max
		default:
			return d.syntaxErr("unknown field %q in dist", key)
		}
		if err := d.parseFloat(target); err != nil {
			return err
		}
	}
}

// parseExtraLevels decodes the levels array the way encoding/json decodes
// into a slice: null sets it to nil, element i merges into the i-th
// element of the array already there (a duplicate key), growth appends
// zero levels, and an empty array is a fresh empty slice. The slice is
// never pooled decoder memory, because the runtime retains the task it
// admits, so events with extra levels allocate; they are off the
// zero-alloc hot path by design.
func (d *eventDecoder) parseExtraLevels(tt *task.Task) error {
	if d.tryNull() {
		tt.ExtraLevels = nil
		return nil
	}
	if err := d.expect('['); err != nil {
		return err
	}
	lv := tt.ExtraLevels
	n := 0
	if !d.peek(']') {
		for {
			if n == cap(lv) {
				lv = append(lv[:n], task.Level{})
			}
			lv = lv[:n+1]
			if err := d.parseLevel(&lv[n]); err != nil {
				return err
			}
			n++
			if d.peek(']') {
				break
			}
			if err := d.expect(','); err != nil {
				return d.syntaxErr("expected ',' or ']' in levels array")
			}
		}
	}
	if n == 0 {
		lv = []task.Level{}
	}
	tt.ExtraLevels = lv[:n]
	return nil
}

func (d *eventDecoder) parseLevel(lv *task.Level) error {
	if d.tryNull() {
		return nil
	}
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		switch {
		case foldEq(key, "wcet"):
			err = parseInt(d, &lv.WCET)
		case foldEq(key, "exec"):
			err = d.parseDist(&lv.Exec)
		case foldEq(key, "error"):
			err = d.parseDist(&lv.Error)
		default:
			return d.syntaxErr("unknown field %q in level", key)
		}
		if err != nil {
			return err
		}
	}
}

func (d *eventDecoder) parseOverload(ov *runtimepkg.OverloadSpec) error {
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		switch {
		case foldEq(key, "rates"):
			err = d.parseFaultRates(ov)
		case foldEq(key, "epochs"):
			err = parseInt(d, &ov.Epochs)
		default:
			return d.syntaxErr("unknown field %q in overload", key)
		}
		if err != nil {
			return err
		}
	}
}

func (d *eventDecoder) parseFaultRates(ov *runtimepkg.OverloadSpec) error {
	if d.tryNull() {
		return nil
	}
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		var target *float64
		switch {
		case foldEq(key, "overrunprob"):
			target = &ov.Rates.OverrunProb
		case foldEq(key, "overrunfactor"):
			target = &ov.Rates.OverrunFactor
		case foldEq(key, "abortprob"):
			target = &ov.Rates.AbortProb
		case foldEq(key, "abortpoint"):
			target = &ov.Rates.AbortPoint
		case foldEq(key, "dropprob"):
			target = &ov.Rates.DropProb
		default:
			return d.syntaxErr("unknown field %q in fault rates", key)
		}
		if err := d.parseFloat(target); err != nil {
			return err
		}
	}
}
