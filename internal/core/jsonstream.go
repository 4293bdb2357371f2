package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The byte-level JSON the envelope codec streams: appenders that render
// floats and strings exactly as encoding/json does, and a reader that
// tokenizes a stream through one fixed buffer.

// appendJSONFloat appends f as encoding/json renders a float64: the
// shortest round-trip form, in 'e' notation below 1e-6 and from 1e21 up
// with a one-digit negative exponent as e-7, not e-07. f must be finite
// (checkFinite).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// checkFinite returns the error encoding/json gives for f when f is NaN or
// infinite, nil otherwise.
func checkFinite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped with HTML
// escaping on: printable characters except ", \, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on: \", \\, \b, \f, \n, \r and \t; \u00XX for other
// control bytes and for <, > and &; \ufffd for each byte of invalid
// UTF-8; and U+2028 and U+2029 escaped.
func appendJSONString[S []byte | string](b []byte, s S) []byte {
	b = append(b, '"')
	b = appendJSONStringBody(b, s)
	return append(b, '"')
}

// appendJSONStringBody is appendJSONString without the quotes.
func appendJSONStringBody[S []byte | string](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		// At most UTFMax bytes go through the conversion, so a byte
		// slice's copy stays on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// jsonReader tokenizes a JSON stream through one fixed buffer: the
// unread bytes are buf[r:w]. It accepts a subset of what encoding/json
// accepts: strings must be valid UTF-8 and numbers at most maxNumLen
// bytes long.
type jsonReader struct {
	src  io.Reader
	buf  []byte
	r, w int
	err  error // the source's first error, io.EOF at its end
	off  int64 // stream offset of buf[0]

	// capture, when at least 0, is where in buf the value being captured
	// (raw) starts; bytes shifted out of buf on a refill move to rec.
	capture int
	rec     []byte
	keyBuf  []byte // object keys that are escaped or straddle a refill

	floats floatMemo
}

// floatMemo remembers recently parsed float literals in a direct-mapped
// table keyed by a hash of the literal's bytes. The node table repeats
// most coordinates (a node's location ends its own route and starts each
// child's), and a hit skips strconv.ParseFloat.
type floatMemo struct {
	lit [1024][24]byte
	n   [1024]uint8 // literal length, 0 for an empty entry
	val [1024]float64
}

// maxNumLen bounds a number literal; encoding/json's longest float64 is
// 24 bytes.
const maxNumLen = 64

// maxDepth bounds the nesting of skipped values, as encoding/json does.
const maxDepth = 10000

func newJSONReader(src io.Reader) *jsonReader {
	return &jsonReader{src: src, buf: make([]byte, 64<<10), capture: -1}
}

// syntaxErr reports malformed input at the current offset.
func (d *jsonReader) syntaxErr(format string, args ...any) error {
	return fmt.Errorf("core: decode result: offset %d: %s", d.off+int64(d.r), fmt.Sprintf(format, args...))
}

// eofErr reports input that ended early, or the source's own error.
func (d *jsonReader) eofErr() error {
	if d.err != nil && d.err != io.EOF {
		return fmt.Errorf("core: decode result: %w", d.err)
	}
	return fmt.Errorf("core: decode result: %w", io.ErrUnexpectedEOF)
}

// more moves the unread bytes to the front of buf and reads from the
// source into the room behind them. It reports whether any byte arrived.
// A source that keeps returning nothing fails with io.ErrNoProgress, as
// in bufio.
func (d *jsonReader) more() bool {
	if d.err != nil {
		return false
	}
	if d.capture >= 0 {
		d.rec = append(d.rec, d.buf[d.capture:d.r]...)
		d.capture = 0
	}
	n := copy(d.buf, d.buf[d.r:d.w])
	d.off += int64(d.r)
	d.r, d.w = 0, n
	for tries := 0; d.err == nil; tries++ {
		if tries == 100 {
			d.err = io.ErrNoProgress
			break
		}
		m, err := d.src.Read(d.buf[d.w:])
		d.w += m
		d.err = err
		if m > 0 {
			return true
		}
	}
	return false
}

// ensure makes at least n bytes unread, short only at the end of input.
func (d *jsonReader) ensure(n int) {
	for d.w-d.r < n && d.more() {
	}
}

// next skips whitespace and returns the next byte without consuming it;
// ok is false at the end of input.
func (d *jsonReader) next() (c byte, ok bool) {
	for {
		for d.r < d.w {
			switch c := d.buf[d.r]; c {
			case ' ', '\t', '\n', '\r':
				d.r++
			default:
				return c, true
			}
		}
		if !d.more() {
			return 0, false
		}
	}
}

// expect consumes c, after any whitespace.
func (d *jsonReader) expect(c byte) error {
	got, ok := d.next()
	switch {
	case !ok:
		return d.eofErr()
	case got != c:
		return d.syntaxErr("want %q, have %q", c, got)
	}
	d.r++
	return nil
}

// literal consumes the keyword lit (null, true or false).
func (d *jsonReader) literal(lit string) error {
	d.ensure(len(lit))
	if d.w-d.r < len(lit) {
		return d.eofErr()
	}
	if string(d.buf[d.r:d.r+len(lit)]) != lit {
		return d.syntaxErr("invalid literal")
	}
	d.r += len(lit)
	return nil
}

// null consumes a null literal if one comes next and reports whether it
// did.
func (d *jsonReader) null() (bool, error) {
	c, ok := d.next()
	if !ok || c != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// object consumes a JSON object, calling member after each key with the
// reader at the member's value, which member must consume. The key is
// valid until member's first read.
func (d *jsonReader) object(member func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	c, ok := d.next()
	if !ok {
		return d.eofErr()
	}
	if c == '}' {
		d.r++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		if c, ok = d.next(); !ok {
			return d.eofErr()
		}
		d.r++
		switch c {
		case ',':
		case '}':
			return nil
		default:
			d.r--
			return d.syntaxErr("want ',' or '}' after an object member")
		}
	}
}

// array consumes a JSON array, calling elem with the reader at each
// element, which elem must consume.
func (d *jsonReader) array(elem func() error) error {
	if err := d.expect('['); err != nil {
		return err
	}
	c, ok := d.next()
	if !ok {
		return d.eofErr()
	}
	if c == ']' {
		d.r++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if c, ok = d.next(); !ok {
			return d.eofErr()
		}
		d.r++
		switch c {
		case ',':
		case ']':
			return nil
		default:
			d.r--
			return d.syntaxErr("want ',' or ']' after an array element")
		}
	}
}

// key consumes an object key and the colon after it. A plain key whose
// colon is already buffered is returned as a view into the buffer, valid
// until the next read.
func (d *jsonReader) key() ([]byte, error) {
	c, ok := d.next()
	if !ok {
		return nil, d.eofErr()
	}
	if c != '"' {
		return nil, d.syntaxErr("want an object key")
	}
	for i := d.r + 1; i < d.w; i++ {
		c := d.buf[i]
		if c == '"' {
			j := i + 1
			for j < d.w && (d.buf[j] == ' ' || d.buf[j] == '\t' || d.buf[j] == '\n' || d.buf[j] == '\r') {
				j++
			}
			if j == d.w || d.buf[j] != ':' {
				break
			}
			k := d.buf[d.r+1 : i]
			d.r = j + 1
			return k, nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
	}
	var err error
	if d.keyBuf, err = d.str(d.keyBuf[:0]); err != nil {
		return nil, err
	}
	return d.keyBuf, d.expect(':')
}

// str consumes a JSON string and appends its unescaped contents to dst.
// Escapes decode as encoding/json decodes them; raw bytes must be valid
// UTF-8.
func (d *jsonReader) str(dst []byte) ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return dst, err
	}
	dst, _, err := d.strPart(dst, math.MaxInt)
	return dst, err
}

// strPart continues a string whose opening quote is consumed, appending
// its unescaped contents to dst until it has consumed the closing quote
// (done) or dst has reached limit bytes.
func (d *jsonReader) strPart(dst []byte, limit int) (_ []byte, done bool, _ error) {
	for len(dst) < limit {
		i := d.r
		for i < d.w {
			if c := d.buf[i]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
				break
			}
			i++
		}
		dst = append(dst, d.buf[d.r:i]...)
		d.r = i
		if i == d.w {
			if !d.more() {
				return dst, false, d.eofErr()
			}
			continue
		}
		switch c := d.buf[i]; {
		case c == '"':
			d.r++
			return dst, true, nil
		case c < ' ':
			return dst, false, d.syntaxErr("control character in string")
		case c == '\\':
			d.ensure(2)
			if d.w-d.r < 2 {
				return dst, false, d.eofErr()
			}
			switch e := d.buf[d.r+1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				d.ensure(12)
				r := d.u4(d.r)
				if r < 0 {
					return dst, false, d.syntaxErr("bad \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A valid pair decodes to one rune; anything else is
					// the replacement character, as in encoding/json.
					if r2 := d.u4(d.r + 6); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							dst = utf8.AppendRune(dst, dec)
							d.r += 12
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				d.r += 6
				continue
			default:
				return dst, false, d.syntaxErr("bad escape")
			}
			d.r += 2
		default:
			d.ensure(utf8.UTFMax)
			r, size := utf8.DecodeRune(d.buf[d.r:d.w])
			if r == utf8.RuneError && size == 1 {
				return dst, false, d.syntaxErr("invalid UTF-8 in string")
			}
			dst = append(dst, d.buf[d.r:d.r+size]...)
			d.r += size
		}
	}
	return dst, false, nil
}

// stringReader reads the contents of a JSON string, unescaped, as the
// reader streams it: the benchmark text goes from the envelope to
// bench.Read without being held whole.
type stringReader struct {
	d       *jsonReader
	scratch []byte
	pending []byte // unescaped bytes not yet read
	done    bool
	err     error
}

// Read implements io.Reader.
func (s *stringReader) Read(p []byte) (int, error) {
	for len(s.pending) == 0 {
		switch {
		case s.err != nil:
			return 0, s.err
		case s.done:
			return 0, io.EOF
		}
		s.scratch, s.done, s.err = s.d.strPart(s.scratch[:0], 32<<10)
		s.pending = s.scratch
	}
	n := copy(p, s.pending)
	s.pending = s.pending[n:]
	return n, nil
}

// u4 decodes the \uXXXX escape at buf[at:], -1 if there is none.
func (d *jsonReader) u4(at int) rune {
	if d.w-at < 6 || d.buf[at] != '\\' || d.buf[at+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.buf[at+2 : at+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number consumes a JSON number literal and returns its bytes, valid until
// the next read. isInt reports a literal without fraction or exponent.
func (d *jsonReader) number() (lit []byte, isInt bool, err error) {
	if _, ok := d.next(); !ok {
		return nil, false, d.eofErr()
	}
	d.ensure(maxNumLen + 1)
	b := d.buf[d.r:d.w]
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch j := skipDigits(b, i); {
	case i < len(b) && b[i] == '0':
		i++
	case j == i:
		return nil, false, d.syntaxErr("want a number")
	default:
		i = j
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return nil, false, d.syntaxErr("bad number fraction")
		}
		i, isInt = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return nil, false, d.syntaxErr("bad number exponent")
		}
		i, isInt = j, false
	}
	if i > maxNumLen {
		return nil, false, d.syntaxErr("number literal longer than %d bytes", maxNumLen)
	}
	d.r += i
	return b[:i], isInt, nil
}

// skipDigits returns the index of the first non-digit in b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float consumes a number as a float64, rejecting what encoding/json
// cannot store in one.
func (d *jsonReader) float() (float64, error) {
	lit, _, err := d.number()
	if err != nil {
		return 0, err
	}
	m := &d.floats
	h := uint64(len(lit))
	if len(lit) >= 8 {
		h ^= binary.LittleEndian.Uint64(lit) ^ bits.RotateLeft64(binary.LittleEndian.Uint64(lit[len(lit)-8:]), 29)
	} else {
		for _, c := range lit {
			h = h<<8 | uint64(c)
		}
	}
	h = (h * 0x9E3779B97F4A7C15) >> 54
	if n := int(m.n[h]); n == len(lit) && string(m.lit[h][:n]) == string(lit) {
		return m.val[h], nil
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, d.syntaxErr("number %s does not fit a float64", lit)
	}
	if len(lit) <= len(m.lit[h]) {
		m.n[h] = uint8(copy(m.lit[h][:], lit))
		m.val[h] = f
	}
	return f, nil
}

// int consumes an integer literal in [lo, hi].
func (d *jsonReader) int(lo, hi int64) (int64, error) {
	lit, isInt, err := d.number()
	if err != nil {
		return 0, err
	}
	if !isInt {
		return 0, d.syntaxErr("number %s is not an integer", lit)
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || v < lo || v > hi {
		return 0, d.syntaxErr("integer %s out of range", lit)
	}
	return v, nil
}

// raw consumes one JSON value and returns its bytes.
func (d *jsonReader) raw() ([]byte, error) {
	if _, ok := d.next(); !ok {
		return nil, d.eofErr()
	}
	d.capture, d.rec = d.r, d.rec[:0]
	err := d.skip(0)
	out := append(d.rec, d.buf[d.capture:d.r]...)
	d.capture, d.rec = -1, out[:0]
	return out, err
}

// unmarshal consumes one JSON value into v through encoding/json, for the
// envelope's small parts.
func (d *jsonReader) unmarshal(v any) error {
	raw, err := d.raw()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("core: decode result: %w", err)
	}
	return nil
}

// skip consumes one JSON value of any kind, checking its syntax.
func (d *jsonReader) skip(depth int) error {
	if depth > maxDepth {
		return d.syntaxErr("values nested deeper than %d", maxDepth)
	}
	c, ok := d.next()
	if !ok {
		return d.eofErr()
	}
	switch {
	case c == '{':
		return d.object(func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(func() error { return d.skip(depth + 1) })
	case c == '"':
		_, err := d.str(nil)
		return err
	case c == 'n':
		return d.literal("null")
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.number()
		return err
	}
	return d.syntaxErr("unexpected %q", c)
}
