package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	gumbo "repro"
)

// A load body is parsed in one pass, straight into the values a relation
// stores. It accepts exactly what encoding/json accepted when it decoded
// the body into a struct of this shape, each tuple value into an
// interface and numbers into json.Number:
//
//	{"relations": [{"name": string, "arity": int, "tuples": [[value, ...], ...]}]}
//
// That is:
//
//   - the whole first JSON value is checked, its syntax and nesting
//     depth as encoding/json's scanner checks them; bytes after it are
//     ignored;
//   - field names match case-insensitively (Unicode simple folding);
//     unknown fields are skipped; null leaves a field as it was; a
//     repeated field's last value wins, and a repeated "relations" array
//     decodes its entries over the earlier array's, field by field;
//   - "arity" is an integer as strconv.ParseInt reads one;
//   - a tuple is an array of values, or null for a tuple of none;
//   - a string holding an escape or a byte ≥ 0x80 is unquoted by
//     encoding/json itself, so invalid UTF-8 and lone surrogates become
//     U+FFFD exactly as they did.
//
// A value of the wrong type anywhere fails the body, once its syntax is
// known to be good. Tuple values are not type errors: a value that is
// neither a string nor a non-negative integer is recorded, and
// handleLoad reports it in its turn.

// loadRelation is one relation of a load body, decoded: its values are
// one flat, pointer-free slice, row after row, with strings interned as
// they were parsed.
type loadRelation struct {
	name  string
	arity int
	vals  []gumbo.Value // a window on the load's value arena
	rows  int
	// width is row 0's width; odd is the first row of another width (0:
	// none, as row 0 cannot be one) and oddWidth that row's width.
	// Together they name the first row that misfits any arity.
	width, odd, oddWidth int
	// bad is the first value, in row-major order, that is neither a
	// string nor a non-negative integer (nil: none); badRow is its row.
	bad    error
	badRow int
}

// misfit returns the first row whose width is not the declared arity,
// and that width; row is -1 when every row fits.
func (r *loadRelation) misfit() (row, width int) {
	switch {
	case r.rows > 0 && r.width != r.arity:
		return 0, r.width
	case r.odd > 0:
		return r.odd, r.oddWidth
	}
	return -1, 0
}

// loadBuffers is one load's scratch: the body, and the arena every
// relation's values are parsed into. Both are pointer-free. loadPool
// keeps them between loads, so a load allocates little more than the
// relations it builds; they serve one load at a time and nothing
// outlives it.
type loadBuffers struct {
	body bytes.Buffer
	vals []gumbo.Value
}

var loadPool = sync.Pool{New: func() any { return new(loadBuffers) }}

// maxDepth is encoding/json's nesting limit: a body nested deeper is a
// syntax error there, so it is one here.
const maxDepth = 10000

// errTruncated reports a body that ended inside its first value.
var errTruncated = io.ErrUnexpectedEOF

// loadParser holds a load body, the parse position in it and the value
// arena.
type loadParser struct {
	data  []byte
	off   int
	depth int
	vals  []gumbo.Value
	// typeErr is the first value of the wrong type. Parsing goes on past
	// it, as encoding/json's decoding does, so that a syntax error or a
	// truncation later in the body is what the caller sees.
	typeErr error
}

// parseLoad decodes the body in buf into its relations, in order,
// whose values live in buf.vals. whole reports that the body is
// complete; when it is only a prefix (the read stopped at an error),
// errTruncated reports a first value that may not be complete.
func parseLoad(buf *loadBuffers, whole bool) ([]loadRelation, error) {
	data := buf.body.Bytes()
	p := loadParser{data: data, vals: buf.vals[:0]}
	defer func() { buf.vals = p.vals }()
	// rels keeps every entry since the relations array was last reset:
	// encoding/json decodes a repeated array's entries over them.
	var rels []loadRelation
	n := 0
	ok, err := p.want("{", "a load request object")
	if !ok && err == nil && !whole && p.off == len(data) && data[p.off-1] != ']' {
		// A scalar ends at the byte after it, so one that runs to the end
		// of a cut-short body may be incomplete.
		err = errTruncated
	}
	more := false
	if ok {
		more, err = p.open('}')
	}
	for more && err == nil {
		var key string
		if key, err = p.key(); err != nil {
			break
		}
		if strings.EqualFold(key, "relations") {
			rels, n, err = p.relations(rels)
		} else {
			err = p.skip()
		}
		if err == nil {
			more, err = p.next('}')
		}
	}
	if err == nil {
		err = p.typeErr
	}
	if err != nil {
		return nil, err
	}
	return rels[:n], nil
}

// relations decodes the "relations" array over rels and returns every
// entry kept and how many the array held.
func (p *loadParser) relations(rels []loadRelation) ([]loadRelation, int, error) {
	ok, err := p.want("[", "an array of relations")
	if !ok {
		return nil, 0, err
	}
	more, err := p.open(']')
	n := 0
	for ; more && err == nil; n++ {
		if n == len(rels) {
			rels = append(rels, loadRelation{})
		}
		if err = p.relation(&rels[n]); err == nil {
			more, err = p.next(']')
		}
	}
	if n == 0 {
		rels = nil
	}
	return rels, n, err
}

// relation decodes one entry of the relations array over r.
func (p *loadParser) relation(r *loadRelation) error {
	ok, err := p.want("{", "a relation object")
	if !ok {
		return err
	}
	more, err := p.open('}')
	for more && err == nil {
		var key string
		if key, err = p.key(); err != nil {
			break
		}
		switch {
		case strings.EqualFold(key, "name"):
			if ok, err = p.want(`"`, "a string name"); ok {
				r.name, err = p.text()
			}
		case strings.EqualFold(key, "arity"):
			err = p.arity(r)
		case strings.EqualFold(key, "tuples"):
			err = p.tuples(r)
		default:
			err = p.skip()
		}
		if err == nil {
			more, err = p.next('}')
		}
	}
	return err
}

func (p *loadParser) arity(r *loadRelation) error {
	ok, err := p.want("-0123456789", "an integer arity")
	if !ok {
		return err
	}
	lit, err := p.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		if p.typeErr == nil {
			p.typeErr = fmt.Errorf("arity %s is not an integer", lit)
		}
		return nil
	}
	r.arity = int(n)
	return nil
}

// tuples decodes the "tuples" array into r, replacing its rows.
func (p *loadParser) tuples(r *loadRelation) error {
	*r = loadRelation{name: r.name, arity: r.arity}
	ok, err := p.want("[", "an array of tuples")
	if !ok {
		return err
	}
	start := len(p.vals)
	more, err := p.open(']')
	for ; more && err == nil; r.rows++ {
		if err = p.row(r); err == nil {
			more, err = p.next(']')
		}
	}
	r.vals = p.vals[start:]
	return err
}

// row decodes one tuple, null being a tuple of no values, and appends
// its values to r.
func (p *loadParser) row(r *loadRelation) error {
	ok, err := p.want("[", "a tuple array")
	width := 0
	if ok {
		var more bool
		more, err = p.open(']')
		for ; more && err == nil; width++ {
			if err = p.value(r, width); err == nil {
				more, err = p.next(']')
			}
		}
	}
	if r.rows == 0 {
		r.width = width
	} else if width != r.width && r.odd == 0 {
		r.odd, r.oddWidth = r.rows, width
	}
	return err
}

// value decodes value col of r's current row: a string is interned, a
// non-negative integer taken as it is, and anything else recorded as
// r's bad value, if it is the first, with the message handleLoad has
// always given for it. A negative integer is bad rather than interned
// as text: relation.Value reserves negative handles for strings, so it
// could not round-trip back as a JSON number.
func (p *loadParser) value(r *loadRelation, col int) error {
	c, err := p.peek()
	if err != nil {
		return err
	}
	var v gumbo.Value
	var bad error
	switch {
	case c == '"':
		s, err := p.text()
		if err != nil {
			return err
		}
		v = gumbo.Str(s)
	case c == '-' || '0' <= c && c <= '9':
		lit, err := p.number()
		if err != nil {
			return err
		}
		switch n, err := parseInt(lit); {
		case err != nil:
			bad = fmt.Errorf("value %d: %q is not an integer", col, lit)
		case n < 0:
			bad = fmt.Errorf("value %d: negative integer %d is not representable; send it as a string", col, n)
		default:
			v = gumbo.Int(n)
		}
	default:
		// typ has the Go type encoding/json decoded the value to.
		var typ any
		switch c {
		case 't', 'f':
			typ = false
		case '{':
			typ = map[string]any(nil)
		case '[':
			typ = []any(nil)
		}
		if err := p.skip(); err != nil {
			return err
		}
		bad = fmt.Errorf("value %d: unsupported JSON type %T (want integer or string)", col, typ)
	}
	if bad != nil && r.bad == nil {
		r.bad, r.badRow = bad, r.rows
	}
	if len(p.vals) == cap(p.vals) {
		// Double: append's 1.25× steps past 256 values would allocate
		// about five times the final size on the way.
		p.vals = slices.Grow(p.vals, max(len(p.vals), 1024))
	}
	p.vals = append(p.vals, v)
	return nil
}

// parseInt is strconv.ParseInt(string(lit), 10, 64) for a JSON number
// literal. One of at most 18 digits cannot overflow and is read here.
func parseInt(lit []byte) (int64, error) {
	digits := bytes.TrimPrefix(lit, []byte("-"))
	if len(digits) > 18 {
		return strconv.ParseInt(string(lit), 10, 64)
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' { // a fraction or an exponent
			return strconv.ParseInt(string(lit), 10, 64)
		}
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(lit) {
		n = -n
	}
	return n, nil
}

// ---- the scanner: syntax as encoding/json checks it ----

// want reports whether the next value starts with one of the bytes in
// starts. Otherwise a null is consumed, leaving the field it was for as
// it was, and any other value is recorded as the wrong type and
// skipped.
func (p *loadParser) want(starts, what string) (bool, error) {
	c, err := p.peek()
	switch {
	case err != nil:
		return false, err
	case strings.IndexByte(starts, c) >= 0:
		return true, nil
	case c == 'n':
		return false, p.literal("null")
	}
	if p.typeErr == nil {
		p.typeErr = fmt.Errorf("offset %d: want %s", p.off, what)
	}
	return false, p.skip()
}

// peek skips whitespace and returns the next byte.
func (p *loadParser) peek() (byte, error) {
	for ; p.off < len(p.data); p.off++ {
		switch c := p.data[p.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, nil
		}
	}
	return 0, errTruncated
}

// syntaxError reports the byte at the offset.
func (p *loadParser) syntaxError() error {
	if p.off >= len(p.data) {
		return errTruncated
	}
	return fmt.Errorf("invalid character %q at offset %d", p.data[p.off], p.off)
}

// open consumes the '[' or '{' at the offset and reports whether an
// element follows; when none does, the closing byte is consumed too.
func (p *loadParser) open(closing byte) (bool, error) {
	p.off++
	if p.depth++; p.depth > maxDepth {
		return false, fmt.Errorf("offset %d: nested deeper than %d", p.off, maxDepth)
	}
	c, err := p.peek()
	if err != nil || c != closing {
		return true, err
	}
	p.off++
	p.depth--
	return false, nil
}

// next consumes what follows an element: a comma, when another element
// follows, or the closing byte.
func (p *loadParser) next(closing byte) (bool, error) {
	c, err := p.peek()
	switch {
	case err != nil:
		return false, err
	case c == ',':
		p.off++
		return true, nil
	case c == closing:
		p.off++
		p.depth--
		return false, nil
	}
	return false, p.syntaxError()
}

// key decodes an object member's name and the colon after it.
func (p *loadParser) key() (string, error) {
	if c, err := p.peek(); err != nil || c != '"' {
		return "", p.syntaxError()
	}
	k, err := p.text()
	if err != nil {
		return "", err
	}
	if c, err := p.peek(); err != nil || c != ':' {
		return "", p.syntaxError()
	}
	p.off++
	return k, nil
}

// text decodes the string at the offset.
func (p *loadParser) text() (string, error) {
	raw, plain, err := p.str()
	if err != nil {
		return "", err
	}
	if plain {
		return string(raw[1 : len(raw)-1]), nil
	}
	var s string
	err = json.Unmarshal(raw, &s)
	return s, err
}

// str scans the string at the offset and returns it, quotes included.
// plain reports that it holds no escape and no byte ≥ 0x80, so that its
// text is the bytes between the quotes.
func (p *loadParser) str() (raw []byte, plain bool, err error) {
	d, start := p.data, p.off
	plain = true
	for i := start + 1; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			p.off = i + 1
			return d[start:p.off], plain, nil
		case c < 0x20:
			p.off = i
			return nil, false, p.syntaxError()
		case c >= 0x80:
			plain = false
			i++
		case c != '\\':
			i++
		case i+1 == len(d):
			return nil, false, errTruncated
		case d[i+1] == 'u':
			plain = false
			for k := i + 2; k < i+6; k++ {
				if k == len(d) {
					return nil, false, errTruncated
				}
				if !isHex(d[k]) {
					p.off = k
					return nil, false, p.syntaxError()
				}
			}
			i += 6
		case strings.IndexByte(`"\/bfnrt`, d[i+1]) >= 0:
			plain = false
			i += 2
		default:
			p.off = i + 1
			return nil, false, p.syntaxError()
		}
	}
	return nil, false, errTruncated
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number scans the number at the offset and returns its literal.
func (p *loadParser) number() ([]byte, error) {
	d := p.data
	i := p.off
	if d[i] == '-' {
		i++
	}
	var err error
	if i < len(d) && d[i] == '0' {
		i++
	} else if i, err = p.digits(i); err != nil {
		return nil, err
	}
	if i < len(d) && d[i] == '.' {
		if i, err = p.digits(i + 1); err != nil {
			return nil, err
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i, err = p.digits(i); err != nil {
			return nil, err
		}
	}
	lit := d[p.off:i]
	p.off = i
	return lit, nil
}

// digits returns the end of the run of one or more digits at i.
func (p *loadParser) digits(i int) (int, error) {
	start := i
	for i < len(p.data) && '0' <= p.data[i] && p.data[i] <= '9' {
		i++
	}
	if i == start {
		p.off = i
		return i, p.syntaxError()
	}
	return i, nil
}

// literal consumes true, false or null.
func (p *loadParser) literal(word string) error {
	rest := p.data[p.off:]
	for i := 0; i < len(word); i++ {
		if i == len(rest) {
			return errTruncated
		}
		if rest[i] != word[i] {
			p.off += i
			return p.syntaxError()
		}
	}
	p.off += len(word)
	return nil
}

// skip checks and skips the value at the offset.
func (p *loadParser) skip() error {
	c, err := p.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		_, _, err = p.str()
	case c == '{' || c == '[':
		closing := byte(']')
		if c == '{' {
			closing = '}'
		}
		var more bool
		more, err = p.open(closing)
		for more && err == nil {
			if c == '{' {
				_, err = p.key()
			}
			if err == nil {
				err = p.skip()
			}
			if err == nil {
				more, err = p.next(closing)
			}
		}
	case c == 't':
		err = p.literal("true")
	case c == 'f':
		err = p.literal("false")
	case c == 'n':
		err = p.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err = p.number()
	default:
		err = p.syntaxError()
	}
	return err
}
