package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseError describes a syntax error in N-Triples input, with 1-based line
// and column positions.
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: parse error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// ReadNTriples parses N-Triples from r into a new graph. Comment lines
// (starting with '#') and blank lines are skipped. Parsing stops at the
// first syntax error.
func ReadNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	if err := ReadNTriplesInto(g, r); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadNTriplesInto parses N-Triples from r into an existing graph, so
// callers loading many versions of one dataset (e.g. "store pack") can
// intern them all into one shared dictionary.
func ReadNTriplesInto(g *Graph, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		t, ok, err := ParseTripleLine(sc.Text(), line)
		if err != nil {
			return err
		}
		if ok {
			g.Add(t)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("rdf: reading n-triples: %w", err)
	}
	return nil
}

// WriteNTriples serializes the graph to w in deterministic (sorted) order.
func WriteNTriples(w io.Writer, g *Graph) error {
	ts := g.Triples()
	SortTriples(ts)
	bw := bufio.NewWriter(w)
	for _, t := range ts {
		if _, err := bw.WriteString(t.String()); err != nil {
			return fmt.Errorf("rdf: writing n-triples: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("rdf: writing n-triples: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("rdf: writing n-triples: %w", err)
	}
	return nil
}

// ParseTripleLine parses one N-Triples line. It returns ok=false for blank
// and comment lines. line is used only for error positions.
func ParseTripleLine(s string, line int) (Triple, bool, error) {
	p := &ntParser{s: s, line: line}
	p.skipWS()
	if p.eof() || p.peek() == '#' {
		return Triple{}, false, nil
	}
	subj, err := p.term()
	if err != nil {
		return Triple{}, false, err
	}
	if subj.IsLiteral() {
		return Triple{}, false, p.errf("literal not allowed as subject")
	}
	p.skipWS()
	pred, err := p.term()
	if err != nil {
		return Triple{}, false, err
	}
	if !pred.IsIRI() {
		return Triple{}, false, p.errf("predicate must be an IRI")
	}
	p.skipWS()
	obj, err := p.term()
	if err != nil {
		return Triple{}, false, err
	}
	p.skipWS()
	if p.eof() || p.peek() != '.' {
		return Triple{}, false, p.errf("expected '.' terminator")
	}
	p.i++
	p.skipWS()
	if !p.eof() && p.peek() != '#' {
		return Triple{}, false, p.errf("unexpected trailing content")
	}
	return Triple{S: subj, P: pred, O: obj}, true, nil
}

type ntParser struct {
	s    string
	i    int
	line int
}

func (p *ntParser) eof() bool  { return p.i >= len(p.s) }
func (p *ntParser) peek() byte { return p.s[p.i] }
func (p *ntParser) skipWS() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
		p.i++
	}
}

func (p *ntParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.i + 1, Msg: fmt.Sprintf(format, args...)}
}

func (p *ntParser) term() (Term, error) {
	if p.eof() {
		return Term{}, p.errf("unexpected end of line")
	}
	switch p.peek() {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return Term{}, p.errf("unexpected character %q", p.peek())
	}
}

func (p *ntParser) iri() (Term, error) {
	p.i++ // consume '<'
	start := p.i
	for !p.eof() && p.peek() != '>' {
		if p.peek() == ' ' {
			return Term{}, p.errf("space inside IRI")
		}
		p.i++
	}
	if p.eof() {
		return Term{}, p.errf("unterminated IRI")
	}
	iri := p.s[start:p.i]
	p.i++ // consume '>'
	if iri == "" {
		return Term{}, p.errf("empty IRI")
	}
	if !utf8.ValidString(iri) {
		return Term{}, p.errf("invalid UTF-8 in IRI")
	}
	return NewIRI(iri), nil
}

func (p *ntParser) blank() (Term, error) {
	if p.i+1 >= len(p.s) || p.s[p.i+1] != ':' {
		return Term{}, p.errf("malformed blank node")
	}
	p.i += 2
	start := p.i
	for !p.eof() && isBlankLabelByte(p.peek()) {
		p.i++
	}
	if p.i == start {
		return Term{}, p.errf("empty blank node label")
	}
	return NewBlank(p.s[start:p.i]), nil
}

func isBlankLabelByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '-' || b == '_' || b == '.'
}

func (p *ntParser) literal() (Term, error) {
	p.i++ // consume opening quote
	var b strings.Builder
	for {
		if p.eof() {
			return Term{}, p.errf("unterminated literal")
		}
		c := p.peek()
		if c == '"' {
			p.i++
			break
		}
		if c == '\\' {
			if err := p.escape(&b); err != nil {
				return Term{}, err
			}
			continue
		}
		b.WriteByte(c)
		p.i++
	}
	val := b.String()
	if !utf8.ValidString(val) {
		return Term{}, p.errf("invalid UTF-8 in literal")
	}
	if !p.eof() && p.peek() == '@' {
		p.i++
		start := p.i
		for !p.eof() && (isAlnumByte(p.peek()) || p.peek() == '-') {
			p.i++
		}
		if p.i == start {
			return Term{}, p.errf("empty language tag")
		}
		return NewLangLiteral(val, p.s[start:p.i]), nil
	}
	if p.i+1 < len(p.s) && p.peek() == '^' && p.s[p.i+1] == '^' {
		p.i += 2
		dt, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(val, dt.Value), nil
	}
	return NewLiteral(val), nil
}

func isAlnumByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

func (p *ntParser) escape(b *strings.Builder) error {
	p.i++ // consume backslash
	if p.eof() {
		return p.errf("dangling escape")
	}
	c := p.peek()
	p.i++
	switch c {
	case 't':
		b.WriteByte('\t')
	case 'n':
		b.WriteByte('\n')
	case 'r':
		b.WriteByte('\r')
	case '"':
		b.WriteByte('"')
	case '\\':
		b.WriteByte('\\')
	case 'u', 'U':
		n := 4
		if c == 'U' {
			n = 8
		}
		if p.i+n > len(p.s) {
			return p.errf("truncated \\%c escape", c)
		}
		var r rune
		for k := 0; k < n; k++ {
			d := hexVal(p.s[p.i+k])
			if d < 0 {
				return p.errf("invalid hex digit in \\%c escape", c)
			}
			r = r<<4 | rune(d)
		}
		p.i += n
		if !utf8.ValidRune(r) {
			return p.errf("invalid code point in \\%c escape", c)
		}
		b.WriteRune(r)
	default:
		return p.errf("unknown escape \\%c", c)
	}
	return nil
}

func hexVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'f':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'F':
		return int(b-'A') + 10
	default:
		return -1
	}
}
