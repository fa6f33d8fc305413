// Package rdf implements the RDF data model used throughout blackswan:
// terms, triples, a term dictionary that interns strings to dense integer
// identifiers, an N-Triples subset reader/writer, and the dataset statistics
// reported in Table 1 and Figure 1 of the paper.
//
// There is one dictionary type, Dictionary: its intern map is sharded so
// the parallel loader's workers intern concurrently, and a single goroutine
// interning in input order (datagen, ReadNTriples, deterministic ingest)
// gets identifiers in first-occurrence order.
//
// All higher layers (the storage engines and the benchmark) operate on
// dictionary-encoded triples: three uint64 identifiers per statement. This
// mirrors the paper's setup: "The actual queries use integer predicates,
// since all strings are encoded on a dictionary structure."
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// ID is a dense dictionary identifier for an RDF term. The zero value is
// reserved and never denotes a valid term, so it can be used as a sentinel
// ("unbound") by query processors.
type ID uint64

// NoID is the reserved sentinel identifier. Dictionary-assigned identifiers
// start at 1.
const NoID ID = 0

// TermKind distinguishes the lexical classes of RDF terms. The benchmark
// data set only requires IRIs and literals; blank nodes are accepted by the
// parser and treated as IRIs in the <_:label> space, which is sufficient for
// the storage and query layers (they never inspect term kinds).
type TermKind uint8

const (
	// IRI is an RDF IRI reference such as <http://example.org/type>.
	IRI TermKind = iota
	// Literal is an RDF literal such as "end" or "french".
	Literal
	// Blank is a blank node label such as _:b42.
	Blank
)

// String returns the kind name for diagnostics.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a decoded RDF term: its lexical value plus its kind.
type Term struct {
	// Value is the lexical form without surrounding punctuation: an IRI
	// without angle brackets, a literal without quotes, a blank label
	// without the "_:" prefix.
	Value string
	// Kind classifies the term.
	Kind TermKind
}

// NewIRI returns an IRI term.
func NewIRI(v string) Term { return Term{Value: v, Kind: IRI} }

// NewLiteral returns a literal term.
func NewLiteral(v string) Term { return Term{Value: v, Kind: Literal} }

// NewBlank returns a blank-node term.
func NewBlank(v string) Term { return Term{Value: v, Kind: Blank} }

// String renders the term in N-Triples surface syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Literal:
		return `"` + escapeLiteral(t.Value) + `"`
	case Blank:
		return "_:" + t.Value
	default:
		return t.Value
	}
}

// escapeLiteral escapes the characters that N-Triples requires escaping
// inside a quoted literal. It works byte-wise — every escape is ASCII —
// so lexical forms that are not valid UTF-8 render back unchanged instead
// of decaying to replacement runes (a round-trip bug the parser fuzzer
// found).
func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// NumericTerm reports the numeric value of a term: literals whose lexical
// form parses as a decimal number (optionally signed, optionally
// fractional) are numeric; IRIs and blank nodes never are. This is the one
// definition of "numeric typed literal" shared by the range-filter and
// ORDER BY semantics of every layer — engines, compiler and oracle.
func NumericTerm(t Term) (float64, bool) {
	if t.Kind != Literal || t.Value == "" {
		return 0, false
	}
	// Reject forms strconv accepts but N-Triples data never means as
	// numbers (hex, inf, exponents are fine to exclude too — the grammar's
	// numeric tokens are plain decimals).
	for i := 0; i < len(t.Value); i++ {
		c := t.Value[i]
		if (c >= '0' && c <= '9') || c == '.' || (i == 0 && (c == '-' || c == '+')) {
			continue
		}
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// ParseTerm parses a single N-Triples term token.
func ParseTerm(tok string) (Term, error) {
	if tok == "" {
		return Term{}, fmt.Errorf("rdf: empty term")
	}
	switch {
	case tok[0] == '<':
		if len(tok) < 2 || tok[len(tok)-1] != '>' {
			return Term{}, fmt.Errorf("rdf: malformed IRI %q", tok)
		}
		return NewIRI(tok[1 : len(tok)-1]), nil
	case tok[0] == '"':
		// Strip any datatype or language suffix after the closing quote.
		end := strings.LastIndexByte(tok, '"')
		if end <= 0 {
			return Term{}, fmt.Errorf("rdf: malformed literal %q", tok)
		}
		body := tok[1:end]
		return NewLiteral(unescapeLiteral(body)), nil
	case strings.HasPrefix(tok, "_:"):
		if len(tok) == 2 {
			return Term{}, fmt.Errorf("rdf: malformed blank node %q", tok)
		}
		return NewBlank(tok[2:]), nil
	default:
		return Term{}, fmt.Errorf("rdf: unrecognized term %q", tok)
	}
}

// unescapeLiteral reverses escapeLiteral.
func unescapeLiteral(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 == len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
