package bgp_test

import (
	"errors"
	"reflect"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/rdf"
)

// fuzzSeeds are the corpus the native fuzzer mutates from: the twelve
// paper queries re-expressed in the text syntax (the same texts
// bgp.PaperText produces over the Barton vocabulary) plus the SPARQL-ward
// constructs — OPTIONAL, range filters, ORDER BY/LIMIT — and a few
// historically interesting shapes. Checked-in crashers live in
// testdata/fuzz/FuzzParse.
var fuzzSeeds = []string{
	// The paper's twelve queries (restricted variants included).
	`SELECT ?o (COUNT AS ?count) WHERE { ?s <barton/type> ?o } GROUP BY ?o`,
	`SELECT ?p (COUNT AS ?count) WHERE { ?s <barton/type> <barton/Text> . ?s ?p ?o } GROUP BY ?p`,
	`SELECT ?p (COUNT AS ?count) WHERE { ?s <barton/type> <barton/Text> . ?s ?p ?o RESTRICT } GROUP BY ?p`,
	`SELECT ?p ?o (COUNT AS ?count) WHERE { ?s <barton/type> <barton/Text> . ?s ?p ?o RESTRICT } GROUP BY ?p ?o HAVING (COUNT > 1)`,
	`SELECT ?p ?o (COUNT AS ?count) WHERE { ?s <barton/type> <barton/Text> . ?s ?p ?o RESTRICT . ?s <barton/language> <barton/language/iso639-2b/fre> } GROUP BY ?p ?o HAVING (COUNT > 1)`,
	`SELECT ?s ?t WHERE { ?s <barton/origin> <barton/info:marcorg/DLC> . ?s <barton/records> ?x . ?x <barton/type> ?t . FILTER (?t != <barton/Text>) }`,
	`SELECT ?p (COUNT AS ?count) WHERE { { { ?s <barton/type> <barton/Text> } UNION { SELECT (?r AS ?s) WHERE { ?r <barton/records> ?x . ?x <barton/type> <barton/Text> } } } . ?s ?p ?o RESTRICT } GROUP BY ?p`,
	`SELECT ?s ?e ?t WHERE { ?s <barton/Point> "end" . ?s <barton/Encoding> ?e . ?s <barton/type> ?t }`,
	`SELECT ?s WHERE { <barton/conferences> ?p ?o . ?s ?p2 ?o . FILTER (?s != <barton/conferences>) }`,
	// SPARQL-ward constructs.
	`SELECT * WHERE { ?s <barton/type> ?t . OPTIONAL { ?s <barton/pointInTime> ?y } }`,
	`SELECT * WHERE { ?s <barton/pointInTime> ?y . FILTER (?y >= 1900) . FILTER (?y < 1950.5) }`,
	`SELECT * WHERE { ?s <barton/type> ?t . OPTIONAL { ?s <barton/pointInTime> ?y . FILTER (?y > 1850) } } ORDER BY ?y DESC ?s LIMIT 10`,
	`SELECT ?t (COUNT AS ?n) WHERE { ?s <barton/type> ?t } GROUP BY ?t ORDER BY ?n DESC LIMIT 5`,
	`SELECT * WHERE { ?s ?p ?o . FILTER (?o <= -3.25) } ORDER BY ?o ASC`,
	// Shapes that exercise lexer corners.
	`SELECT * WHERE { ?s ?p "a \"quoted\" literal" }`,
	`SELECT*WHERE{?s ?p ?o.FILTER(?o < 10)}`,
	`SELECT * WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 0`,
	"SELECT * WHERE {\n ?s ?p ?o\n}\nORDER BY ?s",
}

// FuzzParse drives the lexer and parser with arbitrary input. Invariants:
// Parse never panics; failures are positioned *bgp.ParseError values with
// in-range positions; successes round-trip — Text() re-parses to a
// structurally identical query — and the lexical canonicalization the plan
// cache keys on parses to the same query as the original.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := bgp.Parse(text)
		if err != nil {
			var pe *bgp.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q): non-positioned error %T: %v", text, err, err)
			}
			if pe.Offset < 0 || pe.Offset > len(text) {
				t.Fatalf("Parse(%q): offset %d out of range [0,%d]", text, pe.Offset, len(text))
			}
			if pe.Line < 1 || pe.Col < 1 {
				t.Fatalf("Parse(%q): position %d:%d", text, pe.Line, pe.Col)
			}
			return
		}
		// Round-trip: the rendered text parses back to the same query.
		rt := q.Text()
		q2, err := bgp.Parse(rt)
		if err != nil {
			t.Fatalf("Parse(Text(%q)) = Parse(%q) failed: %v", text, rt, err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("round-trip changed the query:\n src: %q\n  rt: %q", text, rt)
		}
		// Canonicalization: same token stream, same parse.
		canon := bgp.CanonicalText(text)
		q3, err := bgp.Parse(canon)
		if err != nil {
			t.Fatalf("Parse(CanonicalText(%q)) = Parse(%q) failed: %v", text, canon, err)
		}
		if !reflect.DeepEqual(q, q3) {
			t.Fatalf("canonicalization changed the query:\n src: %q\ncanon: %q", text, canon)
		}
	})
}

// updateFuzzSeeds cover the update grammar's forms — single and mixed
// blocks, the optional '.' and trailing ';', literals with escapes — and
// each rejection the parser names: variables, literal subjects and
// properties, empty and unterminated blocks, trailing input.
var updateFuzzSeeds = []string{
	`INSERT DATA { <s1> <p1> <o1> . <s1> <p2> "v" }`,
	`DELETE DATA { <s1> <p1> <o1> }`,
	"DELETE DATA { <s> <p> <o> } ;\nINSERT DATA { <s> <p> \"a \\\"quoted\\\" literal\" . <s> <q> 42 } ;",
	`insert data{<s> <p> <o>.}`,
	`INSERT DATA { ?s <p> <o> }`,
	`INSERT DATA { "lit" <p> <o> }`,
	`INSERT DATA { <s> "lit" <o> }`,
	`INSERT DATA { }`,
	`INSERT DATA { <s> <p> <o>`,
	`INSERT DATA { <s> <p> }`,
	`INSERT { <s> <p> <o> }`,
	`INSERT DATA { <s> <p> <o> } SELECT`,
	`SELECT * WHERE { ?s ?p ?o }`,
	``,
}

// FuzzParseUpdate drives the update parser — the text POST /update accepts
// from the network — with arbitrary input. Invariants: ParseUpdate never
// panics; every rejection is a positioned *bgp.ParseError with in-range
// positions; an accepted request has at least one block, no block is
// empty, and every triple is ground data in the positions the data
// language allows (IRI subject and property). Checked-in crashers live in
// testdata/fuzz/FuzzParseUpdate.
func FuzzParseUpdate(f *testing.F) {
	for _, s := range updateFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ops, err := bgp.ParseUpdate(text)
		if err != nil {
			var pe *bgp.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ParseUpdate(%q): non-positioned error %T: %v", text, err, err)
			}
			if pe.Offset < 0 || pe.Offset > len(text) {
				t.Fatalf("ParseUpdate(%q): offset %d out of range [0,%d]", text, pe.Offset, len(text))
			}
			if pe.Line < 1 || pe.Col < 1 {
				t.Fatalf("ParseUpdate(%q): position %d:%d", text, pe.Line, pe.Col)
			}
			return
		}
		if len(ops) == 0 {
			t.Fatalf("ParseUpdate(%q) accepted a request with no blocks", text)
		}
		for _, op := range ops {
			if len(op.Triples) == 0 {
				t.Fatalf("ParseUpdate(%q) accepted an empty block", text)
			}
			for _, tr := range op.Triples {
				if tr.S.Kind == rdf.Literal || tr.P.Kind == rdf.Literal {
					t.Fatalf("ParseUpdate(%q) accepted a literal subject or property: %v", text, tr)
				}
			}
		}
	})
}
