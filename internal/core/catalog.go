package core

import (
	"fmt"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// Constants holds the dictionary identifiers the benchmark queries bind.
// They correspond one-to-one to the quoted terms of the paper's SQL
// appendix: '<type>', '<Text>', '<language>', '<language/iso639-2b/fre>',
// '<origin>', '<info:marcorg/DLC>', '<records>', '<Point>', '"end"',
// '<Encoding>' and 'conferences'.
type Constants struct {
	Type, Records, Origin, Language, Point, Encoding rdf.ID // properties
	Text, DLC, French, End                           rdf.ID // objects
	Conferences                                      rdf.ID // the q8 subject
}

// validate checks that every constant is set.
func (c Constants) validate() error {
	ids := map[string]rdf.ID{
		"Type": c.Type, "Records": c.Records, "Origin": c.Origin,
		"Language": c.Language, "Point": c.Point, "Encoding": c.Encoding,
		"Text": c.Text, "DLC": c.DLC, "French": c.French, "End": c.End,
		"Conferences": c.Conferences,
	}
	for name, id := range ids {
		if id == rdf.NoID {
			return fmt.Errorf("core: constant %s unset", name)
		}
	}
	return nil
}

// Catalog is the schema-level input to database loading: the constants, the
// complete property roster and the administrator-selected interesting list.
type Catalog struct {
	Consts Constants
	// AllProps lists every distinct property of the data set.
	AllProps []rdf.ID
	// Interesting is the 28-property selection used by the restricted
	// versions of q2, q3, q4 and q6.
	Interesting []rdf.ID
}

// Validate checks structural invariants: constants set, interesting ⊆ all,
// and the special properties present in both lists.
func (c Catalog) Validate() error {
	if err := c.Consts.validate(); err != nil {
		return err
	}
	if len(c.AllProps) == 0 {
		return fmt.Errorf("core: catalog has no properties")
	}
	all := make(map[rdf.ID]bool, len(c.AllProps))
	for _, p := range c.AllProps {
		all[p] = true
	}
	for _, p := range c.Interesting {
		if !all[p] {
			return fmt.Errorf("core: interesting property %d not in AllProps", p)
		}
	}
	inter := make(map[rdf.ID]bool, len(c.Interesting))
	for _, p := range c.Interesting {
		inter[p] = true
	}
	for _, p := range []rdf.ID{c.Consts.Type, c.Consts.Records, c.Consts.Origin,
		c.Consts.Language, c.Consts.Point, c.Consts.Encoding} {
		if !all[p] {
			return fmt.Errorf("core: special property %d missing from AllProps", p)
		}
		if !inter[p] {
			return fmt.Errorf("core: special property %d missing from Interesting", p)
		}
	}
	return nil
}

// CatalogFromGraph derives a catalog from a graph's actual contents: the
// property roster is computed from the data (most frequent first, matching
// the paper's data-driven schema observation), and interesting is taken as
// given (it must include the special properties).
func CatalogFromGraph(g *rdf.Graph, consts Constants, interesting []rdf.ID) (Catalog, error) {
	freq := rdf.PropFreq(g.Triples)
	cat := Catalog{
		Consts:      consts,
		AllProps:    rdf.TopK(freq, len(freq)),
		Interesting: interesting,
	}
	if err := cat.Validate(); err != nil {
		return Catalog{}, err
	}
	return cat, nil
}

// Database is one (engine × scheme × clustering) combination loaded with the
// benchmark data, able to run any benchmark query.
type Database interface {
	// Label identifies the combination, e.g. "DBX/triple-PSO".
	Label() string
	// Run executes q and returns its result relation.
	Run(q Query) (*rel.Rel, error)
}

// triplesRel converts a graph to a width-3 relation (s, p, o).
func triplesRel(g *rdf.Graph) *rel.Rel {
	out := rel.NewCap(3, len(g.Triples))
	for _, t := range g.Triples {
		out.Data = append(out.Data, uint64(t.S), uint64(t.P), uint64(t.O))
	}
	return out
}

// idsRel converts an id list to a width-1 relation.
func idsRel(ids []rdf.ID) *rel.Rel {
	out := rel.NewCap(1, len(ids))
	for _, id := range ids {
		out.Data = append(out.Data, uint64(id))
	}
	return out
}
