package rdf

import (
	"fmt"
	"sort"

	"blackswan/internal/rel"
)

// Triple is a dictionary-encoded RDF statement: subject S has property P
// with object value O.
type Triple struct {
	S, P, O ID
}

// String renders the encoded triple for diagnostics.
func (t Triple) String() string { return fmt.Sprintf("(%d %d %d)", t.S, t.P, t.O) }

// Order identifies one of the six permutations of (subject, property,
// object) used as sort orders and index keys throughout the system. The
// paper's storage discussion revolves around SPO (the original clustering of
// Abadi et al.), PSO (the paper's improved clustering), and the secondary
// permutations.
type Order uint8

const (
	SPO Order = iota
	SOP
	PSO
	POS
	OSP
	OPS
)

var orderNames = [...]string{"SPO", "SOP", "PSO", "POS", "OSP", "OPS"}

// String returns the permutation name, e.g. "PSO".
func (o Order) String() string {
	if int(o) < len(orderNames) {
		return orderNames[o]
	}
	return fmt.Sprintf("Order(%d)", uint8(o))
}

// AllOrders lists the six permutations in declaration order.
func AllOrders() []Order { return []Order{SPO, SOP, PSO, POS, OSP, OPS} }

// Key returns the triple's fields permuted into this order.
func (o Order) Key(t Triple) (a, b, c ID) {
	switch o {
	case SPO:
		return t.S, t.P, t.O
	case SOP:
		return t.S, t.O, t.P
	case PSO:
		return t.P, t.S, t.O
	case POS:
		return t.P, t.O, t.S
	case OSP:
		return t.O, t.S, t.P
	case OPS:
		return t.O, t.P, t.S
	default:
		panic("rdf: invalid order")
	}
}

// Triple reconstructs a triple from a permuted key.
func (o Order) Triple(a, b, c ID) Triple {
	switch o {
	case SPO:
		return Triple{S: a, P: b, O: c}
	case SOP:
		return Triple{S: a, P: c, O: b}
	case PSO:
		return Triple{S: b, P: a, O: c}
	case POS:
		return Triple{S: c, P: a, O: b}
	case OSP:
		return Triple{S: b, P: c, O: a}
	case OPS:
		return Triple{S: c, P: b, O: a}
	default:
		panic("rdf: invalid order")
	}
}

// Less reports whether x sorts before y under this permutation.
func (o Order) Less(x, y Triple) bool {
	xa, xb, xc := o.Key(x)
	ya, yb, yc := o.Key(y)
	if xa != ya {
		return xa < ya
	}
	if xb != yb {
		return xb < yb
	}
	return xc < yc
}

// Sort sorts ts in place under this permutation: the permuted keys are
// ordered by rel.SortKeys's LSD radix sort and written back.
func (o Order) Sort(ts []Triple) {
	keys := rel.NewCap(3, len(ts))
	for _, t := range ts {
		a, b, c := o.Key(t)
		keys.Data = append(keys.Data, uint64(a), uint64(b), uint64(c))
	}
	keys.SortKeys(3, nil)
	for i := range ts {
		k := keys.Data[3*i : 3*i+3]
		ts[i] = o.Triple(ID(k[0]), ID(k[1]), ID(k[2]))
	}
}

// IsSorted reports whether ts is sorted under this permutation.
func (o Order) IsSorted(ts []Triple) bool {
	return sort.SliceIsSorted(ts, func(i, j int) bool { return o.Less(ts[i], ts[j]) })
}

// Dedup removes adjacent duplicate triples from a slice sorted under any
// permutation and returns the shortened slice. RDF graphs are sets, so
// loading performs this after sorting.
func Dedup(ts []Triple) []Triple {
	if len(ts) == 0 {
		return ts
	}
	w := 1
	for i := 1; i < len(ts); i++ {
		if ts[i] != ts[w-1] {
			ts[w] = ts[i]
			w++
		}
	}
	return ts[:w]
}
