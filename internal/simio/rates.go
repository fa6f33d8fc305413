package simio

// Op is one operator class of the plan executor, the unit an engine prices.
type Op int

// The executor's operator classes.
const (
	OpNode      Op = iota // open one plan node or dispatch one operator
	OpFilter              // test one row against a residual predicate
	OpHashBuild           // insert one row into a join hash table
	OpHashProbe           // probe one row against a join hash table
	OpMerge               // advance one row through a merge join
	OpUnion               // move one row through a union
	OpDistinct            // deduplicate one row
	OpRestrict            // test one row against the interesting properties
	OpGroup               // aggregate one row (width: its grouping keys)
	OpJoinEmit            // assemble one join output row
	OpEmit                // move one finished row into an output buffer
	OpSort                // one comparison while sorting (ORDER BY / TopN)
	NumOps
)

// Rate prices one operator class in baseline nanoseconds: Row per row plus
// Value per value, a row of width w holding w values — except that a row
// narrower than Narrow counts as one value.
type Rate struct {
	Row, Value int64
	Narrow     int
}

// Price is the one cost formula: what n rows of width w cost at r.
func (r Rate) Price(n, w int) int64 {
	if w < r.Narrow {
		w = 1
	}
	return int64(n) * (r.Row + r.Value*int64(w))
}

// Rates is an engine's price list, one Rate per operator class. A class
// left out is free.
type Rates [NumOps]Rate
