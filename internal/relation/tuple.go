package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// TupleID is a database-wide unique identifier of a base tuple, used as the
// provenance variable for that tuple (the t1, t2, ... annotations in the
// paper). Derived tuples produced by query evaluation have no TupleID.
type TupleID int

// InvalidTupleID marks the absence of an identifier.
const InvalidTupleID TupleID = -1

// Label renders the identifier in the paper's "t<N>" style.
func (id TupleID) Label() string {
	if id == InvalidTupleID {
		return "t?"
	}
	return "t" + strconv.Itoa(int(id))
}

// Tuple is an ordered list of values. Tuples are positional; their meaning
// comes from an accompanying Schema.
type Tuple []Value

// NewTuple builds a tuple from values.
func NewTuple(vals ...Value) Tuple { return Tuple(vals) }

// Identical reports positionwise exact equality with another tuple.
func (t Tuple) Identical(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Identical(o[i]) {
			return false
		}
	}
	return true
}

// Project returns the sub-tuple at the given positions.
func (t Tuple) Project(idxs []int) Tuple {
	out := make(Tuple, len(idxs))
	for i, j := range idxs {
		out[i] = t[j]
	}
	return out
}

// Concat returns the concatenation of two tuples.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s)", strings.Join(parts, ", "))
}
