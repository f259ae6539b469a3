package relation

import (
	"fmt"
	"strings"
)

// Constraint is an integrity constraint Γ over a database instance.
//
// Keys, not-null constraints and functional dependencies are closed under
// subinstances (Section 2.1 of the paper), so a valid instance's
// subinstances satisfy them automatically. Foreign keys are not closed under
// subinstances and are handled explicitly by the counterexample algorithms
// (Section 4.3).
type Constraint interface {
	// Validate reports the first violation in db, or nil.
	Validate(db *Database) error
	// String renders the constraint for diagnostics.
	String() string
	// ClosedUnderSubinstance reports whether any subinstance of a valid
	// instance trivially satisfies the constraint.
	ClosedUnderSubinstance() bool
}

// Key declares that Attrs uniquely identify tuples of Relation.
type Key struct {
	Relation string
	Attrs    []string
}

// Validate implements Constraint.
func (k Key) Validate(db *Database) error {
	r := db.Relation(k.Relation)
	if r == nil {
		return fmt.Errorf("relation: key constraint on unknown relation %q", k.Relation)
	}
	idxs, err := resolveAll(r.Schema, k.Attrs)
	if err != nil {
		return err
	}
	seen := NewIndex(r.Len())
	for i, t := range r.Tuples {
		if j, added := seen.FindOrAdd(t.HashCols(idxs), r.Tuples[:i], idxs, t, idxs); !added {
			return fmt.Errorf("relation: key violation on %s(%s): tuples %s and %s agree on key",
				k.Relation, strings.Join(k.Attrs, ","), r.ID(j).Label(), r.ID(i).Label())
		}
	}
	return nil
}

// ClosedUnderSubinstance implements Constraint.
func (k Key) ClosedUnderSubinstance() bool { return true }

func (k Key) String() string {
	return fmt.Sprintf("KEY %s(%s)", k.Relation, strings.Join(k.Attrs, ","))
}

// NotNull declares that Attr of Relation contains no NULLs.
type NotNull struct {
	Relation string
	Attr     string
}

// Validate implements Constraint.
func (n NotNull) Validate(db *Database) error {
	r := db.Relation(n.Relation)
	if r == nil {
		return fmt.Errorf("relation: not-null constraint on unknown relation %q", n.Relation)
	}
	i, err := r.Schema.Resolve(n.Attr)
	if err != nil {
		return err
	}
	for j, t := range r.Tuples {
		if t[i].IsNull() {
			return fmt.Errorf("relation: not-null violation on %s.%s at %s", n.Relation, n.Attr, r.ID(j).Label())
		}
	}
	return nil
}

// ClosedUnderSubinstance implements Constraint.
func (n NotNull) ClosedUnderSubinstance() bool { return true }

func (n NotNull) String() string { return fmt.Sprintf("NOT NULL %s.%s", n.Relation, n.Attr) }

// FD declares the functional dependency From -> To on Relation.
type FD struct {
	Relation string
	From     []string
	To       []string
}

// Validate implements Constraint.
func (f FD) Validate(db *Database) error {
	r := db.Relation(f.Relation)
	if r == nil {
		return fmt.Errorf("relation: FD on unknown relation %q", f.Relation)
	}
	from, err := resolveAll(r.Schema, f.From)
	if err != nil {
		return err
	}
	to, err := resolveAll(r.Schema, f.To)
	if err != nil {
		return err
	}
	// One representative per distinct From value: without a violation so
	// far, every earlier tuple agreeing on From also agrees on To.
	seen := NewIndex(r.Len())
	for i, t := range r.Tuples {
		j, added := seen.FindOrAdd(t.HashCols(from), r.Tuples[:i], from, t, from)
		if added {
			continue
		}
		if !r.Tuples[j].IdenticalCols(to, t, to) {
			return fmt.Errorf("relation: FD violation %s at %s", f, r.ID(i).Label())
		}
	}
	return nil
}

// ClosedUnderSubinstance implements Constraint.
func (f FD) ClosedUnderSubinstance() bool { return true }

func (f FD) String() string {
	return fmt.Sprintf("FD %s: %s -> %s", f.Relation, strings.Join(f.From, ","), strings.Join(f.To, ","))
}

// ForeignKey declares that (ChildRel.ChildAttrs) references
// (ParentRel.ParentAttrs). NULL child values are exempt (SQL semantics).
type ForeignKey struct {
	ChildRel    string
	ChildAttrs  []string
	ParentRel   string
	ParentAttrs []string
}

// Validate implements Constraint.
func (fk ForeignKey) Validate(db *Database) error {
	child := db.Relation(fk.ChildRel)
	parent := db.Relation(fk.ParentRel)
	if child == nil || parent == nil {
		return fmt.Errorf("relation: foreign key %s references unknown relation", fk)
	}
	cIdx, err := resolveAll(child.Schema, fk.ChildAttrs)
	if err != nil {
		return err
	}
	pIdx, err := resolveAll(parent.Schema, fk.ParentAttrs)
	if err != nil {
		return err
	}
	parentKeys := NewIndex(parent.Len())
	for i, t := range parent.Tuples {
		parentKeys.Add(t.HashCols(pIdx), i)
	}
	for i, t := range child.Tuples {
		if t.HasNullCols(cIdx) {
			continue
		}
		if parentKeys.Find(t.HashCols(cIdx), parent.Tuples, pIdx, t, cIdx) < 0 {
			return fmt.Errorf("relation: foreign key violation %s at %s", fk, child.ID(i).Label())
		}
	}
	return nil
}

// ClosedUnderSubinstance implements Constraint.
func (fk ForeignKey) ClosedUnderSubinstance() bool { return false }

func (fk ForeignKey) String() string {
	return fmt.Sprintf("FK %s(%s) -> %s(%s)", fk.ChildRel, strings.Join(fk.ChildAttrs, ","),
		fk.ParentRel, strings.Join(fk.ParentAttrs, ","))
}

// ParentsOf returns, for every child tuple of db, the identifiers of parent
// tuples it references: the result maps a child TupleID to the (possibly
// multiple, under duplicate parent keys) parent TupleIDs. Child tuples with
// NULL foreign-key values are omitted.
//
// This is the raw material of the paper's Section 4.3: a child variable
// implies the disjunction of its parent variables.
func (fk ForeignKey) ParentsOf(db *Database) (map[TupleID][]TupleID, error) {
	child := db.Relation(fk.ChildRel)
	parent := db.Relation(fk.ParentRel)
	if child == nil || parent == nil {
		return nil, fmt.Errorf("relation: foreign key %s references unknown relation", fk)
	}
	cIdx, err := resolveAll(child.Schema, fk.ChildAttrs)
	if err != nil {
		return nil, err
	}
	pIdx, err := resolveAll(parent.Schema, fk.ParentAttrs)
	if err != nil {
		return nil, err
	}
	// Group the parents by key: groups[g] lists the ids of the parents
	// sharing the key of parent tuple reps[g], and byKey indexes g.
	var groups [][]TupleID
	var reps []Tuple
	byKey := NewIndex(parent.Len())
	for i, t := range parent.Tuples {
		g, added := byKey.FindOrAdd(t.HashCols(pIdx), reps, pIdx, t, pIdx)
		if added {
			groups = append(groups, nil)
			reps = append(reps, t)
		}
		groups[g] = append(groups[g], parent.IDs[i])
	}
	out := make(map[TupleID][]TupleID, child.Len())
	for i, t := range child.Tuples {
		if t.HasNullCols(cIdx) {
			continue
		}
		if g := byKey.Find(t.HashCols(cIdx), reps, pIdx, t, cIdx); g >= 0 {
			out[child.IDs[i]] = groups[g]
		}
	}
	return out, nil
}

// ValidateAll checks db against every constraint and returns the first
// violation.
func ValidateAll(db *Database, cs []Constraint) error {
	for _, c := range cs {
		if err := c.Validate(db); err != nil {
			return err
		}
	}
	return nil
}

func resolveAll(s Schema, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		j, err := s.Resolve(n)
		if err != nil {
			return nil, err
		}
		out[i] = j
	}
	return out, nil
}
