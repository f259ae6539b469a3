// Package testdb provides the paper's running example (Example 1, Figure 1)
// as a reusable fixture: the Student/Registration instance, the correct
// query Q1 ("students registered for exactly one CS course"), the wrong
// query Q2 ("one or more CS courses"), and the aggregate variants of
// Examples 4–6. It is shared by tests, examples, and benchmarks.
package testdb

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
)

// TupleKey encodes a tuple as a string for test oracles, which key their
// expected sets by it so that the engine is never checked against its own
// tuple hash. Each value is written as its kind, the byte length of its
// payload and the payload, so no string contents can shift a boundary.
// Two tuples have equal keys exactly when they are Identical: floats are
// normalized as Identical compares them (−0 as 0, every NaN as NaN).
func TupleKey(t relation.Tuple) string {
	var b strings.Builder
	for _, v := range t {
		var p string
		switch v.Kind() {
		case relation.KindNull:
		case relation.KindFloat:
			f := v.AsFloat()
			if f == 0 {
				f = 0 // −0 → +0
			}
			p = strconv.FormatFloat(f, 'g', -1, 64)
		default:
			p = v.String()
		}
		fmt.Fprintf(&b, "%d:%d:%s;", v.Kind(), len(p), p)
	}
	return b.String()
}

// Example1DB builds the Figure 1 instance. Tuple identifiers follow the
// paper: t1..t3 are Student tuples, t4..t11 Registration tuples.
func Example1DB() *relation.Database {
	db := relation.NewDatabase()
	db.CreateRelation("Student", relation.NewSchema(
		relation.Attr("name", relation.KindString),
		relation.Attr("major", relation.KindString),
	))
	db.CreateRelation("Registration", relation.NewSchema(
		relation.Attr("name", relation.KindString),
		relation.Attr("course", relation.KindString),
		relation.Attr("dept", relation.KindString),
		relation.Attr("grade", relation.KindInt),
	))
	students := [][2]string{{"Mary", "CS"}, {"John", "ECON"}, {"Jesse", "CS"}}
	for _, s := range students {
		db.Insert("Student", relation.NewTuple(relation.String(s[0]), relation.String(s[1])))
	}
	regs := []struct {
		name, course, dept string
		grade              int64
	}{
		{"Mary", "216", "CS", 100},
		{"Mary", "230", "CS", 75},
		{"Mary", "208D", "ECON", 95},
		{"John", "316", "CS", 90},
		{"John", "208D", "ECON", 88},
		{"Jesse", "216", "CS", 95},
		{"Jesse", "316", "CS", 90},
		{"Jesse", "330", "CS", 85},
	}
	for _, r := range regs {
		db.Insert("Registration", relation.NewTuple(
			relation.String(r.name), relation.String(r.course), relation.String(r.dept), relation.Int(r.grade)))
	}
	return db
}

// Constraints returns the natural constraints of the example schema.
func Constraints() []relation.Constraint {
	return []relation.Constraint{
		relation.Key{Relation: "Student", Attrs: []string{"name"}},
		relation.Key{Relation: "Registration", Attrs: []string{"name", "course"}},
		relation.ForeignKey{ChildRel: "Registration", ChildAttrs: []string{"name"},
			ParentRel: "Student", ParentAttrs: []string{"name"}},
	}
}

// Q1 is the correct query of Example 1: students registered for exactly one
// CS course.
func Q1() ra.Node {
	return raparser.MustParse(`
		project[name, major](select[dept = 'CS'](Student join Registration))
		diff
		project[s.name, s.major](
			select[s.name = r1.name and s.name = r2.name and r1.course <> r2.course
			       and r1.dept = 'CS' and r2.dept = 'CS']
			(rename[s](Student) cross rename[r1](Registration) cross rename[r2](Registration)))
	`)
}

// Q2 is the wrong query of Example 1: students registered for one or more
// CS courses.
func Q2() ra.Node {
	return raparser.MustParse(`project[name, major](select[dept = 'CS'](Student join Registration))`)
}

// AggQ1 is the correct aggregate query of Example 4: per-student average
// grade over CS courses only.
func AggQ1() ra.Node {
	return raparser.MustParse(`groupby[name; avg(grade) -> avg_grade](
		project[name, course, grade](select[dept = 'CS'](Student join Registration)))`)
}

// AggQ2 is the wrong aggregate query of Example 4: forgets the department
// filter.
func AggQ2() ra.Node {
	return raparser.MustParse(`groupby[name; avg(grade) -> avg_grade](
		project[name, course, grade](Student join Registration))`)
}

// HavingQ1 is the Example 5 correct query: average CS grade of students with
// at least 3 CS courses.
func HavingQ1() ra.Node {
	return raparser.MustParse(`select[cnt >= 3](groupby[name; avg(grade) -> avg_grade, count(course) -> cnt](
		project[name, course, grade](select[dept = 'CS'](Student join Registration))))`)
}

// HavingQ2 is the Example 5 wrong query (no department filter).
func HavingQ2() ra.Node {
	return raparser.MustParse(`select[cnt >= 3](groupby[name; avg(grade) -> avg_grade, count(course) -> cnt](
		project[name, course, grade](Student join Registration)))`)
}

// ParamQ1 and ParamQ2 are the Example 6 parameterized queries (@numCS).
func ParamQ1() ra.Node {
	return raparser.MustParse(`select[cnt >= @numCS](groupby[name; avg(grade) -> avg_grade, count(course) -> cnt](
		project[name, course, grade](select[dept = 'CS'](Student join Registration))))`)
}

// ParamQ2 is the wrong Example 6 query.
func ParamQ2() ra.Node {
	return raparser.MustParse(`select[cnt >= @numCS](groupby[name; avg(grade) -> avg_grade, count(course) -> cnt](
		project[name, course, grade](Student join Registration)))`)
}
