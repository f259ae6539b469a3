package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/course"
)

// BenchmarkEnumerateSmallest times EnumerateSmallest end to end on a
// disagreeing course query pair: q4 ("CS but not ECON") vs q6 ("only CS"),
// both containing difference operators, over the |D|=5000 course instance
// with its constraints. Each candidate is checked on its materialized
// subinstance.
func BenchmarkEnumerateSmallest(b *testing.B) {
	qs := course.Questions()
	p := core.Problem{Q1: qs[3].Correct, Q2: qs[5].Correct, DB: course.GenerateDB(5000, 7), Constraints: course.Constraints()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EnumerateSmallest(p, 16); err != nil {
			b.Fatal(err)
		}
	}
}
