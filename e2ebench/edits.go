package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
)

// editStream generates one session's single-tuple edits in a balanced
// cycle: insert a fresh tuple, update it, delete it. The live instance is
// back to its starting size every three edits, however long the run.
type editStream struct {
	rel    string
	fresh  func(*rand.Rand) relation.Tuple                 // a tuple to insert
	modify func(*rand.Rand, relation.Tuple) relation.Tuple // its updated version
	rng    *rand.Rand

	// nextID is the last tuple id the session's instance has assigned:
	// sessions number inserted tuples nextID+1, nextID+2, ... in order.
	nextID    relation.TupleID
	live      relation.TupleID // the stream's inserted tuple, 0 when none
	liveTuple relation.Tuple
	step      int
	committed []core.SessionUpdate
}

// edit is one revision: its core form, its wire form, and the number of
// the stream's tuples live once it is applied.
type edit struct {
	up    core.SessionUpdate
	ops   []server.SessionOp
	tuple relation.Tuple // the inserted tuple, nil for a delete
	live  int
}

func newEditStream(db *relation.Database, rel string, seed int64,
	fresh func(*rand.Rand) relation.Tuple, modify func(*rand.Rand, relation.Tuple) relation.Tuple) *editStream {
	ids := db.AllIDs()
	return &editStream{rel: rel, fresh: fresh, modify: modify, rng: rand.New(rand.NewSource(seed)), nextID: ids[len(ids)-1]}
}

func (s *editStream) next() edit {
	switch s.step % 3 {
	case 0:
		t := s.fresh(s.rng)
		return edit{
			up:    core.SessionUpdate{Insert: []engine.Insert{{Rel: s.rel, Tuple: t}}},
			ops:   []server.SessionOp{{Op: "insert", Rel: s.rel, Tuple: literals(t)}},
			tuple: t, live: 1,
		}
	case 1:
		t := s.modify(s.rng, s.liveTuple)
		return edit{
			up:    core.SessionUpdate{Remove: []relation.TupleID{s.live}, Insert: []engine.Insert{{Rel: s.rel, Tuple: t}}},
			ops:   []server.SessionOp{{Op: "update", Rel: s.rel, ID: int(s.live), Tuple: literals(t)}},
			tuple: t, live: 1,
		}
	default:
		return edit{
			up:  core.SessionUpdate{Remove: []relation.TupleID{s.live}},
			ops: []server.SessionOp{{Op: "delete", ID: int(s.live)}},
		}
	}
}

// commit advances the stream past an edit the session accepted.
func (s *editStream) commit(e edit) {
	if e.tuple != nil {
		s.nextID++
		s.live, s.liveTuple = s.nextID, e.tuple
	} else {
		s.live, s.liveTuple = 0, nil
	}
	s.step++
	s.committed = append(s.committed, e.up)
}

func literals(t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.Quote()
	}
	return out
}

// registrationEdits edits course Registration rows: a CS registration of an
// existing student for an odd-numbered course (the generator only makes
// even-numbered ones, so the key stays unique), then a regrade.
func registrationEdits(db *relation.Database, seed int64) *editStream {
	students := db.Relation("Student").Tuples
	grade := func(rng *rand.Rand) relation.Value { return relation.Int(int64(40 + rng.Intn(61))) }
	return newEditStream(db, "Registration", seed,
		func(rng *rand.Rand) relation.Tuple {
			name := students[rng.Intn(len(students))][0]
			course := relation.String(fmt.Sprintf("CS%03d", 101+2*rng.Intn(400)))
			return relation.NewTuple(name, course, relation.String("CS"), grade(rng))
		},
		func(rng *rand.Rand, t relation.Tuple) relation.Tuple {
			return relation.NewTuple(t[0], t[1], t[2], grade(rng))
		})
}

// lineitemEdits edits TPC-H lineitem rows: a copy of an existing line with
// an unused line number (the key is l_orderkey, l_linenumber), then a new
// receipt date around its commit date.
func lineitemEdits(db *relation.Database, seed int64) *editStream {
	lines := db.Relation("lineitem").Tuples
	const linenumber, commit, receipt = 1, 5, 6
	return newEditStream(db, "lineitem", seed,
		func(rng *rand.Rand) relation.Tuple {
			t := append(relation.Tuple(nil), lines[rng.Intn(len(lines))]...)
			t[linenumber] = relation.Int(1000)
			return t
		},
		func(rng *rand.Rand, t relation.Tuple) relation.Tuple {
			u := append(relation.Tuple(nil), t...)
			u[receipt] = relation.Int(t[commit].AsInt() - 15 + int64(rng.Intn(31)))
			return u
		})
}

// replaySession rebuilds a session from scratch, applies every committed
// edit in order, and returns its grade and live size: the reference a
// long-lived session's final state is checked against.
func replaySession(p core.Problem, committed []core.SessionUpdate, rec *recorder) (*core.LiveGrade, int, error) {
	ctx := context.Background()
	p.DB = p.DB.Clone()
	t0 := time.Now()
	ls, err := core.NewLiveSession(p)
	if err != nil {
		return nil, 0, err
	}
	rec.prepare(time.Since(t0))
	for i, up := range committed {
		if _, err := ls.Update(ctx, up); err != nil {
			return nil, 0, fmt.Errorf("replaying edit %d: %w", i, err)
		}
	}
	g, err := ls.Grade(ctx)
	if err != nil {
		return nil, 0, err
	}
	return g, ls.BaseSize(), nil
}

// sameGrade reports whether two session grades agree on the verdict and
// the difference sizes.
func sameGrade(a, b *core.LiveGrade) bool {
	return a.Agree == b.Agree && a.Size12 == b.Size12 && a.Size21 == b.Size21
}
