package relation

import (
	"encoding/binary"
	"math"
	"testing"
)

// The two tuples below shared a string key under the old separator-joined
// tuple encoding, so deduplication, set comparison and constraints treated
// them as one tuple.
var (
	sepTupleA = NewTuple(String("a\x1e4\x1fb"), String("c"))
	sepTupleB = NewTuple(String("a"), String("b\x1e4\x1fc"))
)

func TestHashAgreesWithIdenticalOnFloats(t *testing.T) {
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(0xfff8000000000000) // payload differs from math.NaN()
	cases := []struct {
		name      string
		a, b      Value
		identical bool
	}{
		{"+0 and -0", Float(0), Float(negZero), true},
		{"NaN and NaN", Float(math.NaN()), Float(math.NaN()), true},
		{"NaNs with different payloads", Float(math.NaN()), Float(otherNaN), true},
		{"NaN and 0", Float(math.NaN()), Float(0), false},
		{"+Inf and -Inf", Float(math.Inf(1)), Float(math.Inf(-1)), false},
		{"float 0 and int 0", Float(0), Int(0), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.a.Identical(c.b); got != c.identical {
				t.Fatalf("Identical = %v, want %v", got, c.identical)
			}
			if got := c.b.Identical(c.a); got != c.identical {
				t.Fatalf("Identical is not symmetric")
			}
			ta, tb := NewTuple(c.a), NewTuple(c.b)
			if c.identical && (ta.Hash() != tb.Hash() || ta.ShardHash() != tb.ShardHash()) {
				t.Fatalf("identical values hash apart: %x vs %x (shard %x vs %x)",
					ta.Hash(), tb.Hash(), ta.ShardHash(), tb.ShardHash())
			}
			r := NewRelation("r", NewSchema(Attr("x", KindFloat)))
			r.Append(ta)
			r.Append(tb)
			want := 2
			if c.identical {
				want = 1
			}
			if n := r.Dedup().Len(); n != want {
				t.Fatalf("Dedup kept %d tuples, want %d", n, want)
			}
			if d := r.SetDiff(r); d.Len() != 0 {
				t.Fatalf("R − R = %v, want empty", d.Tuples)
			}
		})
	}
}

func TestSeparatorTuplesStayDistinct(t *testing.T) {
	if sepTupleA.Identical(sepTupleB) {
		t.Fatal("test tuples must be distinct")
	}
	s := NewSchema(Attr("x", KindString), Attr("y", KindString))
	both := NewRelation("r", s)
	both.Append(sepTupleA)
	both.Append(sepTupleB)
	onlyA := NewRelation("a", s)
	onlyA.Append(sepTupleA)
	onlyB := NewRelation("b", s)
	onlyB.Append(sepTupleB)

	if n := both.Dedup().Len(); n != 2 {
		t.Errorf("Dedup kept %d tuples, want 2", n)
	}
	if onlyA.SetEqual(onlyB) {
		t.Error("SetEqual treats the two tuples as one")
	}
	if d := both.SetDiff(onlyA); d.Len() != 1 || !d.Tuples[0].Identical(sepTupleB) {
		t.Errorf("{A, B} − {A} = %v, want {B}", d.Tuples)
	}

	db := NewDatabase()
	db.CreateRelation("P", s)
	db.CreateRelation("C", s)
	db.Insert("P", sepTupleA)
	db.Insert("P", sepTupleB)
	db.Insert("C", sepTupleB)
	if err := (Key{Relation: "P", Attrs: []string{"x", "y"}}).Validate(db); err != nil {
		t.Errorf("key over distinct tuples reported a violation: %v", err)
	}
	if err := (FD{Relation: "P", From: []string{"x", "y"}, To: []string{"x"}}).Validate(db); err != nil {
		t.Errorf("FD with a key on its left reported a violation: %v", err)
	}
	fk := ForeignKey{ChildRel: "C", ChildAttrs: []string{"x", "y"}, ParentRel: "P", ParentAttrs: []string{"x", "y"}}
	parents, err := fk.ParentsOf(db)
	if err != nil {
		t.Fatal(err)
	}
	if ps := parents[3]; len(ps) != 1 || ps[0] != 2 {
		t.Errorf("parents of the child = %v, want [t2]", ps)
	}
	db2 := NewDatabase()
	db2.CreateRelation("P", s)
	db2.CreateRelation("C", s)
	db2.Insert("P", sepTupleA)
	db2.Insert("C", sepTupleB)
	if err := fk.Validate(db2); err == nil {
		t.Error("a child whose only candidate parent is a different tuple passed the foreign key")
	}
}

// shardCollisions returns n distinct (Int a, Int b) tuples that all share
// one ShardHash. The fixed-seed hash folds b in last, as mix(P(a), b), where
// P(a) — the state after a and b's kind — is computable from a alone; so
// b = P(a) ^ P(0) leaves every row in the state of (0, 0).
func shardCollisions(n int) []Tuple {
	pre := func(a int64) uint64 { return mix(Int(a).shardInto(shardSeed), uint64(KindInt)) }
	out := make([]Tuple, n)
	for a := range out {
		out[a] = NewTuple(Int(int64(a)), Int(int64(pre(int64(a))^pre(0))))
	}
	return out
}

// Rows crafted to collide under the predictable shard hash must not share
// index hashes: the index hash is seeded per process, so no chain of an
// Index over them grows past one.
func TestIndexHashResistsCraftedCollisions(t *testing.T) {
	rows := shardCollisions(5000)
	for _, r := range rows[1:] {
		if r.ShardHash() != rows[0].ShardHash() {
			t.Fatalf("crafted rows %v and %v do not share a shard hash", rows[0], r)
		}
	}
	idx := NewIndex(len(rows))
	for i, r := range rows {
		idx.Add(r.Hash(), i)
	}
	for i, r := range rows {
		if n := chainLen(idx, r.Hash()); n != 1 {
			t.Fatalf("row %d (%v) shares its index chain with %d other rows", i, r, n-1)
		}
	}
	r := NewRelation("r", NewSchema(Attr("a", KindInt), Attr("b", KindInt)))
	for _, row := range rows {
		r.Append(row)
	}
	if n := r.Dedup().Len(); n != len(rows) {
		t.Fatalf("Dedup kept %d of %d distinct rows", n, len(rows))
	}
}

func chainLen(x *Index, h uint64) int {
	n := 0
	for p := x.First(h); p >= 0; p = x.Next(p) {
		n++
	}
	return n
}

// Wide tuples are hashed a chunk at a time; the chunks must chain, so
// tuples differing only in an early chunk hash apart, and a projection
// still hashes like HashCols.
func TestHashChainsWideTuples(t *testing.T) {
	wide := func(first int64) Tuple {
		var tup Tuple
		for i := int64(0); i < 3*hashWords+1; i++ {
			tup = append(tup, Int(i))
		}
		tup[0] = Int(first)
		return tup
	}
	a, b := wide(0), wide(1)
	if a.Hash() == b.Hash() {
		t.Fatal("wide tuples differing in the first column share a hash")
	}
	if !a.Identical(wide(0)) || a.Hash() != wide(0).Hash() {
		t.Fatal("identical wide tuples hash apart")
	}
	idxs := []int{3 * hashWords, 0, 5, 2 * hashWords}
	if a.HashCols(idxs) != a.Project(idxs).Hash() {
		t.Fatal("HashCols of a wide tuple differs from its projection's Hash")
	}
}

// decodeTuple turns fuzz bytes into a tuple: per value, a kind byte and
// then its payload (bool: 1 byte; int and float: 8 bytes; string: a length
// byte and that many bytes). Missing payload bytes read as zero.
func decodeTuple(data []byte) Tuple {
	var t Tuple
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	for len(data) > 0 && len(t) < 2*hashWords {
		k := Kind(data[0] % 5)
		data = data[1:]
		switch k {
		case KindNull:
			t = append(t, Null())
		case KindBool:
			t = append(t, Bool(take(1)[0]&1 == 1))
		case KindInt:
			t = append(t, Int(int64(binary.LittleEndian.Uint64(take(8)))))
		case KindFloat:
			t = append(t, Float(math.Float64frombits(binary.LittleEndian.Uint64(take(8)))))
		case KindString:
			n := int(take(1)[0])
			if n > len(data) {
				n = len(data)
			}
			t = append(t, String(string(take(n))))
		}
	}
	return t
}

func encodeTuple(t Tuple) []byte {
	var out []byte
	for _, v := range t {
		out = append(out, byte(v.kind))
		switch v.kind {
		case KindBool:
			out = append(out, byte(v.i))
		case KindInt:
			out = binary.LittleEndian.AppendUint64(out, uint64(v.i))
		case KindFloat:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.f))
		case KindString:
			out = append(out, byte(len(v.s)))
			out = append(out, v.s...)
		}
	}
	return out
}

// FuzzTupleHash checks the contract every hash table in the module rests
// on: identical tuples hash alike under both hashes, a projection hashes
// like HashCols and ShardHashCols, and an Index probe finds exactly what a
// linear Identical scan finds.
func FuzzTupleHash(f *testing.F) {
	f.Add(encodeTuple(sepTupleA), encodeTuple(sepTupleB))
	f.Add(encodeTuple(NewTuple(Float(0))), encodeTuple(NewTuple(Float(math.Copysign(0, -1)))))
	f.Add(encodeTuple(NewTuple(Float(math.NaN()), Int(1))),
		encodeTuple(NewTuple(Float(math.Float64frombits(0xfff8000000000000)), Int(1))))
	f.Add(encodeTuple(NewTuple(Int(1), Null())), encodeTuple(NewTuple(Float(1), Null())))
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := decodeTuple(x), decodeTuple(y)
		if a.Identical(b) && (a.Hash() != b.Hash() || a.ShardHash() != b.ShardHash()) {
			t.Fatalf("identical tuples %v and %v hash apart", a, b)
		}
		idxs := make([]int, 0, len(a))
		for i := len(a) - 1; i >= 0; i -= 2 {
			idxs = append(idxs, i)
		}
		if a.HashCols(idxs) != a.Project(idxs).Hash() || a.ShardHashCols(idxs) != a.Project(idxs).ShardHash() {
			t.Fatalf("HashCols(%v) of %v differs from the projection's Hash", idxs, a)
		}
		if !a.IdenticalCols(idxs, a.Project(idxs), nil) {
			t.Fatalf("IdenticalCols rejects %v against its own projection", a)
		}

		// Index the tuples, prefixes included, and probe with each.
		var ts []Tuple
		for i := 0; i <= len(a); i++ {
			ts = append(ts, a[:i])
		}
		for i := 0; i <= len(b); i++ {
			ts = append(ts, b[:i])
		}
		idx := NewIndex(len(ts))
		for i, u := range ts {
			idx.Add(u.Hash(), i)
		}
		for _, probe := range ts {
			want := -1
			for i, u := range ts {
				if u.Identical(probe) {
					want = i
					break
				}
			}
			if got := idx.Find(probe.Hash(), ts, nil, probe, nil); got != want {
				t.Fatalf("Find(%v) = %d, linear scan = %d", probe, got, want)
			}
		}
	})
}

func BenchmarkTupleHash(b *testing.B) {
	tuples := map[string]Tuple{
		"two-ints":    NewTuple(Int(7), Int(42)),
		"course-row":  NewTuple(String("Mary"), String("CS"), Int(216), String("Fall"), Float(3.5)),
		"long-string": NewTuple(String("an attribute value longer than one chunk of eight bytes")),
	}
	for name, t := range tuples {
		b.Run(name+"/Hash", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.Hash()
			}
		})
		b.Run(name+"/ShardHash", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.ShardHash()
			}
		})
	}
}
