package relation

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// This file holds the module's tuple hashing and Index, a hash → position
// chain table whose candidates callers confirm with Identical or
// IdenticalCols. There are two hashes, and both agree with Identical
// (identical tuples hash alike):
//
//   - Hash / HashCols key every Index. They are keyed by a seed drawn at
//     random once per process, so which tuples share a hash cannot be
//     worked out in advance: no input, however crafted, can put many
//     distinct tuples on one chain and turn probes quadratic.
//   - ShardHash / ShardHashCols have a fixed seed. Only the parallel
//     operators' shard assignment reads them, so shards — and therefore
//     output order — are the same in every process. A collision there only
//     unbalances a shard; each shard's own index still chains on Hash.
//
// Distinct tuples may share a hash of either kind; the confirmation step
// makes that a matter of speed, never of correctness.

// indexSeed keys Hash and HashCols.
var indexSeed = maphash.MakeSeed()

// hashWords is how many values' words keyedHasher buffers before it folds
// them into a chained hash.
const hashWords = 8

// keyedHasher lays each value out as a 9-byte word — its kind, then a
// 64-bit payload — and hashes the words with the process seed. Floats are
// canonicalised (+0 and −0 alike, every NaN alike); a string of at most 8
// bytes is its own payload, with its length in the tag, and a longer one
// contributes its own seeded hash. A tuple wider than hashWords values is hashed a
// chunk at a time, each chunk opening with the previous chunk's hash.
type keyedHasher struct {
	n   int
	buf [9 * hashWords]byte
}

// Word tags beyond the value kinds: shortStringTag|n tags a string of
// n ≤ 8 bytes stored whole in its payload, and chainKind tags a word that
// carries the previous chunk's hash.
const (
	shortStringTag = 0x80
	chainKind      = 0xff
)

func (k *keyedHasher) add(v Value) {
	if k.n == len(k.buf) {
		h := k.sum()
		k.n = 0
		k.put(chainKind, h)
	}
	switch v.kind {
	case KindFloat:
		k.put(byte(v.kind), floatBits(v.f))
	case KindString:
		if s := v.s; len(s) <= 8 {
			var w uint64
			for i := 0; i < len(s); i++ {
				w |= uint64(s[i]) << (8 * i)
			}
			k.put(shortStringTag|byte(len(s)), w)
		} else {
			k.put(byte(v.kind), maphash.String(indexSeed, s))
		}
	default:
		k.put(byte(v.kind), uint64(v.i))
	}
}

func (k *keyedHasher) put(kind byte, w uint64) {
	k.buf[k.n] = kind
	binary.LittleEndian.PutUint64(k.buf[k.n+1:], w)
	k.n += 9
}

func (k *keyedHasher) sum() uint64 { return maphash.Bytes(indexSeed, k.buf[:k.n]) }

// Hash returns the tuple's seeded 64-bit hash, the one every Index keys
// on. Identical tuples have equal hashes.
func (t Tuple) Hash() uint64 {
	var k keyedHasher
	for _, v := range t {
		k.add(v)
	}
	return k.sum()
}

// HashCols returns t.Project(idxs).Hash() without building the projection.
func (t Tuple) HashCols(idxs []int) uint64 {
	var k keyedHasher
	for _, j := range idxs {
		k.add(t[j])
	}
	return k.sum()
}

const (
	shardSeed = 0x243f6a8885a308d3 // the first fraction digits of π
	hashMul   = 0x9e3779b97f4a7c15
	// nanBits is the one bit pattern every NaN hashes as: Identical treats
	// all NaNs as one value, whatever their payload.
	nanBits = 0x7ff8000000000001
)

// floatBits returns the bits both hashes read for a float: 0 for +0 and
// −0, nanBits for every NaN, the IEEE bits otherwise.
func floatBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return nanBits
	}
	return math.Float64bits(f)
}

// mix folds one word into a running fixed-seed hash.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * hashMul
	return h ^ h>>32
}

// finish is the 64-bit finalizer of MurmurHash3: it spreads every input
// bit over the low bits that shard assignment reads.
func finish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// shardInto folds v into a running fixed-seed hash: its kind, then its
// payload, strings with their length first.
func (v Value) shardInto(h uint64) uint64 {
	h = mix(h, uint64(v.kind))
	switch v.kind {
	case KindBool, KindInt:
		return mix(h, uint64(v.i))
	case KindFloat:
		return mix(h, floatBits(v.f))
	case KindString:
		s := v.s
		h = mix(h, uint64(len(s)))
		for ; len(s) >= 8; s = s[8:] {
			h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
				uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		}
		if len(s) > 0 {
			var tail uint64
			for i := 0; i < len(s); i++ {
				tail |= uint64(s[i]) << (8 * i)
			}
			h = mix(h, tail)
		}
	}
	return h
}

// ShardHash returns the tuple's fixed-seed hash, the same in every
// process. Identical tuples have equal shard hashes. It is for shard
// assignment only: being predictable, it must never key an Index.
func (t Tuple) ShardHash() uint64 {
	h := uint64(shardSeed)
	for _, v := range t {
		h = v.shardInto(h)
	}
	return finish(h)
}

// ShardHashCols returns t.Project(idxs).ShardHash() without building the
// projection.
func (t Tuple) ShardHashCols(idxs []int) uint64 {
	h := uint64(shardSeed)
	for _, j := range idxs {
		h = t[j].shardInto(h)
	}
	return finish(h)
}

// HasNullCols reports whether any of t's values at idxs is NULL: a tuple
// with a NULL join-key column matches nothing under SQL equality.
func (t Tuple) HasNullCols(idxs []int) bool {
	for _, j := range idxs {
		if t[j].IsNull() {
			return true
		}
	}
	return false
}

// IdenticalCols reports whether t's values at idxs are Identical, position
// by position, to o's values at oIdxs, without building either projection.
// A nil index list stands for all of that tuple's columns in order, so
// out.IdenticalCols(nil, src, idxs) compares a stored projection with the
// source tuple it would be projected from.
func (t Tuple) IdenticalCols(idxs []int, o Tuple, oIdxs []int) bool {
	n, m := len(t), len(o)
	if idxs != nil {
		n = len(idxs)
	}
	if oIdxs != nil {
		m = len(oIdxs)
	}
	if n != m {
		return false
	}
	for i := 0; i < n; i++ {
		a, b := i, i
		if idxs != nil {
			a = idxs[i]
		}
		if oIdxs != nil {
			b = oIdxs[i]
		}
		if !t[a].Identical(o[b]) {
			return false
		}
	}
	return true
}

// Index is a hash table from 64-bit tuple hashes to chains of positions
// (into a tuple slice the caller owns). Each chain lists its positions in
// insertion order; callers walk it and confirm each candidate, since
// distinct tuples can share a hash:
//
//	for p := x.First(h); p >= 0; p = x.Next(p) {
//		if tuples[p].Identical(t) { ... }
//	}
//
// A position is added at most once. Positions need not be dense, but the
// chain arrays grow to the largest one added.
type Index struct {
	head map[uint64]int32 // hash → 1 + first position of its chain
	next []int32          // position → 1 + next position of its chain (0 ends it)
	last []int32          // chain-head position → last position of its chain
}

// NewIndex returns an empty index sized for n positions.
func NewIndex(n int) *Index {
	return &Index{
		head: make(map[uint64]int32, n),
		next: make([]int32, 0, n),
		last: make([]int32, 0, n),
	}
}

// Add appends position p to the chain of hash h.
func (x *Index) Add(h uint64, p int) {
	for len(x.next) <= p {
		x.next = append(x.next, 0)
		x.last = append(x.last, 0)
	}
	f, ok := x.head[h]
	if !ok {
		x.head[h] = int32(p + 1)
		x.last[p] = int32(p)
		return
	}
	first := f - 1
	x.next[x.last[first]] = int32(p + 1)
	x.last[first] = int32(p)
}

// First returns the first position of h's chain, or -1.
func (x *Index) First(h uint64) int { return int(x.head[h]) - 1 }

// Next returns the position after p in its chain, or -1.
func (x *Index) Next(p int) int { return int(x.next[p]) - 1 }

// Find returns the first position p on h's chain whose tuple ts[p], at
// columns idxs, is Identical to t at columns tIdxs; or -1. Nil index lists
// stand for all columns, as in IdenticalCols.
func (x *Index) Find(h uint64, ts []Tuple, idxs []int, t Tuple, tIdxs []int) int {
	for p := x.First(h); p >= 0; p = x.Next(p) {
		if ts[p].IdenticalCols(idxs, t, tIdxs) {
			return p
		}
	}
	return -1
}

// FindOrAdd is Find, except that when no position matches it adds position
// len(ts) to h's chain and reports added; the caller then appends the new
// tuple to ts.
func (x *Index) FindOrAdd(h uint64, ts []Tuple, idxs []int, t Tuple, tIdxs []int) (pos int, added bool) {
	if p := x.Find(h, ts, idxs, t, tIdxs); p >= 0 {
		return p, false
	}
	x.Add(h, len(ts))
	return len(ts), true
}
