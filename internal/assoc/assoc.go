// Package assoc is the set-associative table with LRU replacement that
// every tagged structure of the machine is built on: the L1I, L1D and LLC,
// the BTB and shadow BTB, the loop predictor, the stream prefetcher's table
// and the CDF Critical Count Tables, Mask Cache and Critical Uop Cache
// (Table 1 of the paper).
//
// A Table owns the ways, their valid bits and recency stamps, and states
// the tag scan and the victim rule once. The owner keeps its set index (a
// mask, a modulo, or the one set of a fully associative table) and its
// payload V: a table's answers depend only on the order of its stamps, and
// every stamp takes the next tick of the table's own clock.
package assoc

import "fmt"

// Way is one entry of a Table: a tag, its valid bit, its recency stamp and
// the owner's payload. The stamp sits before Valid so that a small payload
// packs with the valid bit: a cache way with two flag bytes is 24 bytes.
type Way[V any] struct {
	Tag     uint64
	recency uint64
	Valid   bool
	V       V
}

// Table is a set-associative table of sets × ways entries, row-major by
// set. Owners hold it by value.
type Table[V any] struct {
	ways  []Way[V]
	sets  int
	assoc int // ways per set
	clock uint64
}

// New returns a table of sets sets of ways ways each, all invalid. It
// panics unless both are positive.
func New[V any](sets, ways int) Table[V] {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("assoc: a table needs a positive number of sets and ways, got %d sets of %d ways", sets, ways))
	}
	return Table[V]{ways: make([]Way[V], sets*ways), sets: sets, assoc: ways}
}

// Sets returns the number of sets.
func (t *Table[V]) Sets() int { return t.sets }

// set returns the ways of set s.
func (t *Table[V]) set(s int) []Way[V] {
	i := s * t.assoc
	return t.ways[i : i+t.assoc]
}

// Find returns the valid way of set s holding tag, or nil. It leaves
// recency alone.
func (t *Table[V]) Find(s int, tag uint64) *Way[V] {
	set := t.set(s)
	for i := range set {
		if w := &set[i]; w.Valid && w.Tag == tag {
			return w
		}
	}
	return nil
}

// Slot returns the way of set s holding tag and hit=true; otherwise the way
// a fill of tag takes: the first invalid way, else the least recently used
// one, ties to the lowest index. One scan finds both. It leaves recency
// alone; the caller follows with Touch on a hit or Fill on a miss.
func (t *Table[V]) Slot(s int, tag uint64) (w *Way[V], hit bool) {
	set := t.set(s)
	free, lru := -1, 0
	for i := range set {
		w := &set[i]
		switch {
		case !w.Valid:
			if free < 0 {
				free = i
			}
		case w.Tag == tag:
			return w, true
		case w.recency < set[lru].recency:
			lru = i
		}
	}
	if free >= 0 {
		return &set[free], false
	}
	return &set[lru], false
}

// Touch makes w the most recently used way of the table.
func (t *Table[V]) Touch(w *Way[V]) {
	t.clock++
	w.recency = t.clock
}

// Fill makes w a valid, most recently used way holding tag and v.
func (t *Table[V]) Fill(w *Way[V], tag uint64, v V) {
	t.clock++
	*w = Way[V]{Tag: tag, recency: t.clock, Valid: true, V: v}
}

// Oldest returns the least recently used valid way of the whole table
// whose tag is not keep, ties to the lowest index, or nil when there is
// none.
func (t *Table[V]) Oldest(keep uint64) *Way[V] {
	var old *Way[V]
	for i := range t.ways {
		w := &t.ways[i]
		if w.Valid && w.Tag != keep && (old == nil || w.recency < old.recency) {
			old = w
		}
	}
	return old
}

// Reset invalidates every way.
func (t *Table[V]) Reset() { clear(t.ways) }
