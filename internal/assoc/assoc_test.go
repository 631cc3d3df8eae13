package assoc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// index returns w's position in the table's way array.
func index[V any](t *Table[V], w *Way[V]) int {
	for i := range t.ways {
		if &t.ways[i] == w {
			return i
		}
	}
	return -1
}

// TestSlotVictimChoice pins which way an access to a tag takes in a full or
// filling set: the hit way, else the first invalid way, else the least
// recently used one, ties to the lowest index; a hit replaces nothing.
func TestSlotVictimChoice(t *testing.T) {
	type way struct {
		valid   bool
		tag     uint64
		recency uint64
	}
	for _, tc := range []struct {
		name string
		set  []way
		tag  uint64
		want int // index that must now hold tag
	}{
		{"empty table", []way{{}, {}, {}, {}}, 9, 0},
		{"first invalid, not the lowest LRU", []way{{true, 1, 1}, {true, 2, 2}, {}, {}}, 9, 2},
		{"invalid after a lower LRU", []way{{true, 1, 5}, {true, 2, 1}, {true, 3, 7}, {}}, 9, 3},
		{"invalid at index 0", []way{{}, {true, 2, 1}, {true, 3, 1}, {true, 4, 1}}, 9, 0},
		{"least recently used", []way{{true, 1, 5}, {true, 2, 3}, {true, 3, 7}, {true, 4, 4}}, 9, 1},
		{"LRU tie to the lowest index", []way{{true, 1, 5}, {true, 2, 2}, {true, 3, 7}, {true, 4, 2}}, 9, 1},
		{"tracked region", []way{{true, 1, 5}, {true, 9, 6}, {}, {true, 3, 1}}, 9, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := New[int](1, len(tc.set))
			for i, w := range tc.set {
				tb.ways[i] = Way[int]{Tag: w.tag, recency: w.recency, Valid: w.valid}
			}
			tb.clock = 10
			w, hit := tb.Slot(0, tc.tag)
			if hit {
				tb.Touch(w)
			} else {
				tb.Fill(w, tc.tag, 0)
			}
			for i, e := range tc.set {
				got := tb.ways[i]
				if i == tc.want {
					if !got.Valid || got.Tag != tc.tag || got.recency != 11 {
						t.Fatalf("way %d = %+v, want tag %d used at clock 11", i, got, tc.tag)
					}
					continue
				}
				if got.Valid != e.valid || got.Tag != e.tag || got.recency != e.recency {
					t.Fatalf("way %d changed to %+v", i, got)
				}
			}
		})
	}
}

// model is the reference a Table is checked against: each way's contents
// by position, plus one recency list of way positions, least recently used
// first, that holds exactly the valid ways.
type model struct {
	sets, ways int
	valid      []bool
	tag        []uint64
	val        []int
	order      []int
}

func (m *model) find(s int, tag uint64) int {
	for i := s * m.ways; i < (s+1)*m.ways; i++ {
		if m.valid[i] && m.tag[i] == tag {
			return i
		}
	}
	return -1
}

// slot follows the definition: the hit way, else the first invalid way,
// else the set's way that comes first in the recency list.
func (m *model) slot(s int, tag uint64) (int, bool) {
	if i := m.find(s, tag); i >= 0 {
		return i, true
	}
	for i := s * m.ways; i < (s+1)*m.ways; i++ {
		if !m.valid[i] {
			return i, false
		}
	}
	for _, i := range m.order {
		if i/m.ways == s {
			return i, false
		}
	}
	panic("model: full set with no way in the recency list")
}

func (m *model) use(i int) {
	m.drop(i)
	m.order = append(m.order, i)
}

func (m *model) drop(i int) {
	if k := slices.Index(m.order, i); k >= 0 {
		m.order = slices.Delete(m.order, k, k+1)
	}
}

func (m *model) oldest(keep uint64) int {
	for _, i := range m.order {
		if m.tag[i] != keep {
			return i
		}
	}
	return -1
}

// TestTableMatchesModel drives random Find, Slot, Fill, Touch, Oldest,
// invalidate and Reset sequences on three geometries (a power-of-two set
// count, a set count that is not one, and one fully associative set) and
// checks every answer against the model.
func TestTableMatchesModel(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{32, 2}, {72, 4}, {1, 64}} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.sets*100 + g.ways)))
			tb := New[int](g.sets, g.ways)
			n := g.sets * g.ways
			m := &model{sets: g.sets, ways: g.ways,
				valid: make([]bool, n), tag: make([]uint64, n), val: make([]int, n)}
			// About three tags per way, so sets fill, hit and evict.
			tags := uint64(3 * n)
			for op := 0; op < 50_000; op++ {
				tag := uint64(rng.Int63n(int64(tags)))
				s := int(tag % uint64(g.sets))
				switch r := rng.Intn(1000); {
				case r < 300:
					w, want := tb.Find(s, tag), m.find(s, tag)
					if got := index(&tb, w); w != nil && got != want || w == nil && want >= 0 {
						t.Fatalf("op %d: Find(%d, %d) = way %d, want %d", op, s, tag, got, want)
					}
					if w != nil && w.V != m.val[want] {
						t.Fatalf("op %d: way %d holds %d, want %d", op, want, w.V, m.val[want])
					}
					if w != nil && rng.Intn(2) == 0 {
						tb.Touch(w)
						m.use(want)
					}
				case r < 850:
					w, hit := tb.Slot(s, tag)
					want, wantHit := m.slot(s, tag)
					if got := index(&tb, w); got != want || hit != wantHit {
						t.Fatalf("op %d: Slot(%d, %d) = (way %d, %v), want (%d, %v)", op, s, tag, got, hit, want, wantHit)
					}
					if hit {
						tb.Touch(w)
					} else {
						tb.Fill(w, tag, op)
						m.valid[want], m.tag[want], m.val[want] = true, tag, op
					}
					m.use(want)
				case r < 930:
					keep := tag
					w, want := tb.Oldest(keep), m.oldest(keep)
					if got := index(&tb, w); w != nil && got != want || w == nil && want >= 0 {
						t.Fatalf("op %d: Oldest(%d) = way %d, want %d", op, keep, got, want)
					}
				case r < 999:
					if w := tb.Find(s, tag); w != nil {
						w.Valid = false
						i := m.find(s, tag)
						m.valid[i] = false
						m.drop(i)
					}
				default:
					tb.Reset()
					clear(m.valid)
					m.order = m.order[:0]
				}
			}
		})
	}
}

// TestNewRejectsEmptyGeometry: a table needs at least one set of one way.
func TestNewRejectsEmptyGeometry(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{0, 4}, {4, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", g.sets, g.ways)
				}
			}()
			New[int](g.sets, g.ways)
		}()
	}
}
