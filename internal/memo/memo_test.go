package memo

import (
	"testing"
)

// buildKey assembles a key from one state description: scheduled nodes,
// per-pipe enqueue deadlines, in-flight (node, deadline) and ready
// (node, deadline) constraints, all in ABSOLUTE ticks relative to
// lastIssue — exercising exactly the translation the search performs.
func buildKey(c *Canon, n int, scheduled []int, lastIssue int, pipeDeadline []int, inflight, ready [][2]int) string {
	set := NewSet(n)
	for _, u := range scheduled {
		set.Add(u)
	}
	c.Begin(n)
	c.Scheduled(set)
	res := make([]int, len(pipeDeadline))
	for i, d := range pipeDeadline {
		res[i] = Residual(d, lastIssue)
	}
	c.Pipes(res)
	for _, p := range inflight {
		c.Pair(p[0], Residual(p[1], lastIssue))
	}
	c.SealPairs()
	for _, p := range ready {
		c.Pair(p[0], Residual(p[1], lastIssue))
	}
	c.SealPairs()
	return string(c.Bytes())
}

func TestResidual(t *testing.T) {
	if r := Residual(10, 6); r != 3 {
		t.Fatalf("Residual(10,6) = %d, want 3", r)
	}
	if r := Residual(7, 6); r != 0 {
		t.Fatalf("Residual(7,6) = %d, want 0 (constraint satisfied at next issue)", r)
	}
	if r := Residual(2, 6); r != 0 {
		t.Fatalf("Residual(2,6) = %d, want 0 (expired)", r)
	}
}

// TestKeyTranslationInvariance: the same residual problem occurring at
// different absolute ticks must produce the same key.
func TestKeyTranslationInvariance(t *testing.T) {
	var c Canon
	a := buildKey(&c, 12, []int{0, 2, 5}, 9,
		[]int{11, 9}, [][2]int{{2, 13}, {5, 11}}, [][2]int{{7, 12}})
	for _, shift := range []int{1, 7, 100} {
		b := buildKey(&c, 12, []int{0, 2, 5}, 9+shift,
			[]int{11 + shift, 9 + shift},
			[][2]int{{2, 13 + shift}, {5, 11 + shift}},
			[][2]int{{7, 12 + shift}})
		if a != b {
			t.Fatalf("shift %d: keys differ for time-translated states", shift)
		}
	}
}

// TestKeyExpiredConstraintsVanish: dead history — drained pipes, landed
// producers — must not perturb the key.
func TestKeyExpiredConstraintsVanish(t *testing.T) {
	var c Canon
	a := buildKey(&c, 8, []int{1, 3}, 20,
		[]int{5, 21}, [][2]int{{1, 9}, {3, 24}}, nil)
	b := buildKey(&c, 8, []int{1, 3}, 20,
		[]int{17, 21}, [][2]int{{3, 24}}, nil)
	if a != b {
		t.Fatal("states differing only in expired constraints must collide")
	}
}

// TestKeyDistinguishesLiveState: any live difference — scheduled set,
// a pipe residual, an in-flight residual, or which section a pair sits
// in — must produce distinct keys.
func TestKeyDistinguishesLiveState(t *testing.T) {
	var c Canon
	base := buildKey(&c, 8, []int{1, 3}, 10, []int{12, 11}, [][2]int{{3, 14}}, [][2]int{{5, 13}})
	variants := []string{
		buildKey(&c, 8, []int{1, 4}, 10, []int{12, 11}, [][2]int{{3, 14}}, [][2]int{{5, 13}}),
		buildKey(&c, 8, []int{1, 3}, 10, []int{13, 11}, [][2]int{{3, 14}}, [][2]int{{5, 13}}),
		buildKey(&c, 8, []int{1, 3}, 10, []int{12, 11}, [][2]int{{3, 15}}, [][2]int{{5, 13}}),
		buildKey(&c, 8, []int{1, 3}, 10, []int{12, 11}, [][2]int{{3, 14}, {5, 13}}, nil),
		buildKey(&c, 8, []int{1, 3}, 10, []int{12, 11}, nil, [][2]int{{3, 14}, {5, 13}}),
		buildKey(&c, 9, []int{1, 3}, 10, []int{12, 11}, [][2]int{{3, 14}}, [][2]int{{5, 13}}),
	}
	for i, v := range variants {
		if v == base {
			t.Fatalf("variant %d: live-state difference did not change the key", i)
		}
	}
}

// TestKeyPairOrderIrrelevant: pairs arrive in search-dependent order but
// the key must be canonical.
func TestKeyPairOrderIrrelevant(t *testing.T) {
	var c Canon
	a := buildKey(&c, 8, []int{0}, 5, []int{7}, [][2]int{{1, 9}, {4, 8}, {2, 11}}, nil)
	b := buildKey(&c, 8, []int{0}, 5, []int{7}, [][2]int{{2, 11}, {1, 9}, {4, 8}}, nil)
	if a != b {
		t.Fatal("pair insertion order changed the key")
	}
}

func TestTableDominance(t *testing.T) {
	k1, k2, k3 := []byte("k1"), []byte("k2"), []byte("k3")
	tb := NewTable(2)
	if tb.Dominated(k1, 5, 0) {
		t.Fatal("empty table claimed dominance")
	}
	tb.Store(k1, 5, 0)
	if !tb.Dominated(k1, 5, 0) || !tb.Dominated(k1, 7, 0) {
		t.Fatal("equal/worse revisit not dominated")
	}
	if tb.Dominated(k1, 4, 0) {
		t.Fatal("strictly better revisit wrongly dominated")
	}
	tb.Store(k1, 3, 0) // improvement lands
	if !tb.Dominated(k1, 3, 0) {
		t.Fatal("improved entry not effective")
	}
	tb.Store(k2, 1, 0)
	tb.Store(k3, 1, 0) // over capacity: dropped
	if tb.Len() != 2 {
		t.Fatalf("table grew past its cap: %d entries", tb.Len())
	}
	if tb.Dominated(k3, 9, 9) {
		t.Fatal("dropped key claimed dominance")
	}
	tb.Store(k1, 2, 0) // improvements still land when full
	if !tb.Dominated(k1, 2, 0) {
		t.Fatal("improvement at capacity did not land")
	}
	hits, misses, stores, dropped := tb.Stats()
	if hits == 0 || misses == 0 || stores != 2 || dropped != 1 {
		t.Fatalf("stats hits=%d misses=%d stores=%d dropped=%d", hits, misses, stores, dropped)
	}
}

// TestTablePairDominance: dominance must be component-wise over
// (cost, live) — a lower cost with a higher pressure-so-far does NOT
// dominate, and vice versa.
func TestTablePairDominance(t *testing.T) {
	k := []byte("k")
	tb := NewTable(0)
	tb.Store(k, 5, 3)
	if !tb.Dominated(k, 5, 3) || !tb.Dominated(k, 6, 3) || !tb.Dominated(k, 5, 4) {
		t.Fatal("component-wise worse revisit not dominated")
	}
	if tb.Dominated(k, 4, 9) {
		t.Fatal("lower-cost/higher-live revisit wrongly dominated")
	}
	if tb.Dominated(k, 9, 2) {
		t.Fatal("higher-cost/lower-live revisit wrongly dominated")
	}
	// An incomparable pair must not replace the stored one (either order
	// of arrival keeps a sound table): after storing (4,9), (5,3) must
	// still dominate revisits it dominated before.
	tb.Store(k, 4, 9)
	if !tb.Dominated(k, 6, 3) {
		t.Fatal("incomparable Store clobbered the existing record")
	}
	// A pair dominating on both axes replaces the record.
	tb.Store(k, 4, 2)
	if !tb.Dominated(k, 4, 2) {
		t.Fatal("dominating improvement did not land")
	}
}

// TestLookupAllocs: building a key into a warm Canon and looking it up —
// stored or missing — allocates nothing; so does a Store that does not
// change the table.
func TestLookupAllocs(t *testing.T) {
	var c Canon
	tb := NewTable(0)
	stored := []byte(buildKey(&c, 12, []int{0, 2, 5}, 9, []int{11, 9}, [][2]int{{2, 13}}, nil))
	missing := []byte(buildKey(&c, 12, []int{0, 2, 6}, 9, []int{11, 9}, [][2]int{{2, 13}}, nil))
	tb.Store(stored, 5, 0)
	res := []int{2, 0}
	set := NewSet(12)
	set.Add(3)
	cases := []struct {
		name string
		f    func()
	}{
		{"Dominated(stored)", func() { tb.Dominated(stored, 6, 0) }},
		{"Dominated(stored, cheaper)", func() { tb.Dominated(stored, 4, 0) }},
		{"Dominated(missing)", func() { tb.Dominated(missing, 6, 0) }},
		{"Store(stored, no better)", func() { tb.Store(stored, 7, 0) }},
		{"Canon", func() {
			c.Begin(12)
			c.Scheduled(set)
			c.Pipes(res)
			c.Pair(3, 4)
			c.SealPairs()
			c.SealPairs()
			tb.Dominated(c.Bytes(), 1, 0)
		}},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, n)
		}
	}
}
