// Package memo is the search's transposition/dominance table. Different
// branches of the B&B permutation tree frequently reach the SAME residual
// scheduling problem — the same set of instructions scheduled, the same
// pipelines busy for the same number of future ticks, the same producers
// still in flight — having paid different NOP costs to get there. The
// minimum cost of COMPLETING such a state depends only on the state, so
// once one branch has fully explored it, any later branch arriving with
// an equal-or-worse cost-so-far is dominated and can be pruned.
//
// The table is keyed by a canonical encoding of the state, built as bytes
// by Canon (Canon.Bytes; the slice is reused by the next Begin) and
// passed to Table.Dominated and Table.Store as []byte. A lookup does not
// allocate; a string copy of the key is made only when Store admits a new
// entry or rewrites an improved one. The encoding is designed so that two
// states with identical completion spaces collide:
//
//   - All timing is RELATIVE to the last issue tick. Two occurrences of
//     the same residual problem at different absolute ticks — "renumbered"
//     states, the common case along permuted prefixes — produce the same
//     key, because a completion's tick count beyond lastIssue is
//     translation-invariant.
//   - Expired constraints vanish. A pipeline whose enqueue conflict has
//     drained, or an in-flight producer whose result is already
//     available, contributes nothing, so states differing only in dead
//     history collide.
//   - Live constraints are encoded exactly. Distinct residual pipeline
//     states, in-flight latencies, or external ready times produce
//     distinct keys (the encoding is section-length-prefixed and
//     prefix-unambiguous), so dominance is never claimed across states
//     with different futures.
//
// Soundness of the prune (DESIGN.md §11): entries are stored only after
// a state's subtree has been fully explored (never on a curtailed
// subtree), and an entry records the cost-so-far at which that happened.
// A later visit with cost ≥ recorded cost cannot contain a completion
// that beats what the recorded visit already saw or pruned against a
// then-weaker-or-equal incumbent, so discarding it never changes the
// search's returned cost — only the work done to find it.
//
// The table is bounded: once full it stops admitting NEW keys (lookups
// and in-place improvements continue), so memory stays capped without
// an eviction policy that could break reproducibility.
package memo

import (
	"encoding/binary"
	"fmt"
)

// Residual converts an absolute tick constraint to the canonical
// relative form: the number of ticks after lastIssue+1 (the earliest
// possible next issue) the constraint still binds. Expired constraints
// clamp to zero, making them disappear from keys.
func Residual(deadline, lastIssue int) int {
	if r := deadline - (lastIssue + 1); r > 0 {
		return r
	}
	return 0
}

// Set is a node bitmask in the key's scheduled-set layout: bit u&7 of
// byte u>>3. A search keeps one up to date as it pushes and pops nodes
// and hands it to Canon.Scheduled, instead of re-marking the whole
// prefix for every key.
type Set []byte

// NewSet returns an empty set over n nodes.
func NewSet(n int) Set { return make(Set, (n+7)/8) }

// Add puts node u in the set.
func (s Set) Add(u int) { s[u>>3] |= 1 << (u & 7) }

// Remove takes node u out of the set.
func (s Set) Remove(u int) { s[u>>3] &^= 1 << (u & 7) }

// Canon accumulates one state's canonical key. The caller contributes
// sections in a fixed order — scheduled set, per-pipeline residuals,
// in-flight producers, external ready times — and each section is
// length- or width-delimited, so no two distinct section sequences can
// encode to the same bytes. Reuse one Canon per searcher; Begin resets.
type Canon struct {
	buf   []byte
	n     int
	pairs [][2]int // (node, residual) for the current section
}

// Begin starts a fresh key for an n-node block.
func (c *Canon) Begin(n int) {
	c.buf = c.buf[:0]
	c.n = n
	c.pairs = c.pairs[:0]
	c.putUvarint(uint64(n))
}

// Scheduled appends the scheduled prefix, a set over the n nodes passed
// to Begin (its width is fixed by n, so the section is self-delimiting).
// Call exactly once, right after Begin.
func (c *Canon) Scheduled(s Set) {
	if len(s) != (c.n+7)/8 {
		panic(fmt.Sprintf("memo: scheduled set of %d bytes for a %d-node block", len(s), c.n))
	}
	c.buf = append(c.buf, s...)
}

func (c *Canon) putUvarint(v uint64) {
	if v < 0x80 { // the common case: one byte, the same as AppendUvarint writes
		c.buf = append(c.buf, byte(v))
		return
	}
	c.buf = binary.AppendUvarint(c.buf, v)
}

// Pipes appends the per-pipeline enqueue residuals, one per pipeline in
// machine table order (fixed arity ⇒ self-delimiting). Call exactly once,
// after Scheduled.
func (c *Canon) Pipes(residuals []int) {
	c.putUvarint(uint64(len(residuals)))
	for _, r := range residuals {
		c.putUvarint(uint64(r))
	}
	c.pairs = c.pairs[:0]
}

// Pair records one (node, residual) constraint for the CURRENT section —
// in-flight flow producers after Pipes, external ready times after
// SealPairs. Zero residuals are dropped (expired constraints must not
// perturb the key); nodes may arrive in any order (pairs are sorted at
// seal time).
func (c *Canon) Pair(node, residual int) {
	if residual <= 0 {
		return
	}
	c.pairs = append(c.pairs, [2]int{node, residual})
}

// SealPairs closes the current (node, residual) section, sorting and
// length-prefixing it, and opens the next. Call once after the in-flight
// pairs and once after the ready pairs.
func (c *Canon) SealPairs() {
	// Insertion sort by node: sections are small (live constraints only)
	// and a node appears at most once per section.
	for i := 1; i < len(c.pairs); i++ {
		for j := i; j > 0 && c.pairs[j][0] < c.pairs[j-1][0]; j-- {
			c.pairs[j], c.pairs[j-1] = c.pairs[j-1], c.pairs[j]
		}
	}
	c.putUvarint(uint64(len(c.pairs)))
	for _, p := range c.pairs {
		c.putUvarint(uint64(p[0]))
		c.putUvarint(uint64(p[1]))
	}
	c.pairs = c.pairs[:0]
}

// Bytes returns the accumulated canonical key. The slice is owned by
// the Canon and is overwritten by the next Begin; a caller that needs
// the key longer copies it.
func (c *Canon) Bytes() []byte { return c.buf }

// DefaultCap is the default bound on table entries. On the paper's
// five-pipeline machine a key is 10–19 bytes (the node count, the
// scheduled bitmask, one byte per pipeline, two per live pair), stored
// in a 16- or 24-byte allocation; the map slot adds 24 bytes (string
// header and record) and the map's load-factor slack the rest. Measured
// with go1.24, an entry costs 60–70 bytes, and a full table of 14-byte
// keys holds about 18 MB.
const DefaultCap = 1 << 18

// record is one stored visit: the (cost-so-far, peak-pressure-so-far)
// pair at which the state's subtree was fully explored. Paper-mode
// searches pass live=0 everywhere, collapsing the pair back to the
// single-cost table.
type record struct {
	cost int32
	live int32
}

// dominates reports component-wise dominance: r is at least as good as
// (cost, live) on BOTH axes. A packed or summed comparison would be
// unsound — a visit with lower cost but higher pressure-so-far does not
// bound the lexicographic or constrained value of a later visit's
// completions (DESIGN.md §15 carries the full argument).
func (r record) dominates(cost, live int32) bool {
	return r.cost <= cost && r.live <= live
}

// Table is a bounded map from canonical state key to the best
// (cost-so-far, peak-pressure-so-far) pair at which the state's subtree
// has been fully explored. It is NOT safe for concurrent use; parallel
// searches hold one per worker.
type Table struct {
	m   map[string]record
	cap int

	hits    int64
	misses  int64
	stores  int64
	dropped int64 // stores refused because the table was full
}

// NewTable creates a table bounded to capEntries keys (<= 0 selects
// DefaultCap).
func NewTable(capEntries int) *Table {
	if capEntries <= 0 {
		capEntries = DefaultCap
	}
	return &Table{m: make(map[string]record), cap: capEntries}
}

// Dominated reports whether a previous visit to key completed its
// subtree at cost-so-far <= cost AND peak-pressure-so-far <= live —
// i.e. whether the current visit is dominated on both axes and may be
// pruned. Modes that do not track pressure pass live = 0. The lookup
// does not allocate.
func (t *Table) Dominated(key []byte, cost, live int) bool {
	if rec, ok := t.m[string(key)]; ok && rec.dominates(int32(cost), int32(live)) {
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Store records that key's subtree has been fully explored at the given
// (cost-so-far, peak-pressure-so-far). The table keeps one pair per key:
// a new pair replaces the old only when it dominates it component-wise
// (any genuinely reached pair makes Dominated sound, so which pair is
// kept is purely a hit-rate heuristic). New keys are dropped once the
// table is full; dominating improvements to existing keys always land.
// The table copies key; the caller may reuse it.
func (t *Table) Store(key []byte, cost, live int) {
	rec := record{cost: int32(cost), live: int32(live)}
	if old, ok := t.m[string(key)]; ok {
		if rec.dominates(old.cost, old.live) && rec != old {
			t.m[string(key)] = rec
		}
		return
	}
	if len(t.m) >= t.cap {
		t.dropped++
		return
	}
	t.m[string(key)] = rec
	t.stores++
}

// Len returns the number of stored states.
func (t *Table) Len() int { return len(t.m) }

// Stats returns cumulative lookup/store counters: dominance hits, lookup
// misses, stored states, and stores dropped at capacity.
func (t *Table) Stats() (hits, misses, stores, dropped int64) {
	return t.hits, t.misses, t.stores, t.dropped
}
