package core

import (
	"bytes"
	"math/rand"
	"testing"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/memo"
	"pipesched/internal/nopins"
	"pipesched/internal/synth"
)

// refMemoKey is the reference dominance-key encoder: it re-derives every
// section from the whole prefix — marks each scheduled position, scans
// every position and all its successors for a pending flow consumer, and
// looks each producer's latency up in the machine table. The search's
// memoKey must produce exactly these bytes.
func refMemoKey(md *inOrderModel, c *memo.Canon) []byte {
	n := md.eval.Len()
	last := md.eval.IssueAt(n - 1)
	set := memo.NewSet(md.g.N)
	for pos := 0; pos < n; pos++ {
		set.Add(md.eval.NodeAt(pos))
	}
	c.Begin(md.g.N)
	c.Scheduled(set)
	c.Pipes(md.bnd.PipeResiduals(last, nil))
	for pos := 0; pos < n; pos++ {
		u := md.eval.NodeAt(pos)
		for _, d := range md.g.Succs[u] {
			if d.Kind.CarriesLatency() && !md.eval.Scheduled(d.Node) {
				lat := md.m.Latency(md.eval.PipeAt(pos))
				c.Pair(u, memo.Residual(md.eval.IssueAt(pos)+lat, last))
				break
			}
		}
	}
	c.SealPairs()
	if e := md.opts.Entry; e != nil && e.ReadyTick != nil {
		for v := 0; v < md.g.N; v++ {
			if !md.eval.Scheduled(v) {
				c.Pair(v, memo.Residual(e.ReadyTick[v], last))
			}
		}
	}
	c.SealPairs()
	return c.Bytes()
}

// keyCheckModel runs the in-order model unchanged and, at every memo
// lookup, compares the key it built with refMemoKey's.
type keyCheckModel struct {
	*inOrderModel
	t       *testing.T
	ref     memo.Canon
	lookups int
	failed  bool
}

func (k *keyCheckModel) dominated() bool {
	seen := k.inOrderModel.dominated()
	k.lookups++
	got := k.canon.Bytes()
	want := refMemoKey(k.inOrderModel, &k.ref)
	if !bytes.Equal(got, want) && !k.failed {
		k.failed = true
		k.t.Errorf("memo key at prefix %v:\n got %x\nwant %x", k.eval.Snapshot().Order, got, want)
	}
	if !seen && !bytes.Equal(k.keys[k.eval.Len()], want) && !k.failed {
		k.failed = true
		k.t.Errorf("key kept for remember at prefix %v differs: %x, want %x",
			k.eval.Snapshot().Order, k.keys[k.eval.Len()], want)
	}
	return seen
}

// randomEntry draws cross-block entry conditions: a start tick, ready
// ticks around it (some already satisfied) and reservations on some of
// m's pipelines.
func randomEntry(rng *rand.Rand, g *dag.Graph, m *machine.Machine) *nopins.EntryState {
	start := rng.Intn(6)
	e := &nopins.EntryState{StartTick: start, PipeLast: map[int]int{}}
	if rng.Intn(3) > 0 {
		e.ReadyTick = make([]int, g.N)
		for v := range e.ReadyTick {
			e.ReadyTick[v] = start - 2 + rng.Intn(10)
		}
	}
	for _, p := range m.Pipelines {
		if rng.Intn(2) == 0 {
			e.PipeLast[p.ID] = start - rng.Intn(3)
		}
	}
	return e
}

// TestMemoKeyMatchesReference: on random blocks over random machines,
// cold and with entry state, under AssignFixed, AssignGreedy and the
// assignment search, every key the search looks up in its dominance
// table is byte-identical to the reference full-prefix encoding — the
// bounded in-flight scan, the incremental scheduled set and the
// per-position latencies change how the key is built, never what it is.
func TestMemoKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	total := 0
	for trial := 0; trial < 400; trial++ {
		m := machine.Random(rng, machine.Params{})
		b, err := synth.Generate(rng, synth.RandomParams(rng, 6))
		if err != nil {
			t.Fatal(err)
		}
		g, err := dag.Build(b.IR)
		if err != nil {
			t.Fatal(err)
		}
		if g.N > 14 {
			continue
		}
		opts := Options{Lambda: 20000}
		switch trial % 3 {
		case 1:
			opts.Assign = nopins.AssignGreedy
		case 2:
			opts.Assign = nopins.AssignGreedy
			opts.AssignSearch = true
		}
		if trial%2 == 1 {
			opts.Entry = randomEntry(rng, g, m)
		}
		s, err := setup(g, m, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s == nil || !s.needsSearch() {
			continue
		}
		check := &keyCheckModel{inOrderModel: s.model.(*inOrderModel), t: t}
		s.model = check
		s.dfs(0)
		if check.failed {
			t.Fatalf("trial %d: machine %+v\nblock:\n%s", trial, m.Pipelines, b.Source)
		}
		total += check.lookups
	}
	if total < 1000 {
		t.Fatalf("only %d memo lookups checked; the corpus no longer exercises the memo", total)
	}
	t.Logf("%d memo lookups matched the reference encoding", total)
}
