package core

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search_golden.txt from the current search")

const goldenPath = "testdata/search_golden.txt"

// goldenCorpus is the block corpus the golden search-counter test runs:
// seeded synthetic blocks small enough for every mode and ablation to
// finish in seconds, plus hand-written blocks that reach what the
// synthetic draw rarely does: [5c] (interchangeable constants), the
// strong-equivalence filter (twin loads), the enqueue-occupancy bound (a
// multiplier-bound block), and minreg-k infeasibility proven by search
// and by the static pressure floor.
func goldenCorpus(t *testing.T) []*dag.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(20261017))
	var out []*dag.Graph
	for len(out) < 14 {
		b, err := synth.Generate(rng, synth.RandomParams(rng, 6))
		if err != nil {
			t.Fatalf("synth: %v", err)
		}
		g, err := dag.Build(b.IR)
		if err != nil {
			t.Fatalf("dag: %v", err)
		}
		if g.N >= 4 && g.N <= 12 {
			out = append(out, g)
		}
	}
	return append(out,
		mustGraph(t, `consts:
  1: Load #a
  2: Const 3
  3: Const 5
  4: Mul @2, @3
  5: Add @1, @4
  6: Store #a, @5`),
		mustGraph(t, `twins:
  1: Load #a
  2: Load #b
  3: Load #c
  4: Load #d
  5: Mul @1, @2
  6: Mul @3, @4
  7: Add @5, @6
  8: Store #e, @7`),
		mustGraph(t, `mulbound:
  1: Const 2
  2: Mul @1, @1
  3: Mul @1, @1
  4: Mul @1, @1
  5: Mul @1, @1
  6: Mul @1, @1
  7: Load #a
  8: Add @7, @2`),
		mustGraph(t, `pressure:
  1: Load #a
  2: Load #b
  3: Load #c
  4: Load #d
  5: Mul @1, @2
  6: Mul @3, @4
  7: Add @5, @6
  8: Add @7, @1
  9: Add @8, @3
  10: Store #e, @9`),
		mustGraph(t, `floor:
  1: Load #a
  2: Load #b
  3: Load #c
  4: Load #d
  5: Add @1, @2
  6: Add @5, @3
  7: Add @6, @4
  8: Add @7, @1
  9: Add @8, @2
  10: Add @9, @3
  11: Add @10, @4
  12: Store #e, @11`),
	)
}

// goldenVariants are the option sets every mode runs under: the
// defaults, the paper-faithful ablation (no bound engine, no memo), the
// strong-equivalence extension, and a small λ that pins the curtailed
// path.
var goldenVariants = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"faithful", Options{DisableLowerBound: true, DisableMemo: true}},
	{"strong", Options{StrongEquivalence: true}},
	{"lambda", Options{Lambda: 40}},
}

// goldenRecord renders one search result: every Stats counter, the cost
// and certificate fields, the stop reason, a hash of the schedule, and
// the recorded trace (per-action counts plus a hash of every event).
func goldenRecord(s *Schedule, err error, tr *SearchTrace) string {
	if err != nil {
		return fmt.Sprintf("err infeasible=%v %s", errors.Is(err, ErrInfeasible), err)
	}
	st := s.Stats
	stopped := "-"
	switch {
	case s.Stopped == nil:
	case errors.Is(s.Stopped, ErrBudget):
		stopped = "budget"
	default:
		stopped = s.Stopped.Error()
	}
	h := fnv.New64a()
	fmt.Fprint(h, s.Order, s.Pipes, s.Eta, s.IssueTicks)
	var sb strings.Builder
	fmt.Fprintf(&sb, "omega=%d seed=%d examined=%d improve=%d bounds=%d illegal=%d equiv=%d strong=%d ab=%d lb=%d res=%d press=%d memo=%d curt=%v",
		st.OmegaCalls, st.SeedOmegaCalls, st.SchedulesExamined, st.Improvements,
		st.PrunedBounds, st.PrunedIllegal, st.PrunedEquivalence, st.PrunedStrongEquiv,
		st.PrunedAlphaBeta, st.PrunedLowerBound, st.PrunedResource, st.PrunedPressure,
		st.MemoHits, st.Curtailed)
	fmt.Fprintf(&sb, " nops=%d init=%d rootlb=%d gap=%d live=%d opt=%v stop=%s sched=%016x",
		s.TotalNOPs, s.InitialNOPs, s.RootLB, s.Gap, s.MaxLive, s.Optimal, stopped, h.Sum64())
	th := fnv.New64a()
	for _, e := range tr.Events {
		fmt.Fprintln(th, e.String())
	}
	sb.WriteString(" trace=")
	for _, a := range []TraceAction{TracePlace, TraceImprove, TraceBounds, TraceIllegal, TraceEquiv,
		TraceStrong, TraceAlphaBeta, TraceLowerBound, TraceResource, TracePressure, TraceMemo, TraceCurtail} {
		fmt.Fprintf(&sb, "%d,", tr.Count(a))
	}
	fmt.Fprintf(&sb, "%016x", th.Sum64())
	return sb.String()
}

// TestGoldenSearchCounters pins the sequential search's exact behaviour
// — every counter, the chosen schedule and the event stream — in every
// scheduler mode under the default options and the main ablations. Any
// refactoring of the search kernel must leave this file unchanged; a
// deliberate behaviour change regenerates it with -update and shows the
// difference in review.
func TestGoldenSearchCounters(t *testing.T) {
	corpus := goldenCorpus(t)
	var lines []string
	run := func(key string, g *dag.Graph, m *machine.Machine, opts Options) {
		tr := &SearchTrace{Limit: 4000}
		opts.Trace = tr
		s, err := Find(g, m, opts)
		lines = append(lines, key+" "+goldenRecord(s, err, tr))
	}
	machines := []struct {
		name string
		m    *machine.Machine
	}{{"example", machine.ExampleMachine()}, {"simulation", machine.SimulationMachine()}}
	modes := []machine.SchedMode{{}, machine.MinRegLex(), machine.MinRegK(3), machine.Scoreboard(8, 2), machine.Scoreboard(1, 1)}
	for _, mc := range machines {
		for _, mode := range modes {
			for _, v := range goldenVariants {
				for bi, g := range corpus {
					opts := v.opts
					opts.Sched = mode
					run(fmt.Sprintf("%s/%s/%s/%02d", mc.name, mode, v.name, bi), g, mc.m, opts)
				}
			}
		}
	}
	ex := machine.ExampleMachine()
	for bi, g := range corpus {
		ready := make([]int, g.N)
		for u := range ready {
			ready[u] = 3 + u%4
		}
		entry := &nopins.EntryState{StartTick: 3, ReadyTick: ready, PipeLast: map[int]int{1: 3, 3: 2, 5: 1}}
		run(fmt.Sprintf("example/paper/entry/%02d", bi), g, ex, Options{Entry: entry})
		run(fmt.Sprintf("example/paper/assign-search/%02d", bi), g, ex,
			Options{Assign: nopins.AssignGreedy, AssignSearch: true})
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d records, search produced %d", len(want), len(lines))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("record %d differs\n got: %s\nwant: %s", i, lines[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d differing records in total", bad)
	}
}
