package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/sim"
)

// TestFindParallelMatchesFindProperty: the parallel search returns the
// sequential search's cost and optimality verdict with a legal order, in
// the paper mode and in the scoreboard mode (whose claimed issue ticks
// and stall count must also replay on the window-machine simulator).
func TestFindParallelMatchesFindProperty(t *testing.T) {
	m := machine.SimulationMachine()
	for _, tc := range []struct {
		mode   machine.SchedMode
		lambda int64
	}{
		{machine.SchedMode{}, 500000},
		// The scoreboard search has no bound engine or memo: about one
		// block in 1500 of these needs ~700k placements to finish.
		{machine.Scoreboard(8, 2), 5000000},
		{machine.Scoreboard(1, 1), 5000000},
	} {
		mode := tc.mode
		opts := Options{Sched: mode, Lambda: tc.lambda}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g, err := dag.Build(randomBlock(rng, 3+rng.Intn(9)))
			if err != nil {
				return false
			}
			seq, err := Find(g, m, opts)
			if err != nil || !seq.Optimal {
				return false
			}
			par, err := FindParallel(g, m, opts, 4)
			if err != nil || !par.Optimal {
				return false
			}
			if par.TotalNOPs != seq.TotalNOPs || !g.IsLegalOrder(par.Order) {
				return false
			}
			if mode.Kind != machine.SchedScoreboard {
				return true
			}
			return sim.VerifyScoreboard(sim.ScoreboardInput{
				Input:  sim.Input{Graph: g, M: m, Order: par.Order, Pipes: par.Pipes},
				Window: mode.Window,
				Width:  mode.Width,
			}, par.IssueTicks, par.TotalNOPs) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
}

func TestFindParallelDeterministicCost(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, err := dag.Build(randomBlock(rng, 12))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SimulationMachine()
	first, err := FindParallel(g, m, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := FindParallel(g, m, Options{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if again.TotalNOPs != first.TotalNOPs || again.Optimal != first.Optimal {
			t.Fatalf("run %d: cost %d/%v vs %d/%v", i,
				again.TotalNOPs, again.Optimal, first.TotalNOPs, first.Optimal)
		}
	}
}

func TestFindParallelEmptyAndTrivial(t *testing.T) {
	m := machine.SimulationMachine()
	g := mustGraph(t, "one:\n  1: Load #a")
	sched, err := FindParallel(g, m, Options{}, 2)
	if err != nil || !sched.Optimal || sched.TotalNOPs != 0 {
		t.Errorf("trivial: %+v, %v", sched, err)
	}
	empty := mustGraph(t, "one:\n  1: Load #a")
	empty.Block.Tuples = nil
	g2, err := dag.Build(empty.Block)
	if err != nil {
		t.Fatal(err)
	}
	sched2, err := FindParallel(g2, m, Options{}, 2)
	if err != nil || len(sched2.Order) != 0 {
		t.Errorf("empty: %+v, %v", sched2, err)
	}
}

func TestFindParallelZeroNOPSeed(t *testing.T) {
	g := mustGraph(t, `z:
  1: Load #a
  2: Load #b
  3: Load #c`)
	sched, err := FindParallel(g, machine.SimulationMachine(), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalNOPs != 0 || !sched.Optimal || sched.Stats.OmegaCalls != 0 {
		t.Errorf("zero-NOP seed: %+v", sched)
	}
}

func TestFindParallelRejectsIllegalSeed(t *testing.T) {
	g := mustGraph(t, "two:\n  1: Load #a\n  2: Neg @1")
	if _, err := FindParallel(g, machine.SimulationMachine(),
		Options{InitialOrder: []int{1, 0}}, 2); err == nil {
		t.Error("illegal seed accepted")
	}
}

func TestFindParallelCurtails(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := dag.Build(randomBlock(rng, 14))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := FindParallel(g, machine.DeepMachine(), Options{Lambda: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Optimal {
		t.Error("λ=10 parallel search claimed optimality")
	}
	if !g.IsLegalOrder(sched.Order) {
		t.Error("curtailed parallel result illegal")
	}
	// Curtailed or not, it never loses to the greedy-seeded incumbent.
	seq, err := Find(g, machine.DeepMachine(), Options{Lambda: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalNOPs > seq.InitialNOPs && sched.TotalNOPs > seq.TotalNOPs+5 {
		t.Errorf("parallel curtailed result suspicious: %d NOPs", sched.TotalNOPs)
	}
}

func TestFindParallelWithAssignSearch(t *testing.T) {
	m := machine.ExampleMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.Build(randomBlock(rng, 3+rng.Intn(6)))
		if err != nil {
			return false
		}
		seq, err := Find(g, m, Options{Assign: nopins.AssignGreedy, AssignSearch: true, Lambda: 200000})
		if err != nil || !seq.Optimal {
			return false
		}
		par, err := FindParallel(g, m, Options{Assign: nopins.AssignGreedy, AssignSearch: true, Lambda: 200000}, 4)
		if err != nil || !par.Optimal {
			return false
		}
		return par.TotalNOPs == seq.TotalNOPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
