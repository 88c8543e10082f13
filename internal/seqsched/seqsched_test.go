package seqsched

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/sim"
	"pipesched/internal/synth"
)

func mustBlock(t *testing.T, src string) *ir.Block {
	t.Helper()
	b, err := ir.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// boundaryBlocks returns two blocks that each consist of a single
// multiply: the enqueue-time conflict exists ONLY across the boundary.
func boundaryBlocks(t *testing.T) []*ir.Block {
	t.Helper()
	return []*ir.Block{
		mustBlock(t, "one:\n  1: Mul 2, 3"),
		mustBlock(t, "two:\n  1: Mul 4, 5"),
	}
}

// TestAdvanceClonesAndAdvances pins the boundary-threading step: the
// clock and per-pipeline last enqueue move by the placed positions, the
// issue ticks are reported, and the input state is left untouched.
func TestAdvanceClonesAndAdvances(t *testing.T) {
	s := &nopins.EntryState{StartTick: 3, PipeLast: map[int]int{1: 2, 4: 3}}
	issue := make([]int, 3)
	next := Advance(s, []int{0, 1, 2}, []int{1, machine.NoPipeline, 2}, issue)
	if next.StartTick != 9 {
		t.Errorf("StartTick = %d, want 9", next.StartTick)
	}
	if want := map[int]int{1: 4, 2: 9, 4: 3}; !reflect.DeepEqual(next.PipeLast, want) {
		t.Errorf("PipeLast = %v, want %v", next.PipeLast, want)
	}
	if want := []int{4, 6, 9}; !reflect.DeepEqual(issue, want) {
		t.Errorf("issue = %v, want %v", issue, want)
	}
	if s.StartTick != 3 || !reflect.DeepEqual(s.PipeLast, map[int]int{1: 2, 4: 3}) {
		t.Errorf("input state modified: %+v", s)
	}
	if cold := Advance(nil, nil, nil, nil); cold.StartTick != 0 || cold.PipeLast == nil || len(cold.PipeLast) != 0 {
		t.Errorf("cold start = %+v, want tick 0 and an empty map", cold)
	}
}

func TestBoundaryConflictThreaded(t *testing.T) {
	m := machine.SimulationMachine() // multiplier enqueue 2
	r, err := Schedule(boundaryBlocks(t), m, core.Options{Lambda: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// The second block must begin with one NOP for the boundary conflict.
	if r.TotalNOPs != 1 {
		t.Errorf("TotalNOPs = %d, want 1 (second Mul needs spacing)", r.TotalNOPs)
	}
	if r.TotalTicks != 3 {
		t.Errorf("TotalTicks = %d, want 3", r.TotalTicks)
	}
}

func TestNaiveConcatenationWouldHazard(t *testing.T) {
	// Scheduling each block cold and butting them together violates the
	// multiplier's enqueue constraint at the boundary — the simulator
	// must catch it. This is exactly the failure footnote 1 prevents.
	m := machine.SimulationMachine()
	blocks := boundaryBlocks(t)
	combined, err := ir.Concat("naive", blocks...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(combined)
	if err != nil {
		t.Fatal(err)
	}
	mulPipe := m.PipelineFor(ir.Mul)
	_, err = sim.Run(sim.Input{
		Graph: g, M: m,
		Order: []int{0, 1},
		Eta:   []int{0, 0}, // cold schedules: no boundary NOP
		Pipes: []int{mulPipe, mulPipe},
	}, sim.NOPPadding)
	if err == nil {
		t.Fatal("naive concatenation simulated hazard-free; it must conflict")
	}
}

func TestFlattenSimulatesHazardFree(t *testing.T) {
	m := machine.SimulationMachine()
	blocks := []*ir.Block{
		mustBlock(t, "a:\n  1: Load #x\n  2: Mul @1, @1\n  3: Store #y, @2"),
		mustBlock(t, "b:\n  1: Mul 3, 4\n  2: Store #z, @1"),
		mustBlock(t, "c:\n  1: Load #y\n  2: Load #z\n  3: Add @1, @2\n  4: Store #w, @3"),
	}
	r, err := Schedule(blocks, m, core.Options{Lambda: 10000})
	if err != nil {
		t.Fatal(err)
	}
	g, order, eta, pipes, err := Flatten(r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(sim.Input{Graph: g, M: m, Order: order, Eta: eta, Pipes: pipes}, sim.NOPPadding)
	if err != nil {
		t.Fatalf("threaded sequence hazarded: %v", err)
	}
	if tr.TotalTicks != r.TotalTicks {
		t.Errorf("sim %d ticks, seqsched %d", tr.TotalTicks, r.TotalTicks)
	}
	if tr.Delays != r.TotalNOPs {
		t.Errorf("sim %d delays, seqsched %d NOPs", tr.Delays, r.TotalNOPs)
	}
}

func TestEmptySequence(t *testing.T) {
	r, err := Schedule(nil, machine.SimulationMachine(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalTicks != 0 || r.TotalNOPs != 0 || !r.Optimal {
		t.Errorf("empty sequence: %+v", r)
	}
}

func TestOptimalFlagAggregates(t *testing.T) {
	m := machine.SimulationMachine()
	blocks := []*ir.Block{
		mustBlock(t, "a:\n  1: Load #x\n  2: Store #y, @1"),
	}
	r, err := Schedule(blocks, m, core.Options{Lambda: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Optimal {
		t.Error("trivial sequence should be optimal")
	}
}

// TestRandomSequencesHazardFreeProperty: any sequence of random blocks,
// scheduled with threading, must simulate hazard-free as one program and
// agree on total time and delay accounting.
func TestRandomSequencesHazardFreeProperty(t *testing.T) {
	m := machine.SimulationMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nBlocks := 2 + rng.Intn(4)
		var blocks []*ir.Block
		for i := 0; i < nBlocks; i++ {
			sb, err := synth.Generate(rng, synth.Params{
				Statements: 1 + rng.Intn(5), Variables: 5, Constants: 4,
			})
			if err != nil {
				return false
			}
			blocks = append(blocks, sb.IR)
		}
		r, err := Schedule(blocks, m, core.Options{Lambda: 50000})
		if err != nil {
			return false
		}
		g, order, eta, pipes, err := Flatten(r)
		if err != nil {
			return false
		}
		tr, err := sim.Run(sim.Input{Graph: g, M: m, Order: order, Eta: eta, Pipes: pipes}, sim.NOPPadding)
		if err != nil {
			return false
		}
		return tr.TotalTicks == r.TotalTicks && tr.Delays == r.TotalNOPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestThreadingNeverWorseThanPessimisticDrain: an alternative safe
// composition drains the pipelines between blocks (start each block
// MaxLatency ticks after the previous one ends). Threaded scheduling
// must never take longer than that.
func TestThreadingNeverWorseThanPessimisticDrain(t *testing.T) {
	m := machine.SimulationMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var blocks []*ir.Block
		for i := 0; i < 3; i++ {
			sb, err := synth.Generate(rng, synth.Params{
				Statements: 1 + rng.Intn(4), Variables: 5, Constants: 4,
			})
			if err != nil {
				return false
			}
			blocks = append(blocks, sb.IR)
		}
		threaded, err := Schedule(blocks, m, core.Options{Lambda: 50000})
		if err != nil {
			return false
		}
		// Pessimistic: cold schedules + full drain gaps between blocks.
		drain := 0
		for bi, b := range blocks {
			g, err := dag.Build(b)
			if err != nil {
				return false
			}
			sched, err := core.Find(g, m, core.Options{Lambda: 50000})
			if err != nil {
				return false
			}
			drain += sched.Ticks
			if bi != len(blocks)-1 {
				drain += m.MaxLatency()
			}
		}
		return threaded.TotalTicks <= drain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
