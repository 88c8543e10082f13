// Package seqsched schedules a straight-line *sequence* of basic blocks,
// implementing the paper's footnote 1: "Interactions between adjacent
// blocks can be managed without major modification of the basic block
// schedules, essentially by modifying the initial conditions in the
// analysis for each block."
//
// Each block is scheduled independently by the optimal search, but the
// NOP-insertion analysis of block k starts from the pipeline state block
// k-1 left behind: the issue tick of its last instruction and the last
// enqueue tick of every pipeline. Without that threading, naively
// concatenating independently-scheduled blocks can violate enqueue
// (conflict) constraints right at the boundary — the simulator catches
// exactly that, and the tests demonstrate it.
//
// Cross-block value flow happens through memory in this IR (tuple
// references never escape a block) and stores carry no pipeline latency,
// so pipeline reservations are the only state that must cross the
// boundary.
package seqsched

import (
	"fmt"

	"pipesched/internal/bound"
	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// BlockSchedule is the outcome for one block of the sequence.
type BlockSchedule struct {
	Graph     *dag.Graph
	Sched     *core.Schedule
	StartTick int // absolute tick before the block's first issue
	EndTick   int // absolute tick of the block's last issue
}

// Result is a scheduled block sequence.
type Result struct {
	Blocks     []BlockSchedule
	TotalNOPs  int
	TotalTicks int  // issue tick of the final instruction
	Optimal    bool // every block's search completed
	// Stopped is the first block's early-stop reason (core.ErrBudget or
	// a context error), or nil when every search ran to completion.
	Stopped error
	// ExitPipeLast is the last enqueue tick of every pipeline after the
	// final block — with TotalTicks it forms the entry state a following
	// sequence would continue from (see ExitState).
	ExitPipeLast map[int]int
}

// ExitState returns the pipeline state the sequence leaves behind, in
// the form a subsequent ScheduleFrom call accepts. The ReadyTick field
// is left nil: tuple references never escape a block in this IR, so
// only the clock and pipeline reservations cross the boundary.
func (r *Result) ExitState() *nopins.EntryState {
	return Advance(&nopins.EntryState{StartTick: r.TotalTicks, PipeLast: r.ExitPipeLast}, nil, nil, nil)
}

// Advance returns the pipeline state a unit leaves behind when it starts
// from s (nil for a cold start) and issues one instruction per position,
// each after eta[k] NOPs on pipes[k]: the clock moves to the last issue
// tick and every used pipeline's last enqueue to the tick it last issued.
// s is not modified; the result never shares its PipeLast map. When
// issue is non-nil, issue[k] receives position k's absolute issue tick.
// This is the one place pipeline state crosses a block or window
// boundary.
func Advance(s *nopins.EntryState, eta, pipes, issue []int) *nopins.EntryState {
	next := &nopins.EntryState{PipeLast: map[int]int{}}
	if s != nil {
		next.StartTick = s.StartTick
		for p, t := range s.PipeLast {
			next.PipeLast[p] = t
		}
	}
	for k, e := range eta {
		next.StartTick += e + 1
		if issue != nil {
			issue[k] = next.StartTick
		}
		if p := pipes[k]; p != machine.NoPipeline {
			next.PipeLast[p] = next.StartTick
		}
	}
	return next
}

// blockScheduler produces the schedule of block i, given its DAG and the
// entry state the preceding blocks left behind.
type blockScheduler func(i int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error)

// Schedule schedules each block in order on m, threading pipeline state
// across the boundaries. opts applies to every block's search (its Entry
// and InitialOrder fields are overridden per block).
func Schedule(blocks []*ir.Block, m *machine.Machine, opts core.Options) (*Result, error) {
	return ScheduleFrom(blocks, m, opts, nil)
}

// ScheduleFrom is Schedule starting from an explicit entry state — the
// clock and pipeline reservations a preceding sequence left behind (see
// Result.ExitState). A nil entry means a cold start at tick zero.
// Grouping is associative under this threading: scheduling [A,B] and
// continuing with [C] from the exit state yields the same per-block
// schedules and total cost as [A] continued with [B,C].
func ScheduleFrom(blocks []*ir.Block, m *machine.Machine, opts core.Options, entry *nopins.EntryState) (*Result, error) {
	return scheduleWith(blocks, entry, func(_ int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error) {
		o := opts
		o.InitialOrder = nil
		o.Entry = entry
		return core.Find(g, m, o)
	})
}

// ScheduleSeed schedules each block with its list-schedule seed alone —
// no branch-and-bound — while still threading pipeline state across the
// boundaries. It is the heuristic fallback rung of the degradation
// ladder: legal and hazard-free by the same entry-state analysis as
// Schedule, just without optimality. Every block reports Optimal=false,
// and so does the result unless the sequence is empty.
func ScheduleSeed(blocks []*ir.Block, m *machine.Machine, opts core.Options) (*Result, error) {
	return scheduleWith(blocks, nil, func(_ int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error) {
		return Seed(g, m, opts, entry)
	})
}

// ScheduleOrders threads fixed per-block orders across the boundaries:
// block i keeps orders[i], priced under the entry state the blocks
// before it left behind. Blocks report Optimal=false, as in ScheduleSeed.
func ScheduleOrders(blocks []*ir.Block, m *machine.Machine, assign nopins.AssignMode, orders [][]int) (*Result, error) {
	return scheduleWith(blocks, nil, func(i int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error) {
		return price(g, m, assign, entry, orders[i])
	})
}

// price evaluates a fixed order of g under entry (nil for a cold start)
// with the NOP-insertion analysis, without searching. The result's
// InitialNOPs equals its TotalNOPs.
func price(g *dag.Graph, m *machine.Machine, assign nopins.AssignMode, entry *nopins.EntryState, order []int) (*core.Schedule, error) {
	eval := nopins.NewEvaluator(g, m, assign)
	eval.SetEntryState(entry)
	r, err := eval.EvaluateOrder(order)
	if err != nil {
		return nil, err
	}
	return &core.Schedule{
		Order: r.Order, Eta: r.Eta, Pipes: r.Pipes,
		TotalNOPs: r.TotalNOPs, Ticks: r.Ticks, InitialNOPs: r.TotalNOPs,
	}, nil
}

// Seed prices g's list schedule (opts.SeedPriority, opts.Assign) under
// entry, nil for a cold start. Even this heuristic carries a
// certificate: RootLB is the root lower bound under the same entry
// state, and Gap proves the seed is within that many NOPs of the
// block's optimum.
func Seed(g *dag.Graph, m *machine.Machine, opts core.Options, entry *nopins.EntryState) (*core.Schedule, error) {
	s, err := price(g, m, opts.Assign, entry, listsched.Schedule(g, opts.SeedPriority))
	if err != nil {
		return nil, err
	}
	cfg := bound.Config{FixedAssign: opts.Assign == nopins.AssignFixed}
	if entry != nil {
		cfg.StartTick, cfg.PipeLast, cfg.ReadyTick = entry.StartTick, entry.PipeLast, entry.ReadyTick
	}
	s.RootLB = bound.New(g, m, cfg).Root()
	s.Gap = max(0, s.TotalNOPs-s.RootLB)
	return s, nil
}

func scheduleWith(blocks []*ir.Block, entry *nopins.EntryState, schedule blockScheduler) (*Result, error) {
	res := &Result{Optimal: true}
	state := Advance(entry, nil, nil, nil)
	for bi, b := range blocks {
		g, err := dag.Build(b)
		if err != nil {
			return nil, fmt.Errorf("seqsched: block %d: %w", bi, err)
		}
		sched, err := schedule(bi, g, state)
		if err != nil {
			return nil, fmt.Errorf("seqsched: block %d: %w", bi, err)
		}
		next := Advance(state, sched.Eta, sched.Pipes, nil)
		if g.N > 0 && next.StartTick != sched.Ticks {
			return nil, fmt.Errorf("seqsched: block %d tick mismatch: %d vs %d", bi, next.StartTick, sched.Ticks)
		}
		res.Blocks = append(res.Blocks, BlockSchedule{
			Graph: g, Sched: sched, StartTick: state.StartTick, EndTick: next.StartTick,
		})
		state = next
		res.TotalNOPs += sched.TotalNOPs
		res.Optimal = res.Optimal && sched.Optimal
		if res.Stopped == nil {
			res.Stopped = sched.Stopped
		}
	}
	res.TotalTicks = state.StartTick
	res.ExitPipeLast = state.PipeLast
	return res, nil
}

// Splice concatenates the per-block schedules into one order, eta and
// pipes over the concatenation of the blocks, numbered as ir.Concat
// numbers it: block k's nodes follow those of every block before it.
func Splice(r *Result) (order, eta, pipes []int) {
	offset := 0
	for _, bs := range r.Blocks {
		for _, u := range bs.Sched.Order {
			order = append(order, offset+u)
		}
		eta = append(eta, bs.Sched.Eta...)
		pipes = append(pipes, bs.Sched.Pipes...)
		offset += bs.Graph.N
	}
	return order, eta, pipes
}

// Flatten concatenates the per-block schedules into one combined graph
// plus global order/eta/pipes arrays, suitable for simulation or code
// emission of the whole sequence. It returns the combined dependence
// graph (built over ir.Concat of the blocks) and the arrays.
func Flatten(r *Result) (*dag.Graph, []int, []int, []int, error) {
	var blocks []*ir.Block
	for _, bs := range r.Blocks {
		blocks = append(blocks, bs.Graph.Block)
	}
	combined, err := ir.Concat("sequence", blocks...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g, err := dag.Build(combined)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	order, eta, pipes := Splice(r)
	return g, order, eta, pipes, nil
}
