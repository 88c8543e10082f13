// Package splitter implements the strategy the paper sketches in
// section 5.3 for very large basic blocks: "it might be useful to split
// the basic blocks into smaller sections (containing, say, twenty
// instructions or less each) and find solutions which are locally
// optimal. A good heuristic for the split might be to simply partition
// the list schedule."
//
// Schedule partitions the block's list schedule into windows of at most
// Window instructions and runs the optimal branch-and-bound search on
// each window in order, threading the pipeline state across window
// boundaries through the nopins.EntryState mechanism (the paper's
// footnote 1 initial-conditions idea): values still in flight from
// earlier windows impose ready ticks, and the last enqueue per pipeline
// imposes cross-boundary conflict spacing. The result is locally optimal
// per window, globally heuristic — but its search cost is linear in the
// number of windows instead of exponential in the block size.
package splitter

import (
	"fmt"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/seqsched"
)

// Config tunes the split scheduler.
type Config struct {
	// Window is the maximum instructions per window (default 20, the
	// paper's suggestion).
	Window int
	// Search configures every window's search; Entry and InitialOrder
	// are set per window. A zero Lambda selects 100000 placements per
	// window. SeedPriority also picks the list schedule that is
	// partitioned. Once Ctx is done, every remaining window takes its
	// list-schedule seed, so the result stays legal.
	Search core.Options
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.Search.Lambda == 0 {
		c.Search.Lambda = 100000
	}
}

// Result is a complete schedule for the whole block assembled from
// locally-optimal windows. Its Schedule is over the parent graph:
// InitialNOPs prices the partitioned list schedule cold, RootLB and Gap
// certify the result against the whole block's root lower bound,
// Optimal and Stopped report whether every window's search completed
// (Stopped holds the first early-stop reason), and Stats counts the
// placements of every window and whether any stopped early.
type Result struct {
	core.Schedule
	Windows        int // number of windows scheduled
	OptimalWindows int // windows whose search completed
}

// Schedule partitions and schedules g on m.
func Schedule(g *dag.Graph, m *machine.Machine, cfg Config) (*Result, error) {
	cfg.defaults()
	if g.N == 0 {
		return &Result{Schedule: core.Schedule{Order: []int{}, Eta: []int{}, Pipes: []int{}, Optimal: true}}, nil
	}

	seed, err := seqsched.Seed(g, m, cfg.Search, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Schedule: core.Schedule{InitialNOPs: seed.TotalNOPs, RootLB: seed.RootLB}}

	// Absolute state threaded across windows.
	issueOf := make([]int, g.N) // absolute issue tick per parent node
	pipeOf := make([]int, g.N)  // pipeline binding per parent node
	inPrev := make([]bool, g.N) // nodes scheduled in earlier windows
	state := seqsched.Advance(nil, nil, nil, nil)

	for lo := 0; lo < g.N; lo += cfg.Window {
		windowNodes := seed.Order[lo:min(lo+cfg.Window, g.N)]
		sub := dag.Induced(g, windowNodes)

		// External dependences become per-node ready ticks.
		selected := map[int]bool{}
		for _, u := range windowNodes {
			selected[u] = true
		}
		ready := make([]int, sub.N)
		for i, u := range windowNodes {
			for _, d := range g.ExternalPreds(u, selected) {
				if !inPrev[d.Node] {
					return nil, fmt.Errorf(
						"splitter: window order broke dependences (node %d before pred %d)", u, d.Node)
				}
				req := issueOf[d.Node] + 1 // order edges: strictly after
				if d.Kind.CarriesLatency() {
					req = issueOf[d.Node] + m.Latency(pipeOf[d.Node])
				}
				if req > ready[i] {
					ready[i] = req
				}
			}
		}

		opts := cfg.Search
		opts.InitialOrder = nil
		opts.Entry = &nopins.EntryState{StartTick: state.StartTick, ReadyTick: ready, PipeLast: state.PipeLast}
		// Once the context is gone, every remaining window takes the
		// documented fallback — its list-schedule seed — rather than the
		// root-certificate fast path, so the caller sees the deadline
		// (Stopped) even when all windows would certify instantly.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			opts.DisableLowerBound, opts.DisableMemo = true, true
		}
		sched, err := core.Find(sub, m, opts)
		if err != nil {
			return nil, err
		}

		// Splice the window into the global schedule and update state.
		issue := make([]int, len(sched.Order))
		next := seqsched.Advance(state, sched.Eta, sched.Pipes, issue)
		if next.StartTick != sched.Ticks {
			return nil, fmt.Errorf("splitter: internal tick mismatch: %d vs %d", next.StartTick, sched.Ticks)
		}
		state = next
		for k, subNode := range sched.Order {
			u := windowNodes[subNode]
			issueOf[u], pipeOf[u], inPrev[u] = issue[k], sched.Pipes[k], true
			res.Order = append(res.Order, u)
		}
		res.Eta = append(res.Eta, sched.Eta...)
		res.Pipes = append(res.Pipes, sched.Pipes...)
		res.TotalNOPs += sched.TotalNOPs
		res.Windows++
		if sched.Optimal {
			res.OptimalWindows++
		}
		if res.Stopped == nil {
			res.Stopped = sched.Stopped
		}
		res.Stats.OmegaCalls += sched.Stats.OmegaCalls
	}
	res.Ticks = state.StartTick
	res.Gap = max(0, res.TotalNOPs-res.RootLB)
	res.Optimal = res.Stopped == nil
	res.Stats.Curtailed = !res.Optimal
	return res, nil
}
