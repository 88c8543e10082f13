package core

import (
	"errors"
	"fmt"
	"sort"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// Scoreboard mode (machine.SchedScoreboard) replaces the paper's in-order
// NOP-padded machine with a simple out-of-order approximation and
// searches for the order minimizing stall ticks instead of NOPs.
//
// # Machine model
//
// Instructions are fetched in program (π) order into a window of W
// entries. Each tick, up to I instructions issue from the window,
// oldest-π-first; the window refills on the NEXT tick (membership is
// snapshotted at tick start). An instruction is issuable at tick t when
//
//   - every flow predecessor p issued at least max(1, latency(pipe(p)))
//     ticks earlier: t ≥ t_p + max(1, lat_p) — a result cannot be
//     bypassed in its own issue cycle;
//   - every ordering (memory / register anti/output) predecessor issued
//     strictly earlier: t ≥ t_p + 1;
//   - its pipeline's dispatch queue — a FIFO fed in π order, so
//     same-pipe instructions issue in program order — has this
//     instruction at its head and last accepted an enqueue at least
//     enqueue(pipe) ticks earlier: t ≥ lastEnq(pipe) + enq(pipe)
//     (instructions using no pipeline skip this);
//   - an issue slot remains: fewer than I instructions issue at t.
//
// The schedule's cost is its stall count: the final issue tick minus the
// width-limited minimum ⌈N/I⌉. With W = 1 and I = 1 the model
// degenerates exactly to the paper's machine — the single-entry window
// forces in-order single issue, making the stall count equal the NOP
// count — which the oracle's metamorphic suite checks.
//
// # Incremental exactness
//
// The search appends instructions in π order, giving each the smallest
// tick satisfying the four rules above. Appending a π-later instruction
// never perturbs an earlier instruction's tick: window membership of
// position j counts only positions before j; width slots go to the
// π-oldest contenders first, so a later instruction only takes leftover
// capacity; and per-pipe FIFO order means a later instruction cannot
// occupy a pipe before an earlier same-pipe one. Push/Pop is therefore
// an exact O(deg + log n) evaluation step, and the resulting ticks equal
// the forward simulation of the whole order (internal/sim's scoreboard
// simulator re-derives them independently; the oracle compares).
//
// # Search
//
// The scoreboard mode runs the same branch-and-bound kernel as every
// other mode (core.go), with scoreboardModel as its cost model. The
// kernel's [5a]/[5b]/[5c] and strong-equivalence filters apply
// unchanged, because all four are order-structural — [5c] and strong
// equivalence exchange instructions with identical dependence structure
// and pipeline sets, which leaves the tick computation of every
// completion unchanged. α–β prunes on the prefix's stall floor (the
// running makespan never decreases along a branch), and the model adds a
// latency-weighted critical-path bound (heightTicks below). The model
// declares the paper's bound engine and dominance memo inadmissible —
// their NOP arithmetic assumes in-order issue — so neither is built. Its
// root bound always certifies: an incumbent at the root bound stops the
// search even with DisableLowerBound, when that bound is 0. Trace events
// carry the issue tick in Eta and the prefix's stalls in Mu.
//
// Unsupported options (ErrScoreboardOption): Entry state — the window
// model has no cross-block reservation semantics yet — and any pipeline
// assignment mode beyond nopins.AssignFixed.

// ErrScoreboardOption reports an Options combination the scoreboard mode
// does not support.
var ErrScoreboardOption = errors.New("core: option not supported in scoreboard mode")

// checkScoreboardOptions rejects the options the scoreboard mode does not
// support; it accepts every Options of the other modes.
func checkScoreboardOptions(opts Options) error {
	if opts.Sched.Kind != machine.SchedScoreboard {
		return nil
	}
	if opts.Entry != nil {
		return fmt.Errorf("%w: entry state", ErrScoreboardOption)
	}
	if opts.Assign != nopins.AssignFixed || opts.AssignSearch {
		return fmt.Errorf("%w: pipeline assignment beyond AssignFixed", ErrScoreboardOption)
	}
	return nil
}

// scoreboardModel is the cost model of the out-of-order window machine.
type scoreboardModel struct {
	g         *dag.Graph
	disableLB bool // DisableLowerBound: no critical-path pruning, root bound 0

	window, width int
	minTicks      int   // ⌈N/width⌉: the width-limited minimum makespan
	pipeOf        []int // node -> fixed pipeline (machine.NoPipeline for none)
	pipeIdx       []int // node -> its pipeline's index in the machine table, -1 for none
	enq           []int // pipeline index -> enqueue time
	flowWait      []int // node -> max(1, latency(pipe)): a flow consumer's issue gap
	heightTicks   []int // node -> latency-weighted longest downstream chain

	tickOf []int // node -> issue tick, valid while the node is in the prefix
	order  []int // prefix node order
	ticks  []int // prefix issue ticks, by position (NOT monotone: OoO)

	cnt      []int   // tick -> instructions issued (width accounting)
	sorted   []int   // prefix ticks, ascending (window threshold)
	pipeLast [][]int // pipeline index -> stack of enqueue ticks (π order)
	maxTick  int
	savedMax []int // per-depth maxTick snapshot for pop

	pricedOrder, pricedTicks []int // last order priced
	pricedMax                int
	bestOrder, bestTicks     []int // the incumbent
	bestMax                  int
}

// newScoreboardModel builds the model; pipeOf is the kernel's node ->
// fixed pipeline table, shared read-only.
func newScoreboardModel(g *dag.Graph, m *machine.Machine, opts Options, pipeOf []int) *scoreboardModel {
	n := g.N
	md := &scoreboardModel{
		g:         g,
		disableLB: opts.DisableLowerBound,
		window:    opts.Sched.Window,
		width:     opts.Sched.Width,
		minTicks:  (n + opts.Sched.Width - 1) / opts.Sched.Width,
		pipeOf:    pipeOf,
		tickOf:    make([]int, n),
		order:     make([]int, 0, n),
		ticks:     make([]int, 0, n),
		sorted:    make([]int, 0, n),
		pipeIdx:   make([]int, n),
		flowWait:  make([]int, n),
		savedMax:  make([]int, 0, n),
	}
	// Dense pipeline indices (machine table order) and per-pipe enqueue
	// stacks carved from one backing array, sized by the nodes per pipe.
	md.enq = make([]int, len(m.Pipelines))
	perPipe := make([]int, len(m.Pipelines))
	for i, p := range m.Pipelines {
		md.enq[i] = p.Enqueue
	}
	for u, p := range pipeOf {
		md.flowWait[u] = max(1, m.Latency(p))
		md.pipeIdx[u] = -1
		for i := range m.Pipelines {
			if m.Pipelines[i].ID == p {
				md.pipeIdx[u] = i
				perPipe[i]++
				break
			}
		}
	}
	md.pipeLast = make([][]int, len(m.Pipelines))
	stacks := make([]int, n)
	for i, c := range perPipe {
		md.pipeLast[i], stacks = stacks[:0:c], stacks[c:]
	}
	// heightTicks[u]: the longest chain of issue separations forced below
	// u — flow edges carry max(1, latency(pipe(u))), ordering edges carry
	// 1. Admissible: every descendant chain issues at those separations
	// or later in every order. Nodes are numbered in program order, which
	// is topological, so a single reverse sweep suffices.
	md.heightTicks = make([]int, n)
	for u := n - 1; u >= 0; u-- {
		for _, d := range g.Succs[u] {
			w := 1
			if d.Kind.CarriesLatency() {
				w = md.flowWait[u]
			}
			if h := w + md.heightTicks[d.Node]; h > md.heightTicks[u] {
				md.heightTicks[u] = h
			}
		}
	}
	return md
}

// root is the latency-weighted critical path (+1 for the chain head's
// own tick) above the width floor, or 0 with DisableLowerBound.
func (md *scoreboardModel) root() (int, int64, bool) {
	lb := 0
	if !md.disableLB {
		cp := 0
		for _, h := range md.heightTicks {
			if h+1 > cp {
				cp = h + 1
			}
		}
		if cp > md.minTicks {
			lb = cp - md.minTicks
		}
	}
	return lb, int64(lb), true
}

// push appends node x to the prefix, assigns its issue tick per the
// machine model, and returns the tick. The pipeline is fixed by the
// node (AssignSearch is rejected in this mode).
func (md *scoreboardModel) push(x, _ int, _ bool) int {
	k := len(md.order)
	lo := 1
	for _, d := range md.g.Preds[x] {
		w := 1
		if d.Kind.CarriesLatency() {
			w = md.flowWait[d.Node]
		}
		if t := md.tickOf[d.Node] + w; t > lo {
			lo = t
		}
	}
	pi := md.pipeIdx[x]
	if pi >= 0 {
		if st := md.pipeLast[pi]; len(st) > 0 {
			if t := st[len(st)-1] + md.enq[pi]; t > lo {
				lo = t
			}
		}
	}
	if k >= md.window {
		// x enters the window only after the (k−window+1)-th smallest
		// prefix tick: at tick t the window holds the first `window`
		// un-issued instructions, so at most window−1 of x's predecessors
		// in π may still be waiting.
		if t := md.sorted[k-md.window] + 1; t > lo {
			lo = t
		}
	}
	t := lo
	for t < len(md.cnt) && md.cnt[t] >= md.width {
		t++
	}
	for len(md.cnt) <= t {
		md.cnt = append(md.cnt, 0)
	}
	md.cnt[t]++
	md.order = append(md.order, x)
	md.ticks = append(md.ticks, t)
	md.tickOf[x] = t
	if pi >= 0 {
		md.pipeLast[pi] = append(md.pipeLast[pi], t)
	}
	i := sort.SearchInts(md.sorted, t)
	md.sorted = append(md.sorted, 0)
	copy(md.sorted[i+1:], md.sorted[i:])
	md.sorted[i] = t
	md.savedMax = append(md.savedMax, md.maxTick)
	if t > md.maxTick {
		md.maxTick = t
	}
	return t
}

// pop undoes the most recent push of node x.
func (md *scoreboardModel) pop(x int) {
	k := len(md.order) - 1
	t := md.ticks[k]
	md.order = md.order[:k]
	md.ticks = md.ticks[:k]
	md.cnt[t]--
	if pi := md.pipeIdx[x]; pi >= 0 {
		md.pipeLast[pi] = md.pipeLast[pi][:len(md.pipeLast[pi])-1]
	}
	i := sort.SearchInts(md.sorted, t)
	md.sorted = append(md.sorted[:i], md.sorted[i+1:]...)
	md.maxTick = md.savedMax[k]
	md.savedMax = md.savedMax[:k]
}

func (md *scoreboardModel) pipeChoices(int) []int { return nil }

// stalls converts a makespan into a stall count. For a prefix it is the
// stall floor: the running makespan never decreases along a branch, so
// this is an admissible lower bound on any completion's stall count (and
// equals it on a complete schedule).
func (md *scoreboardModel) stalls(makespan int) int {
	if st := makespan - md.minTicks; st > 0 {
		return st
	}
	return 0
}

func (md *scoreboardModel) mu() int { return md.stalls(md.maxTick) }

func (md *scoreboardModel) assess(xi int, cutoff int64) (int64, TraceAction, int) {
	cost := int64(md.stalls(md.maxTick))
	if md.disableLB || cost >= cutoff {
		return cost, "", 0
	}
	// Critical-path bound: xi's downstream chain forces the makespan to
	// at least t + heightTicks(xi).
	t := md.ticks[len(md.ticks)-1]
	if int64(t+md.heightTicks[xi]-md.minTicks) >= cutoff {
		return cost, TraceLowerBound, t
	}
	return cost, "", 0
}

func (md *scoreboardModel) dominated() bool { return false }

func (md *scoreboardModel) remember() {}

func (md *scoreboardModel) price(order []int) (int64, int, error) {
	for _, u := range order {
		md.push(u, 0, false)
	}
	md.pricedOrder = order
	md.pricedTicks = append(md.pricedTicks[:0], md.ticks...)
	md.pricedMax = md.maxTick
	for i := len(order) - 1; i >= 0; i-- {
		md.pop(order[i])
	}
	st := md.stalls(md.pricedMax)
	return int64(st), st, nil
}

func (md *scoreboardModel) adopt() {
	md.bestOrder = append(md.bestOrder[:0], md.pricedOrder...)
	md.bestTicks = append(md.bestTicks[:0], md.pricedTicks...)
	md.bestMax = md.pricedMax
}

func (md *scoreboardModel) keep() {
	md.bestOrder = append(md.bestOrder[:0], md.order...)
	md.bestTicks = append(md.bestTicks[:0], md.ticks...)
	md.bestMax = md.maxTick
}

func (md *scoreboardModel) schedule() *Schedule {
	n := len(md.bestOrder)
	pipes := make([]int, n)
	for i, u := range md.bestOrder {
		pipes[i] = md.pipeOf[u]
	}
	return &Schedule{
		Order:      md.bestOrder,
		Eta:        make([]int, n), // no NOP padding: hardware interlocks
		Pipes:      pipes,
		TotalNOPs:  md.stalls(md.bestMax),
		Ticks:      md.bestMax,
		IssueTicks: md.bestTicks,
	}
}
