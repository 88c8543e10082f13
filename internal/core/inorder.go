package core

import (
	"cmp"
	"fmt"
	"slices"

	"pipesched/internal/bound"
	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/memo"
	"pipesched/internal/nopins"
)

// inOrderModel is the cost model of the paper's in-order machine, where
// the schedule is padded with NOPs (machine.SchedPaper and the
// register-pressure modes). It prices prefixes with the NOP-insertion
// procedure Ω (nopins.Evaluator) and carries the extensions that are
// admissible on that machine: the lower-bound engine, the dominance memo
// and, in the register-pressure modes, the live tracker whose MAXLIVE
// joins the packed cost (minreg.go).
type inOrderModel struct {
	g    *dag.Graph
	m    *machine.Machine
	opts Options
	eval *nopins.Evaluator

	lex       bool         // minreg-lex: lexicographic (NOPs, MAXLIVE)
	kBound    int          // minreg-k: MAXLIVE bound (0 = unconstrained)
	lt        *liveTracker // non-nil in the register-pressure modes
	peakFloor int          // admissible root lower bound on MAXLIVE

	bnd *bound.Engine // lower-bound engine (nil when fully disabled)

	// The dominance memo (DESIGN.md §11); sched is nil when it is
	// disabled. The table is built by the first lookup, so a block
	// settled by the root certificate never allocates one.
	table     *memo.Table
	canon     memo.Canon // reusable key builder for table lookups
	sched     memo.Set   // the prefix's nodes, kept by push and pop
	keys      [][]byte   // prefix length -> key of a missed lookup, for remember
	pipeRes   []int      // scratch for per-pipeline residuals
	maxLat    int        // largest pipeline latency: bounds the in-flight scan
	readyDesc []int      // Entry.ReadyTick nodes by descending ready tick

	priced, best         nopins.Result // last order priced; the incumbent
	pricedPeak, bestPeak int           // their MAXLIVE (pressure modes)
}

func newInOrderModel(g *dag.Graph, m *machine.Machine, opts Options) (*inOrderModel, error) {
	md := &inOrderModel{
		g:    g,
		m:    m,
		opts: opts,
		eval: nopins.NewEvaluator(g, m, opts.Assign),
		lex:  opts.Sched.Kind == machine.SchedMinRegLex,
	}
	if opts.Sched.Kind == machine.SchedMinRegK {
		md.kBound = opts.Sched.K
	}
	if opts.Sched.NeedsPressure() {
		md.lt = newLiveTracker(g)
		md.peakFloor = bound.PressureFloor(g)
		if md.kBound > 0 && md.peakFloor > md.kBound {
			// The static pressure floor already exceeds k: every legal
			// order is infeasible, no search needed.
			return nil, fmt.Errorf("%w: every legal order of block %q needs MAXLIVE ≥ %d, bound is %d",
				ErrInfeasible, g.Block.Label, md.peakFloor, md.kBound)
		}
	}
	if opts.Entry != nil {
		md.eval.SetEntryState(opts.Entry)
	}
	// The engine is needed by BOTH the bound and the memo (the table's
	// canonical keys read its per-pipeline enqueue state), so it is built
	// unless both are disabled — the pure paper-faithful configuration.
	if !opts.DisableLowerBound || !opts.DisableMemo {
		md.bnd = bound.New(g, m, boundConfig(opts))
		if !opts.DisableMemo {
			md.initMemo()
		}
	}
	return md, nil
}

// boundConfig translates search options into the bound engine's view of
// the assignment semantics and entry state.
func boundConfig(opts Options) bound.Config {
	cfg := bound.Config{FixedAssign: opts.Assign == nopins.AssignFixed}
	if opts.Entry != nil {
		cfg.StartTick = opts.Entry.StartTick
		cfg.PipeLast = opts.Entry.PipeLast
		cfg.ReadyTick = opts.Entry.ReadyTick
	}
	return cfg
}

// root returns the bound engine's root bound (0, the trivial bound, when
// the engine is disabled) packed with the pressure floor. Only the
// engine's bound certifies: with the engine off, the search runs until
// exhausted or curtailed, charging Ω for every placement as the paper
// does.
func (md *inOrderModel) root() (int, int64, bool) {
	lb := 0
	if md.bnd != nil {
		lb = md.bnd.Root()
	}
	return lb, md.packCost(lb, md.peakFloor), md.bnd != nil
}

func (md *inOrderModel) push(xi, pipe int, explicit bool) int {
	var eta int
	if explicit {
		eta = md.eval.PushWithPipe(xi, pipe)
	} else {
		eta = md.eval.Push(xi)
	}
	if md.lt != nil {
		md.lt.push(xi)
	}
	if md.sched != nil {
		md.sched.Add(xi)
	}
	if md.bnd != nil {
		pos := md.eval.Len() - 1
		md.bnd.Push(xi, md.eval.PipeAt(pos), md.eval.IssueAt(pos))
	}
	return eta
}

func (md *inOrderModel) pop(xi int) {
	if md.bnd != nil {
		md.bnd.Pop(xi)
	}
	if md.lt != nil {
		md.lt.pop(xi)
	}
	if md.sched != nil {
		md.sched.Remove(xi)
	}
	md.eval.Pop()
}

func (md *inOrderModel) pipeChoices(xi int) []int { return md.eval.PipeChoices(xi) }

func (md *inOrderModel) mu() int { return md.eval.TotalNOPs() }

func (md *inOrderModel) assess(xi int, cutoff int64) (int64, TraceAction, int) {
	peak := md.livePeak()
	// minreg-k feasibility: the running MAXLIVE never decreases along a
	// branch, so a prefix already over the bound has no feasible
	// completion — an exact prune, not a heuristic.
	if md.overK(peak) {
		return 0, TracePressure, 0
	}
	// The prefix's packed cost: both components (NOPs and, in
	// minreg-lex, MAXLIVE) are non-decreasing along a branch.
	cost := md.packCost(md.eval.TotalNOPs(), peak)
	if md.bnd == nil || md.opts.DisableLowerBound || cost >= cutoff {
		return cost, "", 0
	}
	// Lower-bound engine: from the just-issued tick, the schedule cannot
	// finish before the longest scheduled dependent chain has drained
	// (critical-path bound) nor before every pipeline has accepted its
	// remaining forced instructions (resource bound). Final NOPs = final
	// issue tick − instructions − entry offset, so a bound on the final
	// tick bounds the final cost; if even an admissible bound cannot beat
	// the incumbent, the branch is hopeless. (In minreg-lex each NOP
	// bound is packed with the current peak — admissible because packing
	// is monotone in both components.)
	cp, res := md.bnd.Lower(md.eval.IssueAt(md.eval.Len() - 1))
	if md.packCost(cp, peak) >= cutoff {
		return cost, TraceLowerBound, 0
	}
	if md.packCost(res, peak) >= cutoff {
		return cost, TraceResource, 0
	}
	return cost, "", 0
}

func (md *inOrderModel) dominated() bool {
	if md.sched == nil {
		return false
	}
	if md.table == nil {
		md.table = memo.NewTable(md.opts.MemoEntries)
		md.keys = make([][]byte, md.g.N+1)
	}
	key := md.memoKey()
	if md.table.Dominated(key, md.eval.TotalNOPs(), md.livePeak()) {
		return true
	}
	// The canon's buffer is rebuilt by every lookup below this node, so
	// the key outlives the descent in this prefix length's own buffer.
	d := md.eval.Len()
	md.keys[d] = append(md.keys[d][:0], key...)
	return false
}

func (md *inOrderModel) remember() {
	if md.table != nil {
		md.table.Store(md.keys[md.eval.Len()], md.eval.TotalNOPs(), md.livePeak())
	}
}

func (md *inOrderModel) price(order []int) (int64, int, error) {
	res, err := md.eval.EvaluateOrder(order)
	md.eval.Reset()
	if err != nil {
		return 0, 0, err
	}
	peak := 0
	if md.lt != nil {
		peak = md.lt.orderPeak(order)
	}
	md.priced, md.pricedPeak = res, peak
	if md.overK(peak) {
		return noIncumbent, res.TotalNOPs, nil
	}
	return md.packCost(res.TotalNOPs, peak), res.TotalNOPs, nil
}

func (md *inOrderModel) adopt() { md.best, md.bestPeak = md.priced, md.pricedPeak }

func (md *inOrderModel) keep() { md.best, md.bestPeak = md.eval.Snapshot(), md.livePeak() }

func (md *inOrderModel) schedule() *Schedule {
	return &Schedule{
		Order:     md.best.Order,
		Eta:       md.best.Eta,
		Pipes:     md.best.Pipes,
		TotalNOPs: md.best.TotalNOPs,
		Ticks:     md.best.Ticks,
		MaxLive:   md.bestPeak,
	}
}

// initMemo prepares the state the memo key is built from. The table and
// the per-prefix key buffers wait for the first lookup.
func (md *inOrderModel) initMemo() {
	md.sched = memo.NewSet(md.g.N)
	md.maxLat = md.m.MaxLatency()
	if e := md.opts.Entry; e != nil && e.ReadyTick != nil {
		md.readyDesc = make([]int, md.g.N)
		for v := range md.readyDesc {
			md.readyDesc[v] = v
		}
		slices.SortFunc(md.readyDesc, func(a, b int) int {
			return cmp.Compare(e.ReadyTick[b], e.ReadyTick[a])
		})
	}
}

// memoKey builds the canonical dominance key of the CURRENT evaluator
// state: scheduled set, per-pipeline enqueue residuals, in-flight flow
// producers (issue + latency still binding a future consumer), and
// unsatisfied external ready times — everything Ω consults when pricing
// any completion, encoded relative to the last issue tick so revisits at
// different absolute times collide (internal/memo has the full argument).
// The bytes are valid until the next call.
//
// The cost is proportional to the live state, not to the prefix: issue
// ticks strictly increase with position, so the backward in-flight scan
// stops at the first producer that even the longest latency could not
// keep in flight past last+1 — every earlier producer has a zero
// residual and would be dropped from the key anyway. The ready section
// stops likewise at the first ready tick already reached.
func (md *inOrderModel) memoKey() []byte {
	c := &md.canon
	c.Begin(md.g.N)
	c.Scheduled(md.sched)
	n := md.eval.Len()
	last := md.eval.IssueAt(n - 1)
	md.pipeRes = md.bnd.PipeResiduals(last, md.pipeRes)
	c.Pipes(md.pipeRes)
	for pos := n - 1; pos >= 0; pos-- {
		issue := md.eval.IssueAt(pos)
		if issue+md.maxLat <= last+1 {
			break
		}
		if r := memo.Residual(issue+md.eval.LatAt(pos), last); r > 0 {
			if u := md.eval.NodeAt(pos); md.feedsPending(u) {
				c.Pair(u, r)
			}
		}
	}
	c.SealPairs()
	for _, v := range md.readyDesc {
		r := memo.Residual(md.opts.Entry.ReadyTick[v], last)
		if r == 0 {
			break
		}
		if !md.eval.Scheduled(v) {
			c.Pair(v, r)
		}
	}
	c.SealPairs()
	return c.Bytes()
}

// feedsPending reports whether u has a flow consumer not yet scheduled.
func (md *inOrderModel) feedsPending(u int) bool {
	for _, d := range md.g.Succs[u] {
		if d.Kind.CarriesLatency() && !md.eval.Scheduled(d.Node) {
			return true
		}
	}
	return false
}
