// Package core implements the paper's optimal pipeline scheduling search
// (section 4.2.3): a heavily-pruned depth-first branch-and-bound over
// instruction orderings that finds the minimum-cost schedule of a basic
// block for a machine with multiple pipelines, each with its own latency
// and enqueue time.
//
// One branch-and-bound kernel (searcher, this file) serves every
// scheduler mode. It owns the search itself: Π, the candidate filters,
// the λ budget and context polling, α–β against the incumbent, the
// root-certificate early stop, seed pricing, trace events and result
// assembly. What a placement costs is a cost model's business (the
// costModel interface):
//
//   - the in-order model (inorder.go) prices prefixes with the paper's
//     NOP-insertion procedure Ω (internal/nopins) and adds the extensions
//     admissible on the in-order machine — the lower-bound engine
//     (internal/bound), the dominance memo (internal/memo) and, in the
//     register-pressure modes, the live tracker (minreg.go);
//   - the scoreboard model (scoreboard.go) prices issue ticks on an
//     out-of-order window machine and declares the bound engine and memo
//     inadmissible, bringing its own critical-path bound instead.
//
// Find runs the kernel sequentially; FindParallel (parallel.go) fans the
// kernel's first level out across workers that share the incumbent.
//
// The search maintains the paper's Π as a mutable permutation. At depth i
// the prefix Φ = Π[0:i] is committed; candidates for position i are drawn
// from the suffix Ψ by swapping. A candidate survives:
//
//	[5a] the quick approximate legality check — earliest(ξ) ≤ i and, for a
//	     genuine swap, latest(κ) ≥ the position κ would move to;
//	[5b] the real legality check — every immediate predecessor of ξ is
//	     already in Φ;
//	[5c] the equivalence filter — a swap of two instructions that both
//	     use no pipeline and have no predecessors can only produce a
//	     schedule provably equivalent to one already considered, so it
//	     is skipped.
//
// After a candidate is placed, the cost model prices the new position (Ω
// in the paper's model) and α–β pruning abandons the branch unless
// μ(Φ) < μ(π), the best complete schedule found so far. Every placement
// counts toward the curtail point λ; if λ is reached the search stops
// with the best schedule found, which may then be suboptimal (the
// paper's rule [2]).
//
// None of the pruning rules can remove all optimal schedules: [5b] removes
// only illegal orders, [5a] removes only orders that [5b] would reject at
// a deeper level, [5c] removes only cost-equal duplicates, and α–β removes
// only prefixes already at least as expensive as a known complete
// schedule (every model's prefix cost never decreases along a branch —
// η is non-negative, and a makespan only grows).
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipesched/internal/dag"
	"pipesched/internal/gross"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// ErrBudget is the stop reason when the search is curtailed by the λ
// budget (the paper's rule [2]).
var ErrBudget = errors.New("core: search budget λ exhausted")

// ErrInfeasible reports that the minreg-k mode's register-pressure
// constraint admits NO legal schedule of the block: the search (or the
// root pressure floor) proved that every topological order needs more
// than k simultaneously live values. It is returned only with a
// completed proof — a curtailed search that merely failed to find a
// feasible schedule wraps its stop reason (ErrBudget or the context
// error) instead.
var ErrInfeasible = errors.New("core: register-pressure bound admits no legal schedule")

// Options configures the search.
type Options struct {
	// Sched selects the scheduler machine model (DESIGN.md §15). The
	// zero value is the paper's model: minimize total NOPs on the
	// in-order multi-pipeline machine. machine.SchedMinRegLex minimizes
	// (NOPs, MAXLIVE) lexicographically; machine.SchedMinRegK minimizes
	// NOPs subject to MAXLIVE ≤ K (Find returns ErrInfeasible when the
	// constraint is proven unsatisfiable); machine.SchedScoreboard
	// schedules for an out-of-order issue window and minimizes stall
	// ticks (see scoreboard.go for that mode's result conventions).
	Sched machine.SchedMode

	// Lambda is the curtail point λ: the maximum number of Ω invocations
	// (search steps) before the search gives up optimality and returns
	// the best schedule found. Zero or negative means unlimited.
	Lambda int64

	// Ctx, when non-nil, is polled inside the branch-and-bound inner
	// loop (every ctxCheckEvery Ω invocations, alongside the λ budget).
	// When it is done, the search stops exactly like a curtailment and
	// returns the best incumbent found so far; Schedule.Stopped records
	// the context's error. λ bounds search *work*, Ctx bounds
	// *wall-clock time* — a deadline holds even when individual Ω
	// invocations are slow or λ is unlimited.
	Ctx context.Context

	// Assign selects pipeline binding when op→pipeline sets are not
	// singletons: nopins.AssignFixed reproduces the paper's core model,
	// nopins.AssignGreedy the greedy extension.
	Assign nopins.AssignMode

	// AssignSearch additionally branches the search over every allowed
	// pipeline for each placement (exact assignment extension). It
	// implies per-placement exploration beyond the paper's algorithm and
	// is off by default.
	AssignSearch bool

	// DisableEquivalence turns off the paper's [5c] filter (ablation).
	DisableEquivalence bool

	// DisableBoundsCheck turns off the paper's [5a] quick check
	// (ablation; [5b] still guarantees correctness).
	DisableBoundsCheck bool

	// StrongEquivalence enables the extension filter: among unscheduled
	// instructions that are provably interchangeable (same pipeline set,
	// identical predecessor and successor dependence structure), only the
	// lowest-numbered may be placed first. It supersedes the paper's [5c]
	// swap filter, which is disabled while this is on: [5c]-equivalent
	// pairs always share a class, and running both rules lets each defer
	// to a subtree the other pruned (see the dfs candidate loop). Off by
	// default for fidelity.
	StrongEquivalence bool

	// SeedPriority picks the list-scheduling discipline for the initial
	// schedule when InitialOrder is nil.
	SeedPriority listsched.Priority

	// DisableLowerBound turns off the lower-bound engine's per-state
	// pruning — the critical-path/height bound and the per-pipeline
	// enqueue-occupancy bound (internal/bound) used to strengthen α–β
	// (an optimality-preserving extension: both bounds are admissible,
	// so only branches provably unable to beat the incumbent are cut).
	// Disable for a paper-faithful search (ablation).
	DisableLowerBound bool

	// DisableMemo turns off the dominance/transposition table
	// (internal/memo): revisited search states whose recorded
	// cost-so-far dominates are no longer pruned. Disable for a
	// paper-faithful search (ablation).
	DisableMemo bool

	// MemoEntries bounds the dominance table (entries per searcher, one
	// table per worker in a parallel search). Zero selects
	// memo.DefaultCap.
	MemoEntries int

	// DisableGreedySeed stops the search from also pricing the
	// Gross-style greedy schedule and seeding with the cheaper of the two
	// candidates. The paper notes any scheduling technique may provide
	// the initial schedule (section 3.2); taking the better of both makes
	// the curtailed search never lose to the greedy baseline and
	// tightens α–β from the first node. Disable for a paper-faithful
	// list-schedule-only seed (ablation).
	DisableGreedySeed bool

	// InitialOrder, when non-nil, seeds the search with this order
	// instead of running the list scheduler. It must be a legal
	// topological order of the block's DAG.
	InitialOrder []int

	// Trace, when non-nil, records the first Trace.Limit search events
	// for inspection (debugging/teaching); it does not affect the search.
	Trace *SearchTrace

	// Entry, when non-nil, supplies cross-block initial conditions
	// (pipeline reservations and in-flight values from preceding code) —
	// the paper's footnote 1 extension, also used by the block splitter.
	Entry *nopins.EntryState
}

// Stats records how hard the search worked.
type Stats struct {
	OmegaCalls        int64 // Ω invocations during the search (Λ)
	SeedOmegaCalls    int64 // Ω invocations pricing the initial schedule
	SchedulesExamined int64 // complete schedules reached (incl. the seed)
	Improvements      int64 // times the incumbent best was replaced
	PrunedBounds      int64 // candidates removed by [5a]
	PrunedIllegal     int64 // candidates removed by [5b]
	PrunedEquivalence int64 // candidates removed by [5c]
	PrunedStrongEquiv int64 // candidates removed by the extension filter
	PrunedAlphaBeta   int64 // placements abandoned by α–β
	PrunedLowerBound  int64 // placements abandoned by the critical-path bound
	PrunedResource    int64 // placements abandoned by the enqueue-occupancy bound
	PrunedPressure    int64 // placements abandoned by the MAXLIVE ≤ k constraint
	MemoHits          int64 // placements abandoned by dominance (revisited state)
	Curtailed         bool  // search stopped early (λ, deadline or cancellation)
	Elapsed           time.Duration
}

// Schedule is the search result.
type Schedule struct {
	Order       []int // execution order, as nodes of the DAG
	Eta         []int // NOPs inserted immediately before each position
	Pipes       []int // pipeline assignment per position
	TotalNOPs   int   // μ(π): the schedule's cost
	Ticks       int   // total issue ticks (instructions + NOPs)
	InitialNOPs int   // μ of the seed schedule, before searching
	Optimal     bool  // true iff the search ran to completion (rule [1])
	// RootLB is the admissible root lower bound on TotalNOPs computed by
	// internal/bound before the search (0 when the bound engine is fully
	// disabled — then it is the trivial bound).
	RootLB int
	// Gap is the certified optimality gap: 0 when the result is proven
	// optimal, otherwise TotalNOPs − RootLB — a proof that the true
	// optimum lies within Gap NOPs of the returned schedule, attached to
	// every curtailed result.
	Gap int
	// Stopped records why the search ended early: nil when it ran to
	// completion, ErrBudget when λ was exhausted, or the context's
	// error (context.Canceled / context.DeadlineExceeded) when
	// Options.Ctx ended it. Optimal == (Stopped == nil).
	Stopped error
	Stats   Stats

	// MaxLive is the schedule's peak register pressure, filled by the
	// register-pressure modes (machine.SchedMinRegLex / SchedMinRegK);
	// 0 in the other modes. It always equals regalloc.Pressure of the
	// scheduled block — the oracle enforces that.
	MaxLive int

	// IssueTicks, filled by the scoreboard mode only, gives the absolute
	// issue tick of each position of Order (ticks start at 1; several
	// positions may share a tick up to the issue width). In that mode
	// TotalNOPs holds the schedule's stall count — the final issue tick
	// minus the width-limited minimum ⌈N/width⌉ — and Eta is all zeros
	// (an out-of-order core interlocks in hardware; no NOP padding is
	// emitted).
	IssueTicks []int
}

// add folds another search's counters into st — a parallel worker's into
// the aggregate. Curtailed and Elapsed describe the whole search and are
// set by its owner.
func (st *Stats) add(o Stats) {
	st.OmegaCalls += o.OmegaCalls
	st.SeedOmegaCalls += o.SeedOmegaCalls
	st.SchedulesExamined += o.SchedulesExamined
	st.Improvements += o.Improvements
	st.PrunedBounds += o.PrunedBounds
	st.PrunedIllegal += o.PrunedIllegal
	st.PrunedEquivalence += o.PrunedEquivalence
	st.PrunedStrongEquiv += o.PrunedStrongEquiv
	st.PrunedAlphaBeta += o.PrunedAlphaBeta
	st.PrunedLowerBound += o.PrunedLowerBound
	st.PrunedResource += o.PrunedResource
	st.PrunedPressure += o.PrunedPressure
	st.MemoHits += o.MemoHits
}

// countPrune attributes one placement prune reported by a cost model.
func (st *Stats) countPrune(a TraceAction) {
	switch a {
	case TracePressure:
		st.PrunedPressure++
	case TraceLowerBound:
		st.PrunedLowerBound++
	case TraceResource:
		st.PrunedResource++
	}
}

// costModel prices the growing prefix for the branch-and-bound kernel.
// A model's packed prefix cost never decreases along a branch, so it is
// an admissible bound on the packed cost of every completion — the
// property α–β relies on. Two models exist: inOrderModel (the paper's
// machine and the register-pressure modes) and scoreboardModel.
type costModel interface {
	// root returns the model's admissible root lower bound in its own
	// unit and in the packed cost order, and whether an incumbent at the
	// packed bound is thereby proven optimal (the root certificate, which
	// stops the search).
	root() (lb int, cost int64, certifies bool)
	// push places xi at the next position — on pipe when explicit (the
	// AssignSearch extension), otherwise on the model's own choice — and
	// returns the value the placement's trace events carry in Eta.
	push(xi, pipe int, explicit bool) int
	// pop undoes the most recent push of xi.
	pop(xi int)
	// pipeChoices lists the pipelines AssignSearch branches over.
	pipeChoices(xi int) []int
	// mu is μ(Φ): the prefix's cost in the model's unit (NOPs or stalls).
	mu() int
	// assess judges the prefix just extended by xi against the α–β
	// cutoff. It returns the prefix's packed cost and, when a rule of the
	// model proves that no completion is feasible or can cost less than
	// cutoff, that rule's prune class and the Eta its trace event
	// carries. Bound rules are tried only while cost < cutoff, so every
	// prune is attributed to exactly one class.
	assess(xi int, cutoff int64) (cost int64, prune TraceAction, eta int)
	// dominated consults the model's dominance memo: it reports a
	// revisited state that cannot improve. Otherwise the model keeps the
	// state's key for remember, which the kernel calls at the same prefix
	// once the state's subtree is fully explored.
	dominated() bool
	remember()
	// price evaluates a complete order, leaving the prefix empty, and
	// returns its packed cost (noIncumbent when the order breaks the
	// mode's hard constraint) and its μ. adopt makes the order last
	// priced the incumbent; keep makes the current complete prefix the
	// incumbent.
	price(order []int) (cost int64, mu int, err error)
	adopt()
	keep()
	// schedule renders the incumbent: Order, Eta, Pipes, TotalNOPs,
	// Ticks, MaxLive and IssueTicks.
	schedule() *Schedule
}

// searcher is the branch-and-bound kernel: the state of one search, or
// of one worker of a parallel search, over a cost model.
type searcher struct {
	g     *dag.Graph
	m     *machine.Machine
	opts  Options
	model costModel

	perm       []int  // the paper's Π: current complete ordering
	placed     []bool // node -> in the committed prefix Φ
	pipeOf     []int  // node -> first allowed pipeline (machine.NoPipeline for none)
	equivClass []int  // StrongEquivalence: canonical representative per node

	rootLB    int   // the model's root lower bound, in its unit
	rootCost  int64 // the same bound in the packed cost order
	certifies bool  // an incumbent at rootCost is provably optimal

	// bestCost is the incumbent's cost in the mode's packed order: plain
	// NOPs or stalls, or (NOPs, MAXLIVE) packed lexicographically in
	// minreg-lex (minreg.go). The incumbent itself lives in the model.
	bestCost    int64
	initialNOPs int // μ of the seed incumbent
	stats       Stats
	curtail     bool
	stopErr     error // why the search stopped early (ErrBudget or ctx error)
	start       time.Time

	shared *sharedBound // non-nil when part of a parallel search
	worker int          // parallel-search worker index, stamped on trace events

	// collectRoots makes place record each candidate in roots instead of
	// searching it: FindParallel's coordinator runs dfs(0) this way, so
	// the workers' subtrees are exactly the kernel's depth-0 survivors.
	collectRoots bool
	roots        []int
}

// noIncumbent is bestCost before any feasible schedule is known (only
// reachable in minreg-k mode, whose seed may violate the constraint).
const noIncumbent = int64(1) << 62

// sharedBound is the cross-worker state of a parallel search: the best
// complete-schedule packed cost seen anywhere (for α–β) and the global
// Ω-call budget.
type sharedBound struct {
	best   atomic.Int64 // packed cost (mode's order), noIncumbent when empty
	omega  atomic.Int64
	lambda int64
}

// bound returns the α–β cutoff in the mode's packed cost order: the
// cheapest complete schedule known to this searcher or, in a parallel
// search, to any worker.
func (s *searcher) bound() int64 {
	b := s.bestCost
	if s.shared != nil {
		if g := s.shared.best.Load(); g < b {
			b = g
		}
	}
	return b
}

// publish makes a new incumbent packed cost visible to sibling workers.
func (s *searcher) publish(cost int64) {
	if s.shared == nil {
		return
	}
	for {
		cur := s.shared.best.Load()
		if cost >= cur || s.shared.best.CompareAndSwap(cur, cost) {
			return
		}
	}
}

// ctxCheckEvery is how many Ω invocations pass between cooperative
// cancellation checks: frequent enough that a deadline stops the search
// within microseconds, rare enough that ctx.Err's mutex stays off the
// hot path. The first check fires on the very first invocation so an
// already-expired context never starts a descent.
const ctxCheckEvery = 64

// chargeOmega counts one Ω invocation against the (possibly shared)
// curtail budget and polls the context, reporting whether the search
// must stop. The stop reason is recorded in stopErr.
func (s *searcher) chargeOmega() bool {
	s.stats.OmegaCalls++
	if s.opts.Ctx != nil && s.stats.OmegaCalls%ctxCheckEvery == 1 {
		if err := s.opts.Ctx.Err(); err != nil {
			if s.stopErr == nil {
				s.stopErr = err
			}
			return true
		}
	}
	if s.shared != nil {
		n := s.shared.omega.Add(1)
		if s.shared.lambda > 0 && n >= s.shared.lambda {
			if s.stopErr == nil {
				s.stopErr = ErrBudget
			}
			return true
		}
		return false
	}
	if s.opts.Lambda > 0 && s.stats.OmegaCalls >= s.opts.Lambda {
		if s.stopErr == nil {
			s.stopErr = ErrBudget
		}
		return true
	}
	return false
}

// errIllegalSeed reports an InitialOrder that breaks dependences.
var errIllegalSeed = fmt.Errorf("core: initial order violates dependences")

// Find runs the search and returns the best schedule discovered.
func Find(g *dag.Graph, m *machine.Machine, opts Options) (*Schedule, error) {
	s, err := setup(g, m, opts)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return emptySchedule(opts.Sched), nil
	}
	if s.needsSearch() {
		s.dfs(0)
	}
	return s.finish(s)
}

// setup is the entry shared by Find and FindParallel: it validates the
// options, builds the searcher for the seed order and prices the seed
// incumbent. It returns a nil searcher and nil error for an empty block.
func setup(g *dag.Graph, m *machine.Machine, opts Options) (*searcher, error) {
	if err := opts.Sched.Validate(); err != nil {
		return nil, err
	}
	if err := checkScoreboardOptions(opts); err != nil {
		return nil, err
	}
	if g.N == 0 {
		return nil, nil
	}
	seed := opts.InitialOrder
	if seed == nil {
		seed = listsched.Schedule(g, opts.SeedPriority)
	}
	if !g.IsLegalOrder(seed) {
		return nil, errIllegalSeed
	}
	s, err := newSearcher(g, m, opts, seed)
	if err != nil {
		return nil, err
	}
	s.start = time.Now()
	if err := s.seedIncumbent(seed); err != nil {
		return nil, err
	}
	return s, nil
}

// emptySchedule is the (trivially optimal) schedule of an empty block.
func emptySchedule(sched machine.SchedMode) *Schedule {
	s := &Schedule{Optimal: true, Order: []int{}, Eta: []int{}, Pipes: []int{}}
	if sched.Kind == machine.SchedScoreboard {
		s.IssueTicks = []int{}
	}
	return s
}

// newSearcher builds a searcher with Π = perm, no incumbent, and the cost
// model the scheduler mode selects. Parallel workers are built by the
// same constructor.
func newSearcher(g *dag.Graph, m *machine.Machine, opts Options, perm []int) (*searcher, error) {
	s := &searcher{
		g:        g,
		m:        m,
		opts:     opts,
		perm:     append([]int(nil), perm...),
		placed:   make([]bool, g.N),
		pipeOf:   make([]int, g.N),
		bestCost: noIncumbent,
	}
	for u := range s.pipeOf {
		s.pipeOf[u] = machine.NoPipeline
		if set := m.PipelinesFor(g.Block.Tuples[u].Op); len(set) > 0 {
			s.pipeOf[u] = set[0]
		}
	}
	if opts.StrongEquivalence {
		s.equivClass = equivalenceClasses(g, m)
	}
	if opts.Sched.Kind == machine.SchedScoreboard {
		s.model = newScoreboardModel(g, m, opts, s.pipeOf)
	} else {
		md, err := newInOrderModel(g, m, opts)
		if err != nil {
			return nil, err
		}
		s.model = md
	}
	s.rootLB, s.rootCost, s.certifies = s.model.root()
	return s, nil
}

// seedIncumbent runs step [1]: it prices the initial schedule and makes
// it π, the incumbent — unless minreg-k rejects its pressure, in which
// case the search starts with no incumbent at all. It then optionally
// also prices the greedy baseline's order and keeps the cheaper of the
// two (the search explores the same space either way; a tighter
// incumbent only prunes more).
func (s *searcher) seedIncumbent(seed []int) error {
	cost, mu, err := s.model.price(seed)
	if err != nil {
		return err
	}
	s.stats.SeedOmegaCalls = int64(s.g.N)
	s.stats.SchedulesExamined = 1
	s.initialNOPs = mu
	if cost < s.bestCost {
		s.bestCost = cost
		s.model.adopt()
	}
	if s.opts.InitialOrder == nil && !s.opts.DisableGreedySeed && s.bestCost > 0 {
		greedy := gross.Schedule(s.g, s.m, s.opts.Assign).Order
		if cost, mu, err := s.model.price(greedy); err == nil {
			s.stats.SeedOmegaCalls += int64(s.g.N)
			s.stats.SchedulesExamined++
			if cost < s.bestCost {
				s.bestCost = cost
				s.initialNOPs = mu
				s.model.adopt()
			}
		}
	}
	return nil
}

// needsSearch reports whether steps [2]–[8] can still improve on the
// seed incumbent: packed cost zero cannot be beaten, and under a
// certifying model neither can an incumbent at the packed root lower
// bound (skipping the search then costs nothing). In minreg-lex the
// certificate needs BOTH floors: NOP-optimality alone does not prove
// pressure-optimality.
func (s *searcher) needsSearch() bool {
	return s.bestCost > 0 && !(s.certifies && s.bestCost <= s.rootCost)
}

// finish assembles the result from the incumbent held by best — s
// itself, or the parallel worker that found the cheapest schedule — and
// the search-wide state of s.
func (s *searcher) finish(best *searcher) (*Schedule, error) {
	s.stats.Elapsed = time.Since(s.start)
	s.stats.Curtailed = s.curtail
	if best.bestCost == noIncumbent {
		// minreg-k only: no feasible schedule was ever found. A completed
		// search is a proof of infeasibility; a curtailed one is not.
		if s.curtail {
			return nil, fmt.Errorf("core: no schedule with MAXLIVE ≤ %d found before the search stopped: %w",
				s.opts.Sched.K, s.stopErr)
		}
		return nil, fmt.Errorf("%w: exhausted search found no order of block %q with MAXLIVE ≤ %d",
			ErrInfeasible, s.g.Block.Label, s.opts.Sched.K)
	}
	sched := best.model.schedule()
	sched.InitialNOPs = s.initialNOPs
	sched.Optimal = !s.curtail
	sched.RootLB = s.rootLB
	sched.Gap = certifiedGap(s.curtail, sched.TotalNOPs, s.rootLB)
	sched.Stopped = s.stopErr
	sched.Stats = s.stats
	return sched, nil
}

// certifiedGap computes Schedule.Gap: zero for a completed (provably
// optimal) search, incumbent − rootLB for a curtailed one. The bound is
// admissible, so the difference is never negative; the clamp only guards
// against future bound bugs turning into negative user-facing gaps.
func certifiedGap(curtailed bool, incumbent, rootLB int) int {
	if !curtailed {
		return 0
	}
	if g := incumbent - rootLB; g > 0 {
		return g
	}
	return 0
}

// trace records a search event when tracing is attached; Mu is μ(Φ) at
// the time of the event.
func (s *searcher) trace(a TraceAction, depth, node, eta int) {
	if s.opts.Trace != nil {
		s.record(a, depth, node, eta)
	}
}

func (s *searcher) record(a TraceAction, depth, node, eta int) {
	s.opts.Trace.add(TraceEvent{Action: a, Depth: depth, Node: node, Eta: eta, Mu: s.model.mu(), Worker: s.worker})
}

// dfs fills position i of the schedule: every candidate ξ = Π[k] that
// survives the filters is placed. It returns false when the search has
// been curtailed and must unwind.
func (s *searcher) dfs(i int) bool {
	for k := i; k < s.g.N; k++ {
		xi := s.perm[k]
		if k > i {
			kappa := s.perm[i]
			if !s.opts.DisableBoundsCheck {
				// [5a] quick approximate legality: ξ needs at most i
				// ancestors to sit at position i, and κ must still have a
				// legal position after i. (The paper writes the second
				// clause as latest(κ) ≥ Π⁻¹(ξ); requiring κ to be legal at
				// ξ's old slot specifically would prune real schedules in
				// this DFS realization — κ may move again at deeper
				// levels — so we use the necessary condition instead.)
				if s.g.Earliest(xi) > i || s.g.Latest(kappa) <= i {
					s.stats.PrunedBounds++
					s.trace(TraceBounds, i, xi, 0)
					continue
				}
			}
			// [5c] is suppressed when the strong-equivalence filter is
			// active: every [5c]-equivalent pair (no pipes, no preds,
			// identical successors) necessarily shares a strong-equivalence
			// class, and the class's canonical within-class ordering
			// already deduplicates those swaps. Running both rules is
			// unsound, not merely redundant — [5c]'s witness is "κ at this
			// position was explored", but the strong filter may have
			// blocked κ here (deferring to lower-numbered-twin-first
			// orders), so each rule defers to a subtree the other pruned
			// and the whole class vanishes from this position. Caught by
			// the differential oracle as a claimed-optimal schedule one
			// NOP above the true optimum.
			if !s.opts.StrongEquivalence && !s.opts.DisableEquivalence && s.equivalentSwap(kappa, xi) {
				s.stats.PrunedEquivalence++
				s.trace(TraceEquiv, i, xi, 0)
				continue
			}
		}
		if !s.ready(xi) { // [5b]
			s.stats.PrunedIllegal++
			s.trace(TraceIllegal, i, xi, 0)
			continue
		}
		if s.opts.StrongEquivalence && s.strongEquivBlocked(xi) {
			s.stats.PrunedStrongEquiv++
			s.trace(TraceStrong, i, xi, 0)
			continue
		}

		s.perm[i], s.perm[k] = s.perm[k], s.perm[i]
		ok := s.place(i, xi)
		s.perm[i], s.perm[k] = s.perm[k], s.perm[i]
		if !ok {
			return false
		}
	}
	return true
}

// ready is [5b]: every immediate predecessor of u is already in Φ.
func (s *searcher) ready(u int) bool {
	for _, d := range s.g.Preds[u] {
		if !s.placed[d.Node] {
			return false
		}
	}
	return true
}

// place prices ξ at position i (over one or all allowed pipelines,
// depending on AssignSearch), applies α–β, and recurses. It returns false
// on curtailment.
func (s *searcher) place(i, xi int) bool {
	if s.collectRoots {
		s.roots = append(s.roots, xi)
		return true
	}
	if s.opts.AssignSearch {
		for _, pipe := range s.model.pipeChoices(xi) {
			if !s.placeOnPipe(i, xi, pipe, true) {
				return false
			}
		}
		return true
	}
	return s.placeOnPipe(i, xi, 0, false)
}

func (s *searcher) placeOnPipe(i, xi, pipe int, explicit bool) bool {
	// Step [4]: the curtail point counts Ω invocations.
	if s.chargeOmega() {
		s.curtail = true
		s.trace(TraceCurtail, i, xi, 0)
	}
	eta := s.model.push(xi, pipe, explicit)
	s.placed[xi] = true
	ok := s.judge(i, xi, eta)
	s.placed[xi] = false
	s.model.pop(xi)
	return ok
}

// judge decides the fate of the prefix just extended by ξ (whose
// placement priced eta): a model rule or α–β prunes it, it becomes the
// new incumbent, or the search descends. It returns false on
// curtailment or once the root certificate proves the incumbent optimal.
func (s *searcher) judge(i, xi, eta int) bool {
	s.trace(TracePlace, i, xi, eta)
	cutoff := s.bound()
	cost, prune, pruneEta := s.model.assess(xi, cutoff)
	switch {
	case prune != "":
		s.stats.countPrune(prune)
		s.trace(prune, i, xi, pruneEta)
	case cost >= cutoff:
		// Step [6]: α–β — descend only while strictly cheaper than the
		// best complete schedule (the packed prefix cost never decreases
		// along a branch).
		s.stats.PrunedAlphaBeta++
		s.trace(TraceAlphaBeta, i, xi, eta)
	case i+1 == s.g.N:
		// Step [3]: complete and strictly better.
		s.stats.SchedulesExamined++
		s.stats.Improvements++
		s.bestCost = cost
		s.model.keep()
		s.publish(cost)
		s.trace(TraceImprove, i, xi, eta)
		if s.certifies && cost <= s.rootCost {
			// The incumbent meets the packed root lower bound: provably
			// optimal, nothing left to search. Unwind without marking a
			// curtailment.
			return false
		}
	default:
		if s.curtail {
			return false
		}
		// Dominance: if this exact residual scheduling problem was
		// already fully explored at a component-wise equal-or-lower
		// (cost-so-far, peak-so-far), this visit cannot improve on what
		// that one saw (or pruned against a then-no-tighter incumbent).
		if s.model.dominated() {
			s.stats.MemoHits++
			s.trace(TraceMemo, i, xi, 0)
			break
		}
		if !s.dfs(i + 1) {
			return false
		}
		// Record only FULLY explored subtrees (a curtailed or stopped
		// subtree returned false above): dominance from a partially
		// searched state could prune the only optimum.
		s.model.remember()
	}
	return !s.curtail
}

// equivalentSwap implements the paper's [5c]: the swap is skipped when
// σ(ξ) = ∅ ∧ ρ(ξ) = ∅ ∧ σ(κ) = ∅ ∧ ρ(κ) = ∅ — both instructions use no
// pipeline and depend on nothing, so exchanging them cannot change any
// NOP count. The rule holds under the scoreboard model too: the exchange
// changes no window threshold, no width contention and no dependence
// tick, so the swapped completion costs exactly the same.
//
// (The bare paper condition is not sound in this DFS realization: the
// cost-equivalence witness is "the same completion with κ and ξ
// exchanged", and when the two instructions feed *different* consumers
// that witness can violate a flow edge — a consumer of ξ may sit between
// the two positions — so it was never explored and the skipped subtree
// can hold the only optimum. Requiring identical immediate-successor
// structure restores the bijection: the exchanged completion satisfies
// exactly the same ordering constraints, and since neither instruction
// occupies a pipeline the exchange perturbs no issue tick. Differential
// soaking against the exhaustive reference caught the unstrengthened
// rule claiming optimality one to two NOPs above the true optimum.)
func (s *searcher) equivalentSwap(kappa, xi int) bool {
	return s.pipeOf[xi] == machine.NoPipeline && len(s.g.Preds[xi]) == 0 &&
		s.pipeOf[kappa] == machine.NoPipeline && len(s.g.Preds[kappa]) == 0 &&
		sameSuccs(s.g, kappa, xi)
}

// sameSuccs reports whether u and v have identical immediate-successor
// dependence structure (same nodes, same edge kinds). Succs lists are
// kept sorted by dag.Build, so element-wise comparison suffices.
func sameSuccs(g *dag.Graph, u, v int) bool {
	su, sv := g.Succs[u], g.Succs[v]
	if len(su) != len(sv) {
		return false
	}
	for i := range su {
		if su[i] != sv[i] {
			return false
		}
	}
	return true
}

// strongEquivBlocked reports whether an unscheduled interchangeable twin
// with a smaller node number exists; if so, placing xi now would duplicate
// a schedule reachable by placing the twin first.
func (s *searcher) strongEquivBlocked(xi int) bool {
	rep := s.equivClass[xi]
	for u := rep; u < xi; u++ {
		if s.equivClass[u] == rep && !s.placed[u] {
			return true
		}
	}
	return false
}

// equivalenceClasses groups nodes that are provably interchangeable in
// any schedule: identical pipeline sets and identical immediate
// predecessor and successor dependence structure (nodes and edge kinds).
// Each node maps to the smallest node number in its class.
func equivalenceClasses(g *dag.Graph, m *machine.Machine) []int {
	key := func(u int) string {
		t := g.Block.Tuples[u]
		k := fmt.Sprintf("p%v|", m.PipelinesFor(t.Op))
		for _, d := range g.Preds[u] {
			k += fmt.Sprintf("P%d.%d|", d.Node, d.Kind)
		}
		for _, d := range g.Succs[u] {
			k += fmt.Sprintf("S%d.%d|", d.Node, d.Kind)
		}
		return k
	}
	rep := map[string]int{}
	class := make([]int, g.N)
	for u := 0; u < g.N; u++ {
		k := key(u)
		if r, ok := rep[k]; ok {
			class[u] = r
		} else {
			rep[k] = u
			class[u] = u
		}
	}
	return class
}

// TraceAction labels one search event.
type TraceAction string

// Search event kinds recorded by SearchTrace.
const (
	TracePlace      TraceAction = "place"             // node priced at a position
	TraceImprove    TraceAction = "improve"           // new incumbent best schedule
	TraceBounds     TraceAction = "prune-bounds"      // [5a] rejected a candidate
	TraceIllegal    TraceAction = "prune-illegal"     // [5b] rejected a candidate
	TraceEquiv      TraceAction = "prune-equivalence" // [5c] rejected a swap
	TraceStrong     TraceAction = "prune-strong"      // extension filter rejected
	TraceAlphaBeta  TraceAction = "prune-alphabeta"   // cost cutoff after placement
	TraceLowerBound TraceAction = "prune-lowerbound"  // critical-path cutoff
	TraceResource   TraceAction = "prune-resource"    // enqueue-occupancy cutoff
	TracePressure   TraceAction = "prune-pressure"    // MAXLIVE ≤ k cutoff
	TraceMemo       TraceAction = "prune-memo"        // dominance table hit
	TraceCurtail    TraceAction = "curtail"           // λ reached
)

// TraceEvent is one recorded search step.
type TraceEvent struct {
	Action TraceAction
	Depth  int // schedule position being filled
	Node   int // candidate node (DAG numbering)
	Eta    int // NOPs priced for the placement (TracePlace/TraceImprove)
	Mu     int // μ(Φ) after the event, where meaningful
	Worker int // parallel-search worker that recorded the event (0 for sequential)
}

// String renders the event on one line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("w=%-2d d=%-3d n=%-3d %-18s eta=%d mu=%d", e.Worker, e.Depth, e.Node, e.Action, e.Eta, e.Mu)
}

// SearchTrace records the first Limit events of a search when attached
// to Options.Trace. It exists for debugging and teaching: the recorded
// prefix shows exactly how the pruning rules interact on a block.
//
// A SearchTrace is safe to share between the workers of a parallel
// search: once the limit is reached, a lock-free full check keeps the
// hot path cheap; until then recording takes a mutex, so worker events
// interleave but never race. Read Events only after the search returns
// (or via Snapshot, which locks).
type SearchTrace struct {
	Limit  int // maximum events kept (0 = 1000)
	Events []TraceEvent

	mu   sync.Mutex
	full atomic.Bool
}

func (t *SearchTrace) limit() int {
	if t.Limit <= 0 {
		return 1000
	}
	return t.Limit
}

func (t *SearchTrace) add(e TraceEvent) {
	if t.full.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.Events) >= t.limit() {
		t.full.Store(true)
		return
	}
	t.Events = append(t.Events, e)
	if len(t.Events) >= t.limit() {
		t.full.Store(true)
	}
}

// Snapshot returns a copy of the recorded events, safe to call while a
// search is still running.
func (t *SearchTrace) Snapshot() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.Events...)
}

// String renders the recorded prefix, one event per line.
func (t *SearchTrace) String() string {
	var sb strings.Builder
	for _, e := range t.Snapshot() {
		sb.WriteString(e.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// Count returns how many recorded events have the given action.
func (t *SearchTrace) Count(a TraceAction) int {
	n := 0
	for _, e := range t.Snapshot() {
		if e.Action == a {
			n++
		}
	}
	return n
}
