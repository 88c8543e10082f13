// Resilience layer: context-aware entry points, panic isolation at every
// stage boundary, and the graceful degradation ladder.
//
// The *Ctx entry points never trade legality for speed. When the search
// is cut short — by the curtail point λ, a context deadline, or explicit
// cancellation — or when a whole stage fails (panics, or is forced to
// fail by internal/faultinject), the compilation steps down a ladder:
//
//	Optimal   → branch-and-bound completed; the schedule is provably best
//	Incumbent → search stopped early; best complete schedule found so far
//	Heuristic → search stage failed; list-schedule seed priced by the
//	            NOP-insertion analysis
//	Baseline  → even the DAG was unavailable; program order with
//	            conservative full-drain NOP padding
//
// Every rung yields a legal, hazard-free schedule (re-verified by the
// independent simulator whenever a dependence graph exists). A degraded
// result is returned TOGETHER with a typed error (ErrCurtailed,
// ErrDeadline, ErrCanceled, or a *StageError) so callers can both use
// the schedule and observe why it is not optimal. Only the frontend is
// unrecoverable: with no tuples there is nothing to schedule, so a
// frontend fault is a hard *StageError with a nil result.
package pipesched

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"pipesched/internal/bound"
	"pipesched/internal/codegen"
	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/faultinject"
	"pipesched/internal/frontend"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/opt"
	"pipesched/internal/regalloc"
	"pipesched/internal/seqsched"
	"pipesched/internal/sim"
	"pipesched/internal/splitter"
	"pipesched/internal/telemetry"
	"pipesched/internal/tuplegen"
)

// runStage executes one pipeline stage with fault injection and panic
// isolation. An injected fault or a recovered panic comes back as a
// non-nil *StageError; an ordinary error from fn comes back as err and
// keeps its legacy hard-failure semantics.
//
// Every call is also a telemetry span boundary: the stage's wall time
// lands in the pipesched_stage_duration_seconds histogram and, when a
// sink is registered, a "span" event is emitted. When the request runs
// under a distributed trace (ctx carries a telemetry.TraceContext and a
// tracer is installed), the stage additionally becomes a child trace
// span and the metric event carries the trace ID. With telemetry and
// tracing off (the default) this is two atomic loads and nil-receiver
// calls (BenchmarkTracingDisabled).
func runStage(ctx context.Context, stage faultinject.Stage, label string, fn func() error) (fault *StageError, err error) {
	var tc telemetry.TraceContext
	var ts *telemetry.TraceSpan
	if tr := telemetry.ActiveTracer(); tr != nil {
		if tc = telemetry.TraceContextOf(ctx); tc.Valid() {
			ts = tr.StartSpanFrom(tc, "stage:"+string(stage))
			if label != "" {
				ts.SetAttr("block", label)
			}
		}
	}
	sp := telemetry.Active().StartSpan(string(stage), label).WithTrace(tc)
	defer func() {
		if r := recover(); r != nil {
			fault = &StageError{Stage: string(stage), Block: label, Panic: r, Stack: debug.Stack()}
			err = nil
		}
		switch {
		case fault != nil:
			sp.Fail(fault)
			ts.Fail(fault)
		case err != nil:
			sp.Fail(err)
			ts.Fail(err)
		}
		sp.End()
		ts.End()
	}()
	if ferr := faultinject.Fire(stage); ferr != nil {
		return &StageError{Stage: string(stage), Block: label, Err: ferr}, nil
	}
	return nil, fn()
}

// tracePoint records an instant trace event (degradation-rung fallback,
// breaker decision) under the request's trace, if any. Free when
// tracing is off.
func tracePoint(ctx context.Context, name string, attrs ...string) {
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Point(telemetry.TraceContextOf(ctx), name, attrs...)
	}
}

// beginCompile opens the per-block telemetry accounting for one public
// entry point; the returned func records the finished block. Both ends
// collapse to atomic no-ops when telemetry is off.
func beginCompile() func(*Compiled) {
	pm := telemetry.Active()
	if pm == nil {
		return func(*Compiled) {}
	}
	pm.InFlight.Add(1)
	start := time.Now()
	return func(c *Compiled) {
		pm.InFlight.Add(-1)
		if c == nil || c.Scheduled == nil {
			return
		}
		pm.RecordCompile(c.Scheduled.Label, int(c.Quality), c.Scheduled.Len(),
			c.InitialNOPs, c.TotalNOPs, len(c.Faults), time.Since(start))
	}
}

// isolate is runStage without the injection point: it only converts
// panics into *StageError. Fallback rungs run under isolate so that a
// persistent injection plan cannot re-fire and starve the ladder.
func isolate(stage faultinject.Stage, label string, fn func() error) (fault *StageError, err error) {
	defer func() {
		if r := recover(); r != nil {
			fault = &StageError{Stage: string(stage), Block: label, Panic: r, Stack: debug.Stack()}
			err = nil
		}
	}()
	return nil, fn()
}

func validateMachine(m *Machine) error {
	if m == nil {
		return fmt.Errorf("%w: nil machine", ErrInvalidMachine)
	}
	return m.Validate()
}

func validateBlock(b *Block) error {
	if b == nil {
		return fmt.Errorf("%w: nil block", ErrInvalidBlock)
	}
	return b.Validate()
}

// normLambda applies the Options.Lambda convention (0 → DefaultLambda,
// negative → unlimited) and then any curtail point forced by the fault
// injector.
func normLambda(lambda int64) int64 {
	switch {
	case lambda == 0:
		lambda = DefaultLambda
	case lambda < 0:
		lambda = 0 // core treats 0 as unlimited
	}
	if fl := faultinject.CurtailLambda(); fl > 0 {
		lambda = fl
	}
	return lambda
}

func assignMode(o Options) nopins.AssignMode {
	if o.AssignPipelines {
		return nopins.AssignGreedy
	}
	return nopins.AssignFixed
}

// searchOptions maps the public Options onto the core search options.
// When the fault injector forces a curtail point, the root-bound
// certificate and the dominance table are switched off as well: both can
// finish a tight block before any Ω budget is spent, which would let the
// block dodge the injected curtailment entirely.
func searchOptions(ctx context.Context, o Options) core.Options {
	copts := core.Options{
		Sched:             o.Sched,
		Lambda:            normLambda(o.Lambda),
		Ctx:               ctx,
		Assign:            assignMode(o),
		AssignSearch:      o.AssignPipelines,
		StrongEquivalence: o.StrongEquivalence,
		SeedPriority:      listsched.ByHeight,
		Trace:             o.Trace,
	}
	if faultinject.CurtailLambda() > 0 {
		copts.DisableLowerBound = true
		copts.DisableMemo = true
	}
	return copts
}

// CompileCtx is Compile with cooperative cancellation and the full
// degradation ladder. On curtailment, deadline expiry or cancellation it
// returns the best legal schedule found TOGETHER with ErrCurtailed,
// ErrDeadline or ErrCanceled; on a recoverable stage fault it returns a
// degraded-but-legal result together with the *StageError. Only invalid
// input and frontend failures return a nil Compiled.
func CompileCtx(ctx context.Context, src string, m *Machine, o Options) (*Compiled, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	done := beginCompile()
	var block *Block
	fault, err := runStage(ctx, faultinject.Frontend, "block", func() error {
		var e error
		block, e = tuplegen.Compile(src, "block")
		return e
	})
	if fault != nil {
		done(nil)
		return nil, fault // nothing to schedule: hard failure
	}
	if err != nil {
		done(nil)
		return nil, err
	}
	var faults []*StageError
	if o.Optimize || o.Reassociate {
		optimized := block
		fault, _ := runStage(ctx, faultinject.Opt, block.Label, func() error {
			if o.Reassociate {
				optimized = opt.OptimizeReassoc(block)
			} else {
				optimized = opt.Optimize(block)
			}
			return nil
		})
		if fault != nil {
			faults = append(faults, fault)
			optimized = block // degrade: schedule the unoptimized block
		}
		block = optimized
	}
	c, err := scheduleCtx(ctx, block, m, o, faults)
	if c != nil {
		c.Source = src
	}
	done(c)
	return c, err
}

// ScheduleCtx is Schedule with cooperative cancellation and the full
// degradation ladder; see CompileCtx for the result/error contract.
func ScheduleCtx(ctx context.Context, block *Block, m *Machine, o Options) (*Compiled, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	if err := validateBlock(block); err != nil {
		return nil, err
	}
	done := beginCompile()
	c, err := scheduleCtx(ctx, block, m, o, nil)
	done(c)
	return c, err
}

// scheduleCtx runs DAG construction and the branch-and-bound search with
// stage isolation, stepping down the ladder on faults.
func scheduleCtx(ctx context.Context, block *Block, m *Machine, o Options, faults []*StageError) (*Compiled, error) {
	label := block.Label

	var g *dag.Graph
	fault, err := runStage(ctx, faultinject.DAG, label, func() error {
		var e error
		g, e = dag.Build(block)
		return e
	})
	if fault != nil {
		return baselineCompiled(ctx, block, m, o, append(faults, fault))
	}
	if err != nil {
		return nil, err
	}

	if o.HeuristicOnly {
		// Fail-fast path: the caller has decided (e.g. via the server's
		// circuit breaker) that this block should not pay for a search.
		return heuristicCompiled(ctx, block, g, m, o, faults)
	}

	copts := searchOptions(ctx, o)
	var sched *core.Schedule
	fault, err = runStage(ctx, faultinject.Search, label, func() error {
		var e error
		if o.Workers > 1 {
			sched, e = core.FindParallel(g, m, copts, o.Workers)
		} else {
			sched, e = core.Find(g, m, copts)
		}
		return e
	})
	if fault != nil {
		return heuristicCompiled(ctx, block, g, m, o, append(faults, fault))
	}
	if err != nil {
		return nil, err
	}
	telemetry.Active().RecordSearch(label, sched.Stats)

	quality := Optimal
	if sched.Stopped != nil {
		quality = Incumbent
	}
	c, err := emit(ctx, block, g, m, o, sched.Order, sched.Eta, sched.Pipes, quality, faults, sched)
	if err != nil {
		return nil, err
	}
	c.Sched = o.Sched
	c.MaxLive = sched.MaxLive
	c.IssueTicks = sched.IssueTicks
	if o.Sched.Kind == machine.SchedScoreboard {
		// emit derives cost and ticks from the (all-zero) NOP padding;
		// the scoreboard objective lives in the search result.
		c.TotalNOPs = sched.TotalNOPs
		c.Ticks = sched.Ticks
	}
	c.InitialNOPs = sched.InitialNOPs
	c.Stats = sched.Stats
	c.RootLB = sched.RootLB
	c.Gap = sched.Gap
	telemetry.Active().RecordGap(label, c.Gap, sched.Stats.OmegaCalls)
	return c, degradationError(sched.Stopped, c.Faults)
}

// heuristicCompiled is the third ladder rung: the list-schedule seed
// priced by the NOP-insertion analysis — the same schedule the search
// would have started from. Runs under isolate so a persistent search
// injection cannot re-fire; if even the seed fails, drops to Baseline.
func heuristicCompiled(ctx context.Context, block *Block, g *dag.Graph, m *Machine, o Options, faults []*StageError) (*Compiled, error) {
	tracePoint(ctx, "degrade", "rung", "heuristic", "block", block.Label)
	var r nopins.Result
	f, err := isolate(faultinject.Search, block.Label, func() error {
		order := listsched.Schedule(g, listsched.ByHeight)
		var e error
		r, e = nopins.NewEvaluator(g, m, assignMode(o)).EvaluateOrder(order)
		return e
	})
	if f != nil || err != nil {
		if f != nil {
			faults = append(faults, f)
		}
		return baselineCompiled(ctx, block, m, o, faults)
	}
	c, err := emit(ctx, block, g, m, o, r.Order, r.Eta, r.Pipes, Heuristic, faults, nil)
	if err != nil {
		return nil, err
	}
	c.InitialNOPs = r.TotalNOPs
	// The heuristic result still carries a certificate: the root lower
	// bound proves how far the seed can be from optimal. (Computed under
	// isolate so a bound-engine panic cannot take down the rung that
	// exists to survive panics.)
	if f, err := isolate(faultinject.Search, block.Label, func() error {
		lb := bound.New(g, m, bound.Config{FixedAssign: assignMode(o) == nopins.AssignFixed}).Root()
		c.RootLB = lb
		if c.Gap = c.TotalNOPs - lb; c.Gap < 0 {
			c.Gap = 0
		}
		return nil
	}); f != nil || err != nil {
		c.RootLB, c.Gap = 0, GapUnknown
	}
	telemetry.Active().RecordGap(block.Label, c.Gap, 0)
	return c, degradationError(nil, c.Faults)
}

// baselineSchedule is the last ladder rung: program order (always legal,
// because tuple operands may only reference earlier tuples) with
// conservative full-drain padding — every instruction after the first
// waits out the machine's largest latency/enqueue time, so no dependence
// or conflict can be violated regardless of the dependence structure.
// drain additionally pads before the first instruction (non-first blocks
// of a sequence, where earlier blocks' pipelines may still be busy).
func baselineSchedule(block *Block, m *Machine, drain bool) (order, eta, pipes []int) {
	maxDelay := 1
	for _, p := range m.Pipelines {
		if p.Latency > maxDelay {
			maxDelay = p.Latency
		}
		if p.Enqueue > maxDelay {
			maxDelay = p.Enqueue
		}
	}
	n := block.Len()
	order = make([]int, n)
	eta = make([]int, n)
	pipes = make([]int, n)
	for i := 0; i < n; i++ {
		order[i] = i
		pipes[i] = m.PipelineFor(block.Tuples[i].Op)
		if i > 0 || drain {
			eta[i] = maxDelay - 1
		}
	}
	return order, eta, pipes
}

// baselineCompiled materializes the Baseline rung for one block.
func baselineCompiled(ctx context.Context, block *Block, m *Machine, o Options, faults []*StageError) (*Compiled, error) {
	tracePoint(ctx, "degrade", "rung", "baseline", "block", block.Label)
	order, eta, pipes := baselineSchedule(block, m, false)
	// The faulting DAG stage often still builds cleanly when retried
	// outside the injection boundary; a graph re-enables the simulator
	// verification inside emit.
	var g *dag.Graph
	if f, err := isolate(faultinject.DAG, block.Label, func() error {
		var e error
		g, e = dag.Build(block)
		return e
	}); f != nil || err != nil {
		g = nil
	}
	c, err := emit(ctx, block, g, m, o, order, eta, pipes, Baseline, faults, nil)
	if err != nil {
		return nil, err
	}
	c.InitialNOPs = c.TotalNOPs
	return c, degradationError(nil, c.Faults)
}

// allocateIsolated runs register allocation under stage isolation. On a
// fault it retries once without the register limit (outside the
// injection boundary); a second failure leaves the assignment nil — the
// schedule itself is unaffected.
func allocateIsolated(ctx context.Context, scheduled *Block, label string, limit int, faults *[]*StageError) (*regalloc.Assignment, error) {
	var regs *regalloc.Assignment
	fault, err := runStage(ctx, faultinject.Regalloc, label, func() error {
		var e error
		regs, e = regalloc.Allocate(scheduled, limit)
		return e
	})
	switch {
	case fault != nil:
		*faults = append(*faults, fault)
		regs = nil
		if f, e := isolate(faultinject.Regalloc, label, func() error {
			var e error
			regs, e = regalloc.Allocate(scheduled, 0)
			return e
		}); f != nil || e != nil {
			regs = nil
		}
	case err != nil:
		return nil, err
	}
	return regs, nil
}

// emitIsolated runs code emission under stage isolation; on a fault the
// assembly is simply empty.
func emitIsolated(ctx context.Context, prog codegen.Program, mode DelayMode, label string, faults *[]*StageError) (string, error) {
	var asm string
	fault, err := runStage(ctx, faultinject.Codegen, label, func() error {
		var e error
		asm, e = codegen.Emit(prog, mode)
		return e
	})
	switch {
	case fault != nil:
		*faults = append(*faults, fault)
		return "", nil
	case err != nil:
		return "", err
	}
	return asm, nil
}

// emit carries a computed schedule through register allocation, code
// emission and independent hazard re-verification, isolating faults in
// the regalloc and codegen stages so that a legal schedule always
// survives: a failed allocator leaves Registers nil, a failed code
// generator leaves Assembly empty. g may be nil on the Baseline rung;
// NOP explanations, Tera backoff counts and the simulator verification
// then degrade gracefully instead of failing. searched is the search
// result the schedule came from (nil on the rungs without a search); in
// the scoreboard mode its claimed issue ticks and stall count are what
// the window-machine replay must reproduce.
func emit(ctx context.Context, block *Block, g *dag.Graph, m *Machine, o Options,
	order, eta, pipes []int, quality Quality, faults []*StageError, searched *core.Schedule) (*Compiled, error) {
	label := block.Label
	scheduled, err := block.Permute(order)
	if err != nil {
		return nil, fmt.Errorf("pipesched: internal: %w", err)
	}
	regs, err := allocateIsolated(ctx, scheduled, label, o.Registers, &faults)
	if err != nil {
		return nil, err
	}
	// A search-produced scoreboard schedule carries no NOP padding — the
	// window hardware interlocks — so the in-order delay machinery
	// (explanations, Tera backoff, the in-order hazard check) does not
	// apply; degraded rungs (quality ≥ Heuristic) fall back to the paper's
	// in-order NOP-padded semantics and keep the full machinery.
	sbSched := o.Sched.Kind == machine.SchedScoreboard && searched != nil
	mode := o.Mode
	prog := codegen.Program{Block: scheduled, Eta: eta, Regs: regs}
	if o.ExplainNOPs && g != nil && !sbSched {
		// Best effort: if the schedule were actually illegal the
		// verification below catches it.
		if causes, err := sim.ExplainDelays(sim.Input{
			Graph: g, M: m, Order: order, Eta: eta, Pipes: pipes,
		}); err == nil {
			prog.Notes = make([]string, len(order))
			for _, c := range causes {
				prog.Notes[c.Position] = c.Detail
			}
		}
	}
	if mode == TeraInterlock {
		if g == nil || sbSched {
			mode = NOPPadding // no graph (or no in-order delay semantics) to derive backoff counts from
		} else {
			back, err := sim.TeraCounts(sim.Input{Graph: g, M: m, Order: order, Eta: eta, Pipes: pipes})
			if err != nil {
				return nil, err
			}
			prog.Back = back
		}
	}
	asm, err := emitIsolated(ctx, prog, mode, label, &faults)
	if err != nil {
		return nil, err
	}
	if g != nil {
		// Defense in depth: every schedule leaving the library is
		// re-verified by the independent simulator — the in-order hazard
		// check for NOP-padded schedules; for search-produced scoreboard
		// schedules, the window-machine replay, which must reproduce the
		// claimed issue ticks and stall count exactly.
		if sbSched {
			if err := sim.VerifyScoreboard(sim.ScoreboardInput{
				Input:  sim.Input{Graph: g, M: m, Order: order, Pipes: pipes},
				Window: o.Sched.Window, Width: o.Sched.Width,
			}, searched.IssueTicks, searched.TotalNOPs); err != nil {
				return nil, fmt.Errorf("pipesched: scoreboard schedule failed verification: %w", err)
			}
		} else if _, err := sim.Run(sim.Input{
			Graph: g, M: m, Order: order, Eta: eta, Pipes: pipes,
		}, sim.NOPPadding); err != nil {
			return nil, fmt.Errorf("pipesched: schedule failed verification: %w", err)
		}
	}
	total := 0
	for _, e := range eta {
		total += e
	}
	return &Compiled{
		Original:  block,
		Scheduled: scheduled,
		Order:     order,
		Eta:       eta,
		Pipes:     pipes,
		TotalNOPs: total,
		Ticks:     total + len(order),
		Optimal:   quality == Optimal,
		Quality:   quality,
		Gap:       GapUnknown, // callers holding a bound overwrite this
		Faults:    faults,
		Registers: regs,
		Assembly:  asm,
	}, nil
}

// ScheduleLargeCtx is ScheduleLarge with cooperative cancellation and
// the degradation ladder: windows whose search is cut short fall back to
// their list-schedule seeds (Incumbent); a failed search stage falls
// back to the whole-block seed (Heuristic); a failed DAG stage falls
// back to program order (Baseline).
func ScheduleLargeCtx(ctx context.Context, block *Block, m *Machine, window int, o Options) (*Compiled, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	if err := validateBlock(block); err != nil {
		return nil, err
	}
	if !o.Sched.IsPaper() {
		return nil, fmt.Errorf("%w: ScheduleLarge schedules windows under the paper objective only (got %s)",
			ErrModeUnsupported, o.Sched)
	}
	done := beginCompile()
	var g *dag.Graph
	fault, err := runStage(ctx, faultinject.DAG, block.Label, func() error {
		var e error
		g, e = dag.Build(block)
		return e
	})
	if fault != nil {
		c, err := baselineCompiled(ctx, block, m, o, []*StageError{fault})
		done(c)
		return c, err
	}
	if err != nil {
		done(nil)
		return nil, err
	}
	var r *splitter.Result
	fault, err = runStage(ctx, faultinject.Search, block.Label, func() error {
		var e error
		scfg := splitter.Config{
			Window: window, Lambda: normLambda(o.Lambda), Assign: assignMode(o), Ctx: ctx,
		}
		if faultinject.CurtailLambda() > 0 {
			scfg.DisableLowerBound = true
			scfg.DisableMemo = true
		}
		r, e = splitter.Schedule(g, m, scfg)
		return e
	})
	if fault != nil {
		c, err := heuristicCompiled(ctx, block, g, m, o, []*StageError{fault})
		done(c)
		return c, err
	}
	if err != nil {
		done(nil)
		return nil, err
	}
	quality := Optimal
	if r.OptimalWindows != r.Windows {
		quality = Incumbent
	}
	c, err := emit(ctx, block, g, m, o, r.Order, r.Eta, r.Pipes, quality, nil, nil)
	if err != nil {
		done(nil)
		return nil, err
	}
	c.Stats.OmegaCalls = r.OmegaCalls
	// The windowed result is globally heuristic even when every window
	// is locally optimal; the whole-block root bound certifies how far
	// it can be from the true optimum.
	if f, ferr := isolate(faultinject.Search, block.Label, func() error {
		lb := bound.New(g, m, bound.Config{FixedAssign: assignMode(o) == nopins.AssignFixed}).Root()
		c.RootLB = lb
		if c.Gap = c.TotalNOPs - lb; c.Gap < 0 {
			c.Gap = 0
		}
		return nil
	}); f != nil || ferr != nil {
		c.RootLB, c.Gap = 0, GapUnknown
	}
	telemetry.Active().RecordSearch(block.Label,
		core.Stats{OmegaCalls: r.OmegaCalls, Curtailed: r.Stopped != nil})
	telemetry.Active().RecordGap(block.Label, c.Gap, r.OmegaCalls)
	done(c)
	return c, degradationError(r.Stopped, c.Faults)
}

// ScheduleSequenceCtx is ScheduleSequence with cooperative cancellation
// and the degradation ladder. Curtailment, deadline expiry or
// cancellation demotes the affected blocks to their best incumbents; a
// failed search stage demotes the whole sequence to threaded
// list-schedule seeds (Heuristic); if even that fails, every block runs
// in program order with full pipeline drains at the boundaries
// (Baseline).
func ScheduleSequenceCtx(ctx context.Context, blocks []*Block, m *Machine, o Options) (*SequenceResult, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	if o.Sched.Kind == machine.SchedScoreboard {
		return nil, fmt.Errorf("%w: the scoreboard model cannot thread in-order pipeline state across block boundaries",
			ErrModeUnsupported)
	}
	for i, b := range blocks {
		if b == nil {
			return nil, fmt.Errorf("%w: sequence block %d is nil", ErrInvalidBlock, i)
		}
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	copts := searchOptions(ctx, o)
	heuristic := false
	var faults []*StageError
	var r *seqsched.Result
	fault, err := runStage(ctx, faultinject.Search, "", func() error {
		var e error
		r, e = seqsched.Schedule(blocks, m, copts)
		return e
	})
	switch {
	case fault != nil:
		faults = append(faults, fault)
		heuristic = true
		if f, e := isolate(faultinject.Search, "", func() error {
			var e error
			r, e = seqsched.ScheduleSeed(blocks, m, copts)
			return e
		}); f != nil || e != nil {
			sr, serr := sequenceBaseline(ctx, blocks, m, o, faults)
			recordSequence(sr)
			return sr, serr
		}
	case err != nil:
		return nil, err
	}

	out := &SequenceResult{TotalNOPs: r.TotalNOPs, TotalTicks: r.TotalTicks, Optimal: r.Optimal && !heuristic}
	for i, bs := range r.Blocks {
		bq := Heuristic
		if !heuristic {
			if bs.Sched.Optimal {
				bq = Optimal
			} else {
				bq = Incumbent
			}
		}
		c, err := finishSequenceBlock(ctx, blocks[i], bs, m, o, bq)
		if err != nil {
			return nil, err
		}
		if c.Quality > out.Quality {
			out.Quality = c.Quality
		}
		faults = append(faults, c.Faults...)
		out.Blocks = append(out.Blocks, c)
	}
	recordSequence(out)
	return out, degradationError(r.Stopped, faults)
}

// recordSequence folds every block of a finished sequence into the
// telemetry metric set (no-op when telemetry is off). Per-block wall
// time is not split out — the stage spans already cover the sequence.
func recordSequence(r *SequenceResult) {
	pm := telemetry.Active()
	if pm == nil || r == nil {
		return
	}
	for _, c := range r.Blocks {
		if c == nil || c.Scheduled == nil {
			continue
		}
		if c.Stats.OmegaCalls > 0 || c.Stats.SeedOmegaCalls > 0 {
			pm.RecordSearch(c.Scheduled.Label, c.Stats)
		}
		pm.RecordGap(c.Scheduled.Label, c.Gap, c.Stats.OmegaCalls)
		pm.RecordCompile(c.Scheduled.Label, int(c.Quality), c.Scheduled.Len(),
			c.InitialNOPs, c.TotalNOPs, len(c.Faults), 0)
	}
}

// sequenceBaseline is the Baseline rung for a whole sequence: each block
// in program order with full-drain padding, and a full pipeline drain
// before every block boundary, so no cross-block state can be violated.
func sequenceBaseline(ctx context.Context, blocks []*Block, m *Machine, o Options, faults []*StageError) (*SequenceResult, error) {
	tracePoint(ctx, "degrade", "rung", "baseline", "blocks", fmt.Sprint(len(blocks)))
	out := &SequenceResult{Quality: Baseline}
	tick := 0
	for i, b := range blocks {
		order, eta, pipes := baselineSchedule(b, m, i > 0)
		var g *dag.Graph
		if f, err := isolate(faultinject.DAG, b.Label, func() error {
			var e error
			g, e = dag.Build(b)
			return e
		}); f != nil || err != nil {
			g = nil
		}
		c, err := emit(ctx, b, g, m, o, order, eta, pipes, Baseline, nil, nil)
		if err != nil {
			return nil, err
		}
		c.InitialNOPs = c.TotalNOPs
		tick += c.TotalNOPs + len(order)
		c.Ticks = tick // absolute end tick, matching sequence semantics
		faults = append(faults, c.Faults...)
		out.Blocks = append(out.Blocks, c)
		out.TotalNOPs += c.TotalNOPs
	}
	out.TotalTicks = tick
	return out, degradationError(nil, faults)
}

// finishSequenceBlock emits one block of a threaded sequence with the
// same regalloc/codegen isolation as emit. The block's η values include
// boundary delays imposed by the PREVIOUS blocks' pipeline state, so the
// cold-start re-verification of emit does not apply; the sequence-level
// verification lives in internal/seqsched (Flatten + simulator),
// exercised by its tests.
func finishSequenceBlock(ctx context.Context, block *Block, bs seqsched.BlockSchedule, m *Machine, o Options, quality Quality) (*Compiled, error) {
	scheduled, err := block.Permute(bs.Sched.Order)
	if err != nil {
		return nil, fmt.Errorf("pipesched: internal: %w", err)
	}
	var faults []*StageError
	regs, err := allocateIsolated(ctx, scheduled, block.Label, o.Registers, &faults)
	if err != nil {
		return nil, err
	}
	prog := codegen.Program{Block: scheduled, Eta: bs.Sched.Eta, Regs: regs}
	if o.ExplainNOPs {
		// Boundary delays reference state outside the block's own graph,
		// so explanation runs against the block-local constraints only;
		// unexplainable (boundary-caused) delays keep a generic note.
		if causes, err := sim.ExplainDelays(sim.Input{
			Graph: bs.Graph, M: m, Order: bs.Sched.Order, Eta: bs.Sched.Eta, Pipes: bs.Sched.Pipes,
		}); err == nil {
			prog.Notes = make([]string, len(bs.Sched.Order))
			for _, c := range causes {
				prog.Notes[c.Position] = c.Detail
			}
		} else {
			prog.Notes = make([]string, len(bs.Sched.Order))
			for i, eta := range bs.Sched.Eta {
				if eta > 0 {
					prog.Notes[i] = fmt.Sprintf("waits %d ticks (includes cross-block pipeline state)", eta)
				}
			}
		}
	}
	if o.Mode == TeraInterlock {
		back, err := sim.TeraCounts(sim.Input{
			Graph: bs.Graph, M: m, Order: bs.Sched.Order, Eta: bs.Sched.Eta, Pipes: bs.Sched.Pipes,
		})
		if err != nil {
			return nil, err
		}
		prog.Back = back
	}
	asm, err := emitIsolated(ctx, prog, o.Mode, block.Label, &faults)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Original:    block,
		Scheduled:   scheduled,
		Order:       bs.Sched.Order,
		Eta:         bs.Sched.Eta,
		Pipes:       bs.Sched.Pipes,
		TotalNOPs:   bs.Sched.TotalNOPs,
		InitialNOPs: bs.Sched.InitialNOPs,
		Ticks:       bs.EndTick,
		Optimal:     quality == Optimal,
		Quality:     quality,
		RootLB:      bs.Sched.RootLB,
		Gap:         bs.Sched.Gap,
		Faults:      faults,
		Registers:   regs,
		Assembly:    asm,
		Stats:       bs.Sched.Stats,
	}
	if quality < Heuristic {
		// Degraded sequence rungs fall back to the paper objective; only
		// search-produced blocks carry the mode and its pressure figure.
		c.Sched = o.Sched
		c.MaxLive = bs.Sched.MaxLive
	}
	return c, nil
}

// CompileSequenceCtx is CompileSequence with cooperative cancellation
// and the degradation ladder; see ScheduleSequenceCtx. A frontend fault
// is a hard failure; a per-block optimizer fault degrades that block to
// its unoptimized tuples and is recorded in the block's Faults.
func CompileSequenceCtx(ctx context.Context, src string, m *Machine, o Options) (*SequenceResult, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	var blocks []*Block
	fault, err := runStage(ctx, faultinject.Frontend, "", func() error {
		parsed, err := frontend.ParseFile(src)
		if err != nil {
			return err
		}
		for i, np := range parsed {
			label := np.Name
			if label == "" {
				label = fmt.Sprintf("block%d", i)
			}
			b, err := tuplegen.Generate(np.Program, label)
			if err != nil {
				return err
			}
			blocks = append(blocks, b)
		}
		return nil
	})
	if fault != nil {
		return nil, fault
	}
	if err != nil {
		return nil, err
	}
	optFaults := map[int]*StageError{}
	if o.Optimize || o.Reassociate {
		for i, b := range blocks {
			optimized := b
			fault, _ := runStage(ctx, faultinject.Opt, b.Label, func() error {
				if o.Reassociate {
					optimized = opt.OptimizeReassoc(b)
				} else {
					optimized = opt.Optimize(b)
				}
				return nil
			})
			if fault != nil {
				optFaults[i] = fault
				optimized = b
			}
			blocks[i] = optimized
		}
	}
	r, err := ScheduleSequenceCtx(ctx, blocks, m, o)
	if r != nil {
		for i := range r.Blocks {
			r.Blocks[i].Source = src
			if f := optFaults[i]; f != nil {
				r.Blocks[i].Faults = append([]*StageError{f}, r.Blocks[i].Faults...)
			}
		}
		if err == nil {
			for i := range blocks {
				if f := optFaults[i]; f != nil {
					err = f
					break
				}
			}
		}
	}
	return r, err
}
