package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pipesched"
	"pipesched/internal/codegen"
	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/opt"
	"pipesched/internal/regalloc"
	"pipesched/internal/sim"
	"pipesched/internal/synth"
	"pipesched/internal/tuplegen"
)

// blockSpec describes a single-block compile workload.
type blockSpec struct {
	machine func() *pipesched.Machine
	sched   pipesched.SchedMode
	corpus  int // distinct blocks at full scale
	group   int // blocks per round
}

// A pass over the multipipe corpus takes ~3.5 s on a 2-vCPU Xeon, so a
// run makes several; the scoreboard corpus (~25 s there) is one pass,
// sized so latency_p99_us has ten samples beyond it. About one block in
// six stops at λ there, so a round of five blocks has its median and
// 90th percentile inside a mode (zero or one, two or more such blocks)
// rather than on the edge between two.
func runMultipipe(c *config) (*outcome, error) {
	return runBlocks(c, blockSpec{machine: pipesched.ExampleMachine, corpus: 2000, group: 20})
}

func runScoreboard(c *config) (*outcome, error) {
	return runBlocks(c, blockSpec{
		machine: pipesched.SimulationMachine, sched: pipesched.Scoreboard(8, 2),
		corpus: 1000, group: 5,
	})
}

// blockCorpus generates n single-block sources: the Table 6 statement
// mix at Figure 5 sizes, from the pinned corpus seed, renamed for seed.
func blockCorpus(n int, seed int64) ([]string, *renamer, error) {
	rng := rand.New(rand.NewSource(corpusSeed))
	sizes := synth.SizeDistribution(rng, n)
	rn := newRenamer(seed, 8)
	out := make([]string, n)
	for i := range out {
		b, err := synth.Generate(rng, synth.Params{Statements: sizes[i], Variables: 8, Constants: 6})
		if err != nil {
			return nil, nil, err
		}
		out[i] = rn.apply(b.Source)
	}
	return out, rn, nil
}

// delivered reports whether a compile delivered a schedule: a nil
// result or an error outside the degradation family is a failure.
func delivered(c *pipesched.Compiled, err error) bool {
	if c == nil {
		return false
	}
	return err == nil || errors.Is(err, pipesched.ErrCurtailed) || errors.Is(err, pipesched.ErrDeadline)
}

// groupedOrder splits 0..n-1 into consecutive groups of size g (the
// rounds) and shuffles the group order and each group's members.
func groupedOrder(n, g int, rng *rand.Rand) [][]int {
	var groups [][]int
	for lo := 0; lo < n; lo += g {
		hi := lo + g
		if hi > n {
			hi = n
		}
		grp := make([]int, 0, hi-lo)
		for _, k := range rng.Perm(hi - lo) {
			grp = append(grp, lo+k)
		}
		groups = append(groups, grp)
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	return groups
}

func runBlocks(c *config, spec blockSpec) (*outcome, error) {
	n := c.scaled(spec.corpus, 12)
	srcs, rn, err := blockCorpus(n, c.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	groups := groupedOrder(n, spec.group, rng)
	opts := pipesched.Options{Optimize: true, Sched: spec.sched}
	ctx := context.Background()
	out := &outcome{Metrics: metrics{}, Counters: map[string]int64{}}

	// Set-up: a fresh machine and the first delivered block, repeated.
	settle()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		m := spec.machine()
		if _, err := pipesched.CompileCtx(ctx, srcs[0], m, opts); err != nil && !errors.Is(err, pipesched.ErrCurtailed) {
			return nil, fmt.Errorf("set-up compile: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.Metrics.set("setup_s", median(setups), "s")

	m := spec.machine()
	first := make([]*pipesched.Compiled, n)
	var lats, rounds []float64
	var coldBuild float64
	passes := 1
	settle()
	a := takeSnapshot()
	for pass := 0; pass < passes; pass++ {
		p0 := time.Now()
		for _, grp := range groups {
			g0 := time.Now()
			for _, idx := range grp {
				t0 := time.Now()
				res, err := pipesched.CompileCtx(ctx, srcs[idx], m, opts)
				lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e3)
				out.Attempted++
				switch {
				case !delivered(res, err):
					out.Failed++
					c.logf("block %d: %v", idx, err)
				case pass == 0:
					first[idx] = res
				case res.TotalNOPs != first[idx].TotalNOPs || res.Stats.OmegaCalls != first[idx].Stats.OmegaCalls:
					// Exact counters must repeat between passes.
					out.Failed++
					c.logf("block %d: pass %d delivers %d NOPs after %d nodes, pass 1 delivered %d after %d",
						idx, pass+1, res.TotalNOPs, res.Stats.OmegaCalls, first[idx].TotalNOPs, first[idx].Stats.OmegaCalls)
				}
			}
			rounds = append(rounds, float64(time.Since(g0).Nanoseconds())/1e6)
		}
		if pass == 0 {
			coldBuild = time.Since(p0).Seconds()
			passes = int(math.Max(1, math.Round(c.Seconds/coldBuild)))
		}
	}
	b := takeSnapshot()
	out.Metrics.window(a, b, out.Attempted)
	out.Metrics.set("latency_p50_us", median(lats), "us")
	out.Metrics.set("latency_p99_us", c.tail("latency_p99_us", lats, 99), "us")
	out.Metrics.set("round_p50_ms", median(rounds), "ms")
	out.Metrics.set("round_p90_ms", c.tail("round_p90_ms", rounds, 90), "ms")
	out.Metrics.set("cold_build_s", coldBuild, "s")
	c.logf("%d blocks x %d passes, cold pass %.2fs", n, passes, coldBuild)

	// Correctness, outside the timing window: every distinct delivered
	// schedule is re-simulated and its assembly run against the source.
	var tally searchTally
	nops, degraded := 0, 0
	checkRNG := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	for idx, res := range first {
		if res == nil {
			continue
		}
		tally.add(res.Stats)
		nops += res.TotalNOPs
		if res.Quality != pipesched.Optimal {
			degraded++
		}
		if err := checkDelivered(res, m, spec.sched, srcs[idx], rn.all, checkRNG); err != nil {
			out.Failed++
			c.logf("block %d: %v", idx, err)
		}
	}
	out.Metrics.set("nops_per_block", float64(nops)/float64(n), "nops")
	out.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	out.Counters["core.nodes_expanded"] = tally.nodes
	out.Counters["core.curtailed_blocks"] = tally.curtailed
	out.Counters["nops"] = int64(nops)
	out.Counters["degraded"] = int64(degraded)
	c.logf("nodes expanded %d, curtailed %d, degraded %d/%d, NOPs %d", tally.nodes, tally.curtailed, degraded, n, nops)

	if !c.Trace {
		out.Metrics = complete(out.Metrics, endToEnd)
		return out, nil
	}
	untraced := out.Metrics["ops_per_s"].Value
	lm := metrics{}
	lm.set("bench.degraded_ratio", float64(degraded)/float64(n), "ratio")
	if err := tracedBlocks(c, spec, m, srcs, groups, first, lm, out); err != nil {
		return nil, err
	}
	lm.set("bench.trace_overhead_ratio", 1-lm["traced_ops_per_s"].Value/untraced, "ratio")
	lm.set("bench.failed_ratio", float64(out.Failed)/float64(out.Attempted), "ratio")
	out.Metrics = complete(lm, perLayer)
	return out, nil
}

// checkDelivered runs both independent checks on one delivered block.
func checkDelivered(res *pipesched.Compiled, m *machine.Machine, mode machine.SchedMode, src string, vars []string, rng *rand.Rand) error {
	if err := checkSchedule(res, m, mode); err != nil {
		return fmt.Errorf("re-simulation: %w", err)
	}
	ref, err := sourceReference(src)
	if err != nil {
		return err
	}
	return checkAssembly(res.Assembly, ref, vars, rng)
}

// tracedBlocks compiles one pass of the corpus by calling each layer
// itself, in the order pipesched.CompileCtx does, with a span around
// every call. Each traced block must cost what CompileCtx delivered.
func tracedBlocks(c *config, spec blockSpec, m *machine.Machine, srcs []string, groups [][]int,
	first []*pipesched.Compiled, lm metrics, out *outcome) error {
	ctx := context.Background()
	copts := core.Options{
		Sched: spec.sched, Lambda: pipesched.DefaultLambda, Ctx: ctx,
		Assign: nopins.AssignFixed, SeedPriority: listsched.ByHeight,
	}
	settle()
	rec := newRecorder(time.Now(), 0)
	var tally searchTally
	var tuplesIn, tuplesOut, edges, regs, asmBytes float64
	var traced []int
	var graphs []*dag.Graph
	ops := 0
	t0 := time.Now()
	for _, grp := range groups {
		for _, idx := range grp {
			op := int64(idx)
			root := rec.begin("op", -1, op)
			out.Attempted++
			ops++
			traced = append(traced, idx)
			cost, err := func() (int, error) {
				s := rec.begin("frontend", root, op)
				blk, err := tuplegen.Compile(srcs[idx], "block")
				rec.end(s)
				if err != nil {
					return 0, err
				}
				s = rec.begin("opt", root, op)
				ob := opt.Optimize(blk)
				rec.end(s)
				tuplesIn += float64(blk.Len())
				tuplesOut += float64(ob.Len())

				s = rec.begin("dag", root, op)
				g, err := dag.Build(ob)
				rec.end(s)
				if err != nil {
					return 0, err
				}
				for _, ss := range g.Succs {
					edges += float64(len(ss))
				}

				s = rec.begin("core", root, op)
				sch, err := core.Find(g, m, copts)
				rec.endArg(s, int64(ob.Len()))
				if err != nil {
					return 0, err
				}
				graphs = append(graphs, g)
				tally.add(sch.Stats)

				s = rec.begin("regalloc", root, op)
				scheduled, err := ob.Permute(sch.Order)
				var asg *regalloc.Assignment
				if err == nil {
					asg, err = regalloc.Allocate(scheduled, 0)
				}
				rec.end(s)
				if err != nil {
					return 0, err
				}
				regs += float64(asg.NumRegs)

				s = rec.begin("codegen", root, op)
				text, err := codegen.Emit(codegen.Program{Block: scheduled, Eta: sch.Eta, Regs: asg}, codegen.NOPPadding)
				rec.end(s)
				if err != nil {
					return 0, err
				}
				asmBytes += float64(len(text))

				s = rec.begin("sim", root, op)
				in := sim.Input{Graph: g, M: m, Order: sch.Order, Eta: sch.Eta, Pipes: sch.Pipes}
				if spec.sched.Kind == machine.SchedScoreboard {
					err = sim.VerifyScoreboard(sim.ScoreboardInput{Input: in, Window: spec.sched.Window, Width: spec.sched.Width},
						sch.IssueTicks, sch.TotalNOPs)
				} else {
					_, err = sim.Run(in, sim.NOPPadding)
				}
				rec.end(s)
				return sch.TotalNOPs, err
			}()
			rec.end(root)
			switch {
			case err != nil:
				out.Failed++
				c.logf("traced block %d: %v", idx, err)
			case first[idx] != nil && cost != first[idx].TotalNOPs:
				out.Failed++
				c.logf("traced block %d costs %d NOPs, CompileCtx delivered %d", idx, cost, first[idx].TotalNOPs)
			}
		}
	}
	lm.set("traced_ops_per_s", float64(ops)/time.Since(t0).Seconds(), "1/s")
	if err := writeSpans(c, []*recorder{rec}); err != nil {
		return err
	}

	// Allocations per layer call, outside the timed pass: each layer
	// alone over the blocks it reached, counted at the loop's edges.
	feAllocs, _ := allocLoop(len(traced), func(i int) { _, _ = tuplegen.Compile(srcs[traced[i]], "block") })
	coreAllocs, _ := allocLoop(len(graphs), func(i int) { _, _ = core.Find(graphs[i], m, copts) })

	lt := selfTimes([]*recorder{rec})
	nb := float64(ops)
	lm.set("frontend.us_per_block", lt.per("frontend", ops), "us")
	lm.set("frontend.allocs_per_block", ratio(feAllocs, float64(len(traced))), "count")
	lm.set("opt.us_per_block", lt.per("opt", ops), "us")
	lm.set("opt.tuples_out_ratio", ratio(tuplesOut, tuplesIn), "ratio")
	lm.set("dag.us_per_block", lt.per("dag", ops), "us")
	lm.set("dag.edges_per_block", edges/nb, "count")
	lm.set("core.us_per_block", lt.per("core", ops), "us")
	lm.set("core.us_p99", c.tail("core.us_p99", lt.samples("core"), 99), "us")
	lm.set("core.ns_per_node", ratio(lt.total("core")*1e3, float64(tally.nodes)), "ns")
	lm.set("core.allocs_per_block", ratio(coreAllocs, float64(len(graphs))), "count")
	tally.emit(lm)
	buckets := map[string][]float64{}
	for _, s := range lt["core"] {
		b := sizeBucket(int(s.arg))
		buckets[b] = append(buckets[b], s.us)
	}
	for b, xs := range buckets {
		lm.set("core.us_per_block."+b, sum(xs)/float64(len(xs)), "us")
	}
	lm.set("regalloc.us_per_block", lt.per("regalloc", ops), "us")
	lm.set("regalloc.registers_per_block", regs/nb, "count")
	lm.set("codegen.us_per_block", lt.per("codegen", ops), "us")
	lm.set("codegen.asm_bytes_per_block", asmBytes/nb, "B")
	lm.set("sim.us_per_block", lt.per("sim", ops), "us")
	return nil
}
