package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"pipesched"
	"pipesched/internal/campaign"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/sim"
	"pipesched/internal/synth"
)

// The campaign corpus: programs of 2–8 blocks with 30 % branches, about
// 2.6 traces each, so a round of 400 programs has over a thousand traces
// and the runner's per-round latency p99 has ten beyond it. Each edit
// round changes one line in 5 % of the programs and rebuilds all of them
// against the manifest. At that share ~2 % of the traces recompile, so
// the per-trace p99 falls among the recompiles rather than on the edge
// between them and the manifest hits.
const (
	campaignPrograms  = 400
	campaignEditShare = 0.05
	campaignMinRounds = 100 // so round_p90_ms has ten rounds beyond it
)

func campaignCorpus(c *config) ([]campaign.Input, error) {
	rng := rand.New(rand.NewSource(corpusSeed))
	rn := newRenamer(c.Seed, 6)
	n := c.scaled(campaignPrograms, 10)
	inputs := make([]campaign.Input, n)
	for i := range inputs {
		p, err := synth.GenerateProgram(rng, synth.ProgramParams{
			Blocks: 2 + rng.Intn(7), BlockStatements: 4, Variables: 6, Constants: 4, BranchPercent: 30,
		})
		if err != nil {
			return nil, err
		}
		inputs[i] = campaign.Input{Name: fmt.Sprintf("p%04d.psrc", i), Source: rn.apply(p.Source)}
	}
	return inputs, nil
}

// campaignSetup is the runner configuration `pipesched campaign` uses by
// default (in-process LocalCompiler, paper mode), on the simulation
// machine with nproc-bounded concurrency.
type campaignSetup struct {
	m           *machine.Machine
	mode        machine.SchedMode
	concurrency int
}

func (s campaignSetup) compiler() *campaign.LocalCompiler {
	return &campaign.LocalCompiler{M: s.m, Options: pipesched.Options{Sched: s.mode}}
}

func (s campaignSetup) run(inputs []campaign.Input, mf *campaign.Manifest) (*campaign.Report, error) {
	r, err := campaign.NewRunner(campaign.Config{
		Machine: s.m, Mode: s.mode, Compiler: s.compiler(), Manifest: mf, Concurrency: s.concurrency,
	})
	if err != nil {
		return nil, err
	}
	rep, err := r.Run(context.Background(), inputs)
	if rep == nil {
		return nil, err
	}
	return rep, nil // per-trace failures are counted from the report
}

// editor makes the edit rounds. Which programs and lines a round edits
// comes from the pinned corpus seed, so every seed recompiles the same
// traces; the constant each edit appends comes from the run seed.
type editor struct{ where, what *rand.Rand }

func newEditor(seed int64) *editor {
	return &editor{where: rand.New(rand.NewSource(corpusSeed + 1)), what: rand.New(rand.NewSource(seed))}
}

// round changes one statement line in campaignEditShare of the programs.
func (e *editor) round(inputs []campaign.Input) {
	k := max(1, int(float64(len(inputs))*campaignEditShare+0.5))
	for _, p := range e.where.Perm(len(inputs))[:k] {
		lines := strings.Split(inputs[p].Source, "\n")
		var stmts []int
		for i, l := range lines {
			if strings.Contains(l, " = ") {
				stmts = append(stmts, i)
			}
		}
		if len(stmts) == 0 {
			continue
		}
		i := stmts[e.where.Intn(len(stmts))]
		lines[i] += fmt.Sprintf(" + %d", 1+e.what.Intn(9))
		inputs[p].Source = strings.Join(lines, "\n")
	}
}

// reportFailures counts the report's failed traces and every program
// whose delivered NOPs exceed its per-block baseline.
func reportFailures(c *config, rep *campaign.Report) int {
	failed := rep.Failed
	for _, pr := range rep.Programs {
		if pr.DeliveredNOPs > pr.BaselineNOPs {
			failed++
			c.logf("%s delivers %d NOPs over a per-block baseline of %d", pr.Name, pr.DeliveredNOPs, pr.BaselineNOPs)
		}
		for _, e := range pr.Errors {
			c.logf("%s: %s", pr.Name, e)
		}
	}
	return failed
}

func runCampaign(c *config) (*outcome, error) {
	inputs, err := campaignCorpus(c)
	if err != nil {
		return nil, err
	}
	cs := campaignSetup{m: machine.SimulationMachine(), concurrency: min(2, runtime.NumCPU())}
	out := &outcome{Metrics: metrics{}, Counters: map[string]int64{}}

	// Cold build into an empty manifest, three times; the median is
	// reported and the last manifest is kept. The builds must agree.
	var dir string
	var cold *campaign.Report
	var colds []float64
	for i := 0; i < 3; i++ {
		dir = fmt.Sprintf("%s/manifest-%d", c.WorkDir, i)
		mf, _, err := campaign.OpenManifest(dir, cs.m, cs.mode)
		if err != nil {
			return nil, err
		}
		settle()
		t0 := time.Now()
		rep, err := cs.run(inputs, mf)
		if err != nil {
			return nil, err
		}
		colds = append(colds, time.Since(t0).Seconds())
		mf.Close()
		out.Attempted += rep.TotalPrograms
		out.Failed += reportFailures(c, rep)
		if cold != nil && (rep.TotalTraces != cold.TotalTraces || rep.DeliveredNOPs != cold.DeliveredNOPs || rep.NOPsSaved != cold.NOPsSaved) {
			out.Failed++
			c.logf("cold build %d: %d traces, %d NOPs (%d saved); build 1 had %d, %d (%d)", i+1,
				rep.TotalTraces, rep.DeliveredNOPs, rep.NOPsSaved, cold.TotalTraces, cold.DeliveredNOPs, cold.NOPsSaved)
		}
		cold = rep
	}
	out.Metrics.set("cold_build_s", median(colds), "s")
	out.Metrics.set("nops_per_block", ratio(float64(cold.DeliveredNOPs), float64(cold.TotalBlocks)), "nops")
	out.Counters["campaign.traces"] = int64(cold.TotalTraces)
	out.Counters["campaign.nops_saved"] = int64(cold.NOPsSaved)
	out.Counters["nops"] = int64(cold.DeliveredNOPs)
	degraded := 0
	for _, pr := range cold.Programs {
		if !pr.Optimal {
			degraded++
		}
	}
	out.Counters["degraded"] = int64(degraded)
	c.logf("cold build: %d programs, %d blocks, %d traces, %d NOPs delivered (%d saved) in %.2fs",
		cold.TotalPrograms, cold.TotalBlocks, cold.TotalTraces, cold.DeliveredNOPs, cold.NOPsSaved,
		out.Metrics["cold_build_s"].Value)

	// Set-up: the manifest reopened, as a restarted CI runner does.
	var setups []float64
	var mf *campaign.Manifest
	settle()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		mf, _, err = campaign.OpenManifest(dir, cs.m, cs.mode)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			mf.Close()
		}
	}
	out.Metrics.set("setup_s", median(setups), "s")

	// Edit rounds.
	ed := newEditor(c.Seed)
	var rounds, p50s, p99s []float64
	var last *campaign.Report
	programs, hits, fresh, minTraces := 0, 0, 0, math.MaxInt
	minRounds := c.scaled(campaignMinRounds, 12)
	settle()
	a := takeSnapshot()
	deadline := a.at.Add(time.Duration(c.Seconds * float64(time.Second)))
	for len(rounds) < minRounds || time.Now().Before(deadline) {
		ed.round(inputs)
		r0 := time.Now()
		rep, err := cs.run(inputs, mf)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, float64(time.Since(r0).Nanoseconds())/1e6)
		p50s = append(p50s, rep.LatencyP50MS*1e3)
		p99s = append(p99s, rep.LatencyP99MS*1e3)
		programs += rep.TotalPrograms
		minTraces = min(minTraces, rep.TotalTraces)
		hits += rep.ManifestHits
		fresh += rep.Recompiled
		out.Failed += reportFailures(c, rep)
		last = rep
	}
	b := takeSnapshot()
	out.Attempted += programs
	out.Metrics.window(a, b, programs)
	// Latency per trace, as the runner times it: each round's
	// percentiles over its traces, median over rounds.
	c.checkTail("latency_p99_us per round", minTraces, 99)
	out.Metrics.set("latency_p50_us", median(p50s), "us")
	out.Metrics.set("latency_p99_us", median(p99s), "us")
	out.Metrics.set("round_p50_ms", median(rounds), "ms")
	out.Metrics.set("round_p90_ms", c.tail("round_p90_ms", rounds, 90), "ms")
	c.logf("%d edit rounds: %d manifest hits, %d recompiled", len(rounds), hits, fresh)

	// An incremental build must equal a clean one, and every delivered
	// trace must re-simulate to its claimed cost.
	out.Failed += checkCleanBuild(c, cs, inputs, last)
	out.Failed += checkTraces(c, cs, inputs, mf)
	mf.Close()
	out.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")

	if !c.Trace {
		out.Metrics = complete(out.Metrics, endToEnd)
		return out, nil
	}
	lm := metrics{}
	lm.set("bench.degraded_ratio", ratio(float64(degraded), float64(cold.TotalPrograms)), "ratio")
	lm.set("campaign.nops_saved", float64(cold.NOPsSaved), "nops")
	lm.set("campaign.traces_per_program", ratio(float64(cold.TotalTraces), float64(cold.TotalPrograms)), "count")
	if err := tracedCampaign(c, cs, inputs, dir, ed, lm, out); err != nil {
		return nil, err
	}
	lm.set("bench.trace_overhead_ratio", 1-lm["traced_ops_per_s"].Value/out.Metrics["ops_per_s"].Value, "ratio")
	lm.set("bench.failed_ratio", float64(out.Failed)/float64(out.Attempted), "ratio")
	out.Metrics = complete(lm, perLayer)
	return out, nil
}

// checkCleanBuild builds the final sources cold, without a manifest: each
// program must deliver exactly the NOPs the incremental build delivered.
func checkCleanBuild(c *config, cs campaignSetup, inputs []campaign.Input, incr *campaign.Report) int {
	clean, err := cs.run(inputs, nil)
	if err != nil {
		c.logf("clean build: %v", err)
		return 1
	}
	failed := reportFailures(c, clean)
	want := map[string]int{}
	for _, pr := range incr.Programs {
		want[pr.Name] = pr.DeliveredNOPs
	}
	for _, pr := range clean.Programs {
		if got, ok := want[pr.Name]; !ok || got != pr.DeliveredNOPs {
			failed++
			c.logf("%s: clean build delivers %d NOPs, incremental %d", pr.Name, pr.DeliveredNOPs, got)
		}
	}
	if failed == 0 {
		c.logf("incremental build equals a clean build (%d programs, %d NOPs)", len(clean.Programs), clean.DeliveredNOPs)
	}
	return failed
}

// checkTraces re-simulates every trace of the final sources from the
// manifest over the merged block, independently of the runner's own
// verify-on-hit.
func checkTraces(c *config, cs campaignSetup, inputs []campaign.Input, mf *campaign.Manifest) int {
	failed := 0
	for _, in := range inputs {
		g, err := campaign.ParseProgram(in.Name, in.Source, false)
		if err != nil {
			failed++
			c.logf("%s: %v", in.Name, err)
			continue
		}
		for _, t := range g.Traces() {
			res, ok := mf.Lookup(t, cs.m, cs.mode)
			if !ok {
				failed++
				c.logf("%s: trace %s missing from the manifest", in.Name, t.Name())
				continue
			}
			if err := resimulateTrace(t, res, cs.m); err != nil {
				failed++
				c.logf("%s: trace %s: %v", in.Name, t.Name(), err)
			}
		}
	}
	return failed
}

func resimulateTrace(t *campaign.Trace, res *campaign.TraceResult, m *machine.Machine) error {
	merged, err := t.Merged()
	if err != nil {
		return err
	}
	g, err := dag.Build(merged)
	if err != nil {
		return err
	}
	tr, err := sim.Run(sim.Input{Graph: g, M: m, Order: res.Order, Eta: res.Eta, Pipes: res.Pipes}, sim.NOPPadding)
	if err != nil {
		return err
	}
	if tr.Delays != res.DeliveredNOPs {
		return fmt.Errorf("claims %d NOPs, simulates to %d", res.DeliveredNOPs, tr.Delays)
	}
	return nil
}

// timedCompiler wraps the campaign's compiler for one worker, recording
// a compile span under the worker's current ScheduleTrace span.
type timedCompiler struct {
	inner  campaign.Compiler
	rec    *recorder
	parent int32
	op     int64
	tally  searchTally
}

func (tc *timedCompiler) Compile(ctx context.Context, b *ir.Block) (*pipesched.Compiled, error) {
	s := tc.rec.begin("compile", tc.parent, tc.op)
	res, err := tc.inner.Compile(ctx, b)
	tc.rec.end(s)
	if res != nil {
		tc.tally.add(res.Stats)
	}
	return res, err
}

// tracedCampaign runs further edit rounds calling the campaign layers
// itself, in the runner's order: ParseProgram → Traces/Merged →
// Manifest.Lookup → ScheduleTrace → Manifest.Record.
func tracedCampaign(c *config, cs campaignSetup, inputs []campaign.Input, dir string,
	ed *editor, lm metrics, out *outcome) error {
	settle()
	t0 := time.Now()
	mf, rep, err := campaign.OpenManifest(dir, cs.m, cs.mode)
	if err != nil {
		return err
	}
	defer mf.Close()
	lm.set("store.recovery_s", time.Since(t0).Seconds(), "s")
	lm.set("store.entries", float64(rep.Recovered), "count")

	settle()
	origin := time.Now()
	parser := newRecorder(origin, 0)
	recs := []*recorder{parser}
	workers := make([]*timedCompiler, cs.concurrency)
	for w := range workers {
		rec := newRecorder(origin, w+1)
		recs = append(recs, rec)
		workers[w] = &timedCompiler{rec: rec}
	}
	var programs, traces, hits, fresh, records int
	var dedupHits, dedupMisses int64
	deadline := origin.Add(time.Duration(c.Seconds * float64(time.Second)))
	minRounds := c.scaled(campaignMinRounds, 12) / 4
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		ed.round(inputs)
		dedup := campaign.NewDedupCompiler(cs.compiler())
		var jobs []*campaign.Trace
		for p, in := range inputs {
			op := int64(round*len(inputs) + p)
			s := parser.begin("parse", -1, op)
			g, err := campaign.ParseProgram(in.Name, in.Source, false)
			parser.end(s)
			if err != nil {
				out.Failed++
				continue
			}
			s = parser.begin("traces", -1, op)
			ts := g.Traces()
			for _, t := range ts {
				if _, err := t.Merged(); err != nil {
					out.Failed++
				}
			}
			parser.end(s)
			jobs = append(jobs, ts...)
			programs++
		}
		traces += len(jobs)
		var mu sync.Mutex
		var wg sync.WaitGroup
		next := 0
		for _, w := range workers {
			w.inner = dedup
			wg.Add(1)
			go func(w *timedCompiler, round int) {
				defer wg.Done()
				for {
					mu.Lock()
					j := next
					next++
					mu.Unlock()
					if j >= len(jobs) {
						return
					}
					t := jobs[j]
					op := int64(round)<<32 | int64(j)
					root := w.rec.begin("trace", -1, op)
					s := w.rec.begin("lookup", root, op)
					_, ok := mf.Lookup(t, cs.m, cs.mode)
					w.rec.end(s)
					if ok {
						mu.Lock()
						hits++
						mu.Unlock()
						w.rec.end(root)
						continue
					}
					s = w.rec.begin("schedule_trace", root, op)
					w.parent, w.op = s, op
					res, err := campaign.ScheduleTrace(context.Background(), t, cs.m, cs.mode, w)
					w.rec.end(s)
					if err == nil {
						s = w.rec.begin("record", root, op)
						err = mf.Record(t, res)
						w.rec.end(s)
					}
					w.rec.end(root)
					mu.Lock()
					fresh++
					records++
					if err != nil || res.DeliveredNOPs > res.BaselineNOPs {
						out.Failed++
						c.logf("traced trace %s: %v", t.Name(), err)
					}
					mu.Unlock()
				}
			}(w, round)
		}
		wg.Wait()
		dedupHits += dedup.Hits()
		dedupMisses += dedup.Misses()
	}
	elapsed := time.Since(origin)
	out.Attempted += programs
	if err := writeSpans(c, recs); err != nil {
		return err
	}

	lt := selfTimes(recs)
	lm.set("traced_ops_per_s", float64(programs)/elapsed.Seconds(), "1/s")
	lm.set("campaign.parse.us_per_program", lt.per("parse", programs), "us")
	lm.set("campaign.traces.us_per_program", lt.per("traces", programs), "us")
	lm.set("campaign.manifest_lookup.us_per_trace", lt.per("lookup", traces), "us")
	lm.set("campaign.manifest_record.us_per_trace", lt.per("record", records), "us")
	lm.set("campaign.schedule_trace.us_per_trace", lt.per("schedule_trace", fresh), "us")
	lm.set("campaign.compile.us_per_trace", lt.per("compile", fresh), "us")
	lm.set("campaign.incremental_ratio", ratio(float64(hits), float64(hits+fresh)), "ratio")
	lm.set("campaign.dedup_hit_ratio", ratio(float64(dedupHits), float64(dedupHits+dedupMisses)), "ratio")
	var tally searchTally
	for _, w := range workers {
		tally.merge(w.tally)
	}
	if tally.blocks > 0 {
		tally.emit(lm)
	}
	c.logf("traced: %d programs, %d traces, %d hits, %d recompiled", programs, traces, hits, fresh)
	return nil
}
