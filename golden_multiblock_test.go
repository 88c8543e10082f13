package pipesched_test

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pipesched"
	"pipesched/internal/campaign"
	"pipesched/internal/faultinject"
	"pipesched/internal/ir"
)

var updateMultiBlock = flag.Bool("update", false, "rewrite testdata/multiblock_golden.txt from the current multi-block paths")

const multiBlockGoldenPath = "testdata/multiblock_golden.txt"

// multiBlockCase is one condition every multi-block entry point runs
// under: a clean run, a λ forced by the fault injector, a deadline that
// has already passed, and a fault at the search or DAG stage boundary.
type multiBlockCase struct {
	name     string
	plan     *faultinject.Injector
	deadline bool
}

func multiBlockCases() []multiBlockCase {
	return []multiBlockCase{
		{name: "clean"},
		{name: "curtail", plan: faultinject.New().Plan(faultinject.Search, faultinject.Plan{CurtailLambda: 5})},
		{name: "deadline", deadline: true},
		{name: "search-fault", plan: faultinject.New().Plan(faultinject.Search, faultinject.Plan{PanicValue: "golden-search"})},
		{name: "dag-fault", plan: faultinject.New().Plan(faultinject.DAG, faultinject.Plan{PanicValue: "golden-dag"})},
	}
}

// goldenBlock parses a tuple block or fails the test.
func goldenBlock(t *testing.T, text string) *ir.Block {
	t.Helper()
	b, err := pipesched.ParseBlock(text)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenChain is one long multiply chain: its seed meets the root bound.
func goldenChain(tuples int) *ir.Block {
	b := ir.NewBlock("chain")
	x := b.Append(ir.Load, ir.Var("x"), ir.None())
	prev := b.Append(ir.Mul, ir.Ref(x), ir.Ref(x))
	for b.Len() < tuples {
		ld := b.Append(ir.Load, ir.Var("x"), ir.None())
		prev = b.Append(ir.Mul, ir.Ref(prev), ir.Ref(ld))
	}
	return b
}

// goldenTangle is independent load/multiply/add/store units: a loose root
// bound with a seed that still pays NOPs.
func goldenTangle(units int) *ir.Block {
	b := ir.NewBlock("tangle")
	for i := 0; i < units; i++ {
		a := b.Append(ir.Load, ir.Var(fmt.Sprintf("a%d", i)), ir.None())
		c := b.Append(ir.Load, ir.Var(fmt.Sprintf("b%d", i)), ir.None())
		m := b.Append(ir.Mul, ir.Ref(a), ir.Ref(c))
		d := b.Append(ir.Add, ir.Ref(m), ir.Ref(a))
		b.Append(ir.Store, ir.Var(fmt.Sprintf("z%d", i)), ir.Ref(d))
	}
	return b
}

// goldenErr classifies an entry point's error.
func goldenErr(err error) string {
	var se *pipesched.StageError
	switch {
	case err == nil:
		return "-"
	case errors.Is(err, pipesched.ErrCurtailed):
		return "curtailed"
	case errors.Is(err, pipesched.ErrDeadline):
		return "deadline"
	case errors.Is(err, pipesched.ErrCanceled):
		return "canceled"
	case errors.Is(err, pipesched.ErrModeUnsupported):
		return "mode-unsupported"
	case errors.As(err, &se):
		return "stage:" + se.Stage
	}
	return "other:" + err.Error()
}

// goldenCompiled renders one block's result: the schedule, its cost and
// certificate, the search counters, the recovered faults and a hash of
// the emitted assembly.
func goldenCompiled(c *pipesched.Compiled) string {
	if c == nil {
		return "nil"
	}
	st := c.Stats
	var stages []string
	for _, f := range c.Faults {
		stages = append(stages, f.Stage)
	}
	h := fnv.New64a()
	h.Write([]byte(c.Assembly))
	return fmt.Sprintf("order=%v eta=%v pipes=%v nops=%d ticks=%d q=%s gap=%d rootlb=%d init=%d live=%d "+
		"stats=%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%v faults=%v asm=%016x",
		c.Order, c.Eta, c.Pipes, c.TotalNOPs, c.Ticks, c.Quality, c.Gap, c.RootLB, c.InitialNOPs, c.MaxLive,
		st.OmegaCalls, st.SeedOmegaCalls, st.SchedulesExamined, st.Improvements,
		st.PrunedBounds, st.PrunedIllegal, st.PrunedEquivalence, st.PrunedStrongEquiv,
		st.PrunedAlphaBeta, st.PrunedLowerBound, st.PrunedResource, st.PrunedPressure,
		st.MemoHits, st.Curtailed, stages, h.Sum64())
}

// goldenSequence renders a sequence result as a summary record followed
// by one record per block.
func goldenSequence(key string, r *pipesched.SequenceResult, err error) []string {
	if r == nil {
		return []string{fmt.Sprintf("%s err=%s nil", key, goldenErr(err))}
	}
	out := []string{fmt.Sprintf("%s err=%s nops=%d ticks=%d optimal=%v q=%s blocks=%d",
		key, goldenErr(err), r.TotalNOPs, r.TotalTicks, r.Optimal, r.Quality, len(r.Blocks))}
	for i, c := range r.Blocks {
		out = append(out, fmt.Sprintf("%s/%d %s", key, i, goldenCompiled(c)))
	}
	return out
}

// TestGoldenMultiBlock pins every multi-block path — threaded sequences
// (ScheduleSequenceCtx, CompileSequenceCtx), the section 5.3 windowed
// splitter (ScheduleLargeCtx) and campaign traces (ScheduleTrace) — on
// every rung of the degradation ladder, under every delay mode and in a
// register-pressure scheduler mode. Any refactoring of these paths must
// leave this file unchanged; a deliberate behaviour change regenerates it
// with -update and shows the difference in review.
func TestGoldenMultiBlock(t *testing.T) {
	m := pipesched.SimulationMachine()

	srcNames, err := filepath.Glob("examples/kernels/programs/*.psrc")
	if err != nil || len(srcNames) == 0 {
		t.Fatalf("kernel programs: %v (%d found)", err, len(srcNames))
	}
	sort.Strings(srcNames)
	type program struct {
		name, src string
		g         *campaign.Graph
	}
	var programs []program
	for _, path := range srcNames {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".psrc")
		g, err := campaign.ParseProgram(name, string(raw), false)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{name, string(raw), g})
	}

	sequences := map[string][]*ir.Block{}
	var seqNames []string
	large := map[string]*ir.Block{"chain": goldenChain(24), "tangle": goldenTangle(10)}
	largeNames := []string{"chain", "tangle"}
	for _, p := range programs {
		var blocks []*ir.Block
		for _, b := range p.g.Blocks {
			blocks = append(blocks, b.IR)
		}
		sequences[p.name] = blocks
		seqNames = append(seqNames, p.name)
		whole, err := ir.Concat(p.name, blocks...)
		if err != nil {
			t.Fatal(err)
		}
		large[p.name] = whole
		largeNames = append(largeNames, p.name)
	}
	sequences["tests"] = []*ir.Block{
		goldenChain(9),
		goldenTangle(3),
		goldenBlock(t, "b0:\n  1: Load #a\n  2: Load #b\n  3: Mul @1, @2\n  4: Store #c, @3"),
		goldenBlock(t, "b1:\n  1: Load #x\n  2: Load #y\n  3: Mul @1, @2\n  4: Mul @3, @1\n  5: Store #a, @4"),
	}
	seqNames = append(seqNames, "tests")

	type variant struct {
		name string
		o    pipesched.Options
	}
	variants := []variant{
		{"nop", pipesched.Options{}},
		{"explain", pipesched.Options{ExplainNOPs: true}},
		{"tera", pipesched.Options{Mode: pipesched.TeraInterlock}},
		{"minreg", pipesched.Options{Sched: pipesched.MinRegLex()}},
	}

	var lines []string
	for _, tc := range multiBlockCases() {
		for _, v := range variants {
			func() {
				ctx := context.Background()
				if tc.deadline {
					var cancel context.CancelFunc
					ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
					defer cancel()
				}
				if tc.plan != nil {
					defer faultinject.Activate(tc.plan)()
				}
				prefix := tc.name + "/" + v.name
				for _, name := range seqNames {
					r, err := pipesched.ScheduleSequenceCtx(ctx, sequences[name], m, v.o)
					lines = append(lines, goldenSequence(prefix+"/seq/"+name, r, err)...)
				}
				for _, p := range programs {
					r, err := pipesched.CompileSequenceCtx(ctx, p.src, m, v.o)
					lines = append(lines, goldenSequence(prefix+"/compileseq/"+p.name, r, err)...)
				}
				for _, name := range largeNames {
					for _, w := range []int{5, 10, 20} {
						c, err := pipesched.ScheduleLargeCtx(ctx, large[name], m, w, v.o)
						lines = append(lines, fmt.Sprintf("%s/large/%s/w%d err=%s %s",
							prefix, name, w, goldenErr(err), goldenCompiled(c)))
					}
				}
				comp := &campaign.LocalCompiler{M: m, Options: v.o}
				for _, p := range programs {
					for _, tr := range p.g.Traces() {
						res, err := campaign.ScheduleTrace(ctx, tr, m, v.o.Sched, comp)
						key := prefix + "/trace/" + p.name + "/" + tr.Name()
						if err != nil {
							lines = append(lines, fmt.Sprintf("%s err=%s", key, goldenErr(err)))
							continue
						}
						lines = append(lines, fmt.Sprintf("%s blocks=%d tuples=%d cold=%d baseline=%d merged=%d delivered=%d used-merged=%v optimal=%v order=%v eta=%v pipes=%v",
							key, res.Blocks, res.Tuples, res.ColdNOPs, res.BaselineNOPs, res.MergedNOPs,
							res.DeliveredNOPs, res.UsedMerged, res.Optimal, res.Order, res.Eta, res.Pipes))
					}
				}
			}()
		}
	}

	if *updateMultiBlock {
		if err := os.MkdirAll(filepath.Dir(multiBlockGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(multiBlockGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(multiBlockGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d records, the multi-block paths produced %d", len(want), len(lines))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("record %d differs\n got: %s\nwant: %s", i, lines[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d differing records in total", bad)
	}
}
