package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"

	"pipesched"
	"pipesched/internal/asm"
	"pipesched/internal/dag"
	"pipesched/internal/frontend"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/sim"
)

// renamer maps the generators' variable names (v0, v1, ...) onto
// seed-chosen names, so each seed sends different text (different
// cache keys, different fingerprints) over the same block structure.
type renamer struct {
	names map[string]string
	all   []string // every renamed variable, for seeding memory images
}

var genVar = regexp.MustCompile(`\bv[0-9]+\b`)

func newRenamer(seed int64, vars int) *renamer {
	rng := rand.New(rand.NewSource(seed))
	const letters = "acdefghkmnpqrstwxyz" // no b (block names) and no v
	prefix := string(letters[rng.Intn(len(letters))]) + string(letters[rng.Intn(len(letters))])
	perm := rng.Perm(vars)
	r := &renamer{names: map[string]string{}}
	for i := 0; i < vars; i++ {
		name := prefix + strconv.Itoa(perm[i])
		r.names["v"+strconv.Itoa(i)] = name
		r.all = append(r.all, name)
	}
	return r
}

func (r *renamer) apply(src string) string {
	return genVar.ReplaceAllStringFunc(src, func(v string) string {
		if n, ok := r.names[v]; ok {
			return n
		}
		return v
	})
}

// reference evaluates a block's meaning over env, mutating it.
type reference func(env map[string]int64) error

func sourceReference(src string) (reference, error) {
	prog, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	return prog.Eval, nil
}

func tupleReference(tuples string) (reference, error) {
	b, err := ir.ParseBlock(tuples)
	if err != nil {
		return nil, err
	}
	return func(env map[string]int64) error {
		_, err := ir.Exec(b, ir.Env(env))
		return err
	}, nil
}

// checkAssembly runs the emitted assembly on seeded memory images and
// compares the final memory with the reference interpreter's. Images
// on which the reference itself traps (division by zero) are skipped;
// two clean comparisons are required when any image is usable.
func checkAssembly(text string, ref reference, vars []string, rng *rand.Rand) error {
	compared := 0
	for attempt := 0; attempt < 6 && compared < 2; attempt++ {
		mem := make(map[string]int64, len(vars))
		for _, v := range vars {
			mem[v] = int64(rng.Intn(199) - 99)
		}
		want := make(map[string]int64, len(mem))
		for k, v := range mem {
			want[k] = v
		}
		if err := ref(want); err != nil {
			continue
		}
		got, err := asm.Run(text, mem)
		if err != nil {
			return fmt.Errorf("assembly does not run: %w", err)
		}
		for k, v := range want {
			if got[k] != v {
				return fmt.Errorf("assembly leaves %s = %d, reference %d", k, got[k], v)
			}
		}
		for k, v := range got {
			if _, ok := want[k]; !ok && v != 0 {
				return fmt.Errorf("assembly writes %s = %d, reference leaves it unset", k, v)
			}
		}
		compared++
	}
	return nil
}

// checkSchedule re-simulates a delivered schedule independently: the
// in-order NOP-padding simulation for NOP-padded schedules, the window
// replay for search-produced scoreboard schedules. The simulated cost
// must equal the claimed one.
func checkSchedule(c *pipesched.Compiled, m *machine.Machine, mode machine.SchedMode) error {
	if c == nil || c.Original == nil {
		return fmt.Errorf("no schedule delivered")
	}
	g, err := dag.Build(c.Original)
	if err != nil {
		return err
	}
	in := sim.Input{Graph: g, M: m, Order: c.Order, Eta: c.Eta, Pipes: c.Pipes}
	if mode.Kind == machine.SchedScoreboard && c.IssueTicks != nil {
		return sim.VerifyScoreboard(sim.ScoreboardInput{Input: in, Window: mode.Window, Width: mode.Width},
			c.IssueTicks, c.TotalNOPs)
	}
	tr, err := sim.Run(in, sim.NOPPadding)
	if err != nil {
		return err
	}
	if tr.Delays != c.TotalNOPs || tr.TotalTicks != c.Ticks {
		return fmt.Errorf("schedule claims %d NOPs / %d ticks, simulates to %d / %d",
			c.TotalNOPs, c.Ticks, tr.Delays, tr.TotalTicks)
	}
	return nil
}
