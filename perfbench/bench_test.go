package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pipesched"
	"pipesched/internal/asm"
	"pipesched/internal/machine"
	"pipesched/internal/sim"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesLists keeps BENCHMARK.json and the metric
// lists the runner prints in step.
func TestBenchmarkFileMatchesLists(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, runner has %s", got, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, runner prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i := range bf.EndToEnd {
		if i < len(endToEnd) && (bf.EndToEnd[i].Name != endToEnd[i].name || bf.EndToEnd[i].Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end %d: BENCHMARK.json %v, runner %v", i, bf.EndToEnd[i], endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, runner prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i := range bf.PerLayer {
		if i < len(perLayer) && (bf.PerLayer[i].Name != perLayer[i].name || bf.PerLayer[i].Unit != perLayer[i].unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %v, runner %v", i, bf.PerLayer[i], perLayer[i])
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny scale,
// untraced and traced, and checks the last stdout line: exactly the
// listed metrics with their units, and no failure.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				wd := t.TempDir()
				code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.2", "--trace", trace,
					"--scale", "0.01", "--workdir", wd}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   *bool             `json:"correct"`
					Attempted *int              `json:"attempted"`
					Failed    *int              `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				last := lines[len(lines)-1]
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, last)
				}
				var keys map[string]json.RawMessage
				_ = json.Unmarshal([]byte(last), &keys)
				if len(keys) != 4 || res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
					t.Fatalf("result keys %v, want exactly correct, attempted, failed, metrics", keys)
				}
				if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", *res.Correct, *res.Attempted, *res.Failed, stderr.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not listed in BENCHMARK.json", name)
					}
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				} else {
					checkSpansFile(t, filepath.Join(wd, "spans", w+".jsonl"))
				}
			})
		}
	}
}

// compiledFor compiles src on the example machine in paper mode.
func compiledFor(t *testing.T, src string) (*pipesched.Compiled, *machine.Machine) {
	t.Helper()
	m := pipesched.ExampleMachine()
	c, err := pipesched.Compile(src, m, pipesched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDelivered(c, m, machine.SchedMode{}, src, []string{"a", "b", "c", "d", "e"}, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("untampered result fails the check: %v", err)
	}
	return c, m
}

const tamperSource = "a = b * c\nd = a + e\n"

// TestCheckerRejectsSwappedInstruction swaps the multiply with the first
// instruction that reads its result: the assembly check must fail.
func TestCheckerRejectsSwappedInstruction(t *testing.T) {
	c, m := compiledFor(t, tamperSource)
	p, err := asm.Parse(c.Assembly)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(c.Assembly, "\n")
	reads := func(in asm.Instr, r int) bool {
		return (!in.A.IsImm && in.A.Reg == r && in.Op != asm.LI && in.Op != asm.LOAD) ||
			(!in.B.IsImm && in.B.Reg == r && in.Op != asm.LI && in.Op != asm.LOAD && in.Op != asm.STORE && in.Op != asm.NEG)
	}
	swapped := false
	for i := 0; i < len(p.Instrs) && !swapped; i++ {
		prod := p.Instrs[i]
		if prod.Op != asm.MUL {
			continue
		}
		for j := i + 1; j < len(p.Instrs); j++ {
			if reads(p.Instrs[j], prod.Rd) {
				a, b := prod.Line-1, p.Instrs[j].Line-1
				lines[a], lines[b] = lines[b], lines[a]
				swapped = true
				break
			}
		}
	}
	if !swapped {
		t.Fatalf("no producer/consumer pair to swap in\n%s", c.Assembly)
	}
	c.Assembly = strings.Join(lines, "\n")
	err = checkDelivered(c, m, machine.SchedMode{}, tamperSource, []string{"a", "b", "c", "d", "e"}, rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatalf("checker accepted swapped assembly\n%s", c.Assembly)
	}
	t.Logf("rejected: %v", err)
}

// TestCheckerRejectsDecrementedEta removes one NOP from a schedule and
// its claimed cost: re-simulation must report a hazard.
func TestCheckerRejectsDecrementedEta(t *testing.T) {
	c, m := compiledFor(t, tamperSource)
	pos := -1
	for i, e := range c.Eta {
		if e > 0 {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatalf("schedule has no NOP to remove: eta %v", c.Eta)
	}
	eta := append([]int(nil), c.Eta...)
	eta[pos]--
	c.Eta = eta
	c.TotalNOPs--
	c.Ticks--
	err := checkDelivered(c, m, machine.SchedMode{}, tamperSource, []string{"a", "b", "c", "d", "e"}, rand.New(rand.NewSource(1)))
	var hz *sim.HazardError
	if !errors.As(err, &hz) {
		t.Fatalf("checker returned %v, want a hazard", err)
	}
	t.Logf("rejected: %v", err)
}

// checkSpansFile checks that a traced run wrote its spans: JSON lines
// naming a span, with an end no earlier than its start.
func checkSpansFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("traced run wrote no spans: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for i, line := range lines {
		var s struct {
			Name  string `json:"name"`
			Start int64  `json:"start_ns"`
			End   int64  `json:"end_ns"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil || s.Name == "" || s.End < s.Start {
			t.Fatalf("%s line %d: %q (%v)", path, i+1, line, err)
		}
	}
}
