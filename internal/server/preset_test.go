package server

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"pipesched/internal/machine"
)

// TestSharedPresetConcurrentCompile: every request naming a preset gets
// the same *Machine. Eight goroutines compile on it at once, cache off,
// across scheduler modes and pipeline assignment; run under -race this
// proves no stage writes to a shared machine. Each result must match a
// compile on a private machine, and the shared machine must still equal
// a freshly built one afterwards.
func TestSharedPresetConcurrentCompile(t *testing.T) {
	const preset = "example"
	cfg := testConfig()
	cfg.Workers = 8
	cfg.QueueDepth = 64
	cfg.CacheEntries = -1
	s := newTestServer(t, cfg)

	var reqs []*Request
	for i, sched := range []string{"", "minreg-lex", "minreg-k=3", "scoreboard=4x2"} {
		for n := 0; n < 4; n++ {
			reqs = append(reqs, &Request{
				Tuples:  tupleBlock(10*i + n),
				Machine: MachineSpec{Preset: preset},
				// The scoreboard search has fixed pipeline bindings.
				Options: RequestOptions{Sched: sched, AssignPipelines: n%2 == 1 && sched != "scoreboard=4x2"},
			})
		}
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		private := *req
		private.Machine = MachineSpec{Text: machine.Presets()[preset]().String()}
		resp, err := s.Submit(context.Background(), &private)
		if err != nil {
			t.Fatalf("private-machine compile %d: %v", i, err)
		}
		want[i] = resp.Compiled.Assembly
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + g) % len(reqs)
				resp, err := s.Submit(context.Background(), reqs[i])
				if err != nil {
					t.Errorf("goroutine %d, request %d: %v", g, i, err)
					return
				}
				if resp.Cached || resp.Compiled.Assembly != want[i] {
					t.Errorf("goroutine %d, request %d: Cached=%v, assembly differs from a private-machine compile", g, i, resp.Cached)
				}
			}
		}(g)
	}
	wg.Wait()

	shared := presetMachines[preset]
	fresh := machine.Presets()[preset]()
	if !reflect.DeepEqual(shared.m, fresh) || shared.key != fresh.String() {
		t.Errorf("shared %s preset changed under concurrent compiles", preset)
	}
}
