package core

import (
	"runtime"
	"sync"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
)

// FindParallel runs the branch-and-bound search with the first-level
// subtrees fanned out across workers. Every worker prunes against a
// shared atomic incumbent, so a cheap schedule found in one subtree
// immediately tightens α–β everywhere — parallel branch-and-bound in the
// classic style.
//
// The returned cost and the optimality verdict are deterministic (the
// search space is fixed; only its traversal interleaves), but WHICH
// optimal schedule is returned may differ between runs and from Find
// when several optima exist, and the Ω-call total varies with timing.
// Options.Trace is honored: SearchTrace is mutex-guarded, so worker
// events interleave (in nondeterministic order) but never race.
// workers <= 0 selects GOMAXPROCS.
//
// All scheduler modes are supported: FindParallel runs the same kernel,
// cost models and seeding as Find. The kernel's candidate filter picks
// the depth-0 candidates once; each survivor roots one subtree, and the
// incumbent comparisons use the mode's packed cost (NOPs, stalls, or
// lexicographic (NOPs, MAXLIVE)).
//
// Each worker owns one searcher — its own cost model, hence its own
// bound engine and dominance table — for its lifetime, so no counter or
// table access crosses goroutines. Cross-subtree dominance within a
// worker is sound because the shared incumbent only tightens over time.
// Per-worker Stats are folded into the aggregate exactly once, after the
// WaitGroup barrier.
func FindParallel(g *dag.Graph, m *machine.Machine, opts Options, workers int) (*Schedule, error) {
	s, err := setup(g, m, opts)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return emptySchedule(opts.Sched), nil
	}
	if !s.needsSearch() {
		return s.finish(s)
	}

	s.collectRoots = true
	s.dfs(0)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.roots) {
		workers = len(s.roots)
	}
	s.shared = &sharedBound{lambda: opts.Lambda}
	s.shared.best.Store(s.bestCost)
	ws := make([]*searcher, workers)
	for w := range ws {
		if ws[w], err = newSearcher(g, m, opts, s.perm); err != nil {
			return nil, err
		}
		ws[w].shared, ws[w].worker = s.shared, w
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *searcher) {
			defer wg.Done()
			for root := range jobs {
				if w.certifies && w.bound() <= w.rootCost {
					// A sibling already proved the incumbent optimal;
					// remaining subtrees cannot improve on it.
					continue
				}
				// Move the candidate to the front of Π and search its
				// subtree.
				copy(w.perm, s.perm)
				for k, u := range w.perm {
					if u == root {
						w.perm[0], w.perm[k] = u, w.perm[0]
						break
					}
				}
				w.place(0, root)
			}
		}(w)
	}
	for _, root := range s.roots {
		jobs <- root
	}
	close(jobs)
	wg.Wait()

	best := s
	for _, w := range ws {
		s.stats.add(w.stats)
		s.curtail = s.curtail || w.curtail
		// Prefer a context stop reason over the λ budget: a deadline or
		// cancellation in any worker is the caller-visible cause.
		if w.stopErr != nil && (s.stopErr == nil || s.stopErr == ErrBudget) {
			s.stopErr = w.stopErr
		}
		if w.bestCost < best.bestCost {
			best = w
		}
	}
	return s.finish(best)
}
