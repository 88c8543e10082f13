package main

import (
	"runtime"

	"pipesched/internal/core"
)

// endToEnd lists the metrics a --trace 0 run prints, with their units.
// Every workload prints every one of them; BENCHMARK.json lists the same
// names (the self-test keeps the two in step).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"round_p50_ms", "ms"},
	{"round_p90_ms", "ms"},
	{"cold_build_s", "s"},
	{"nops_per_block", "nops"},
	{"cpu_us_per_op", "us"},
	{"alloc_bytes_per_op", "B"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints. A workload that
// never reaches a layer reports that layer's metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"frontend.us_per_block", "us"},
	{"frontend.allocs_per_block", "count"},
	{"opt.us_per_block", "us"},
	{"opt.tuples_out_ratio", "ratio"},
	{"dag.us_per_block", "us"},
	{"dag.edges_per_block", "count"},
	{"core.us_per_block", "us"},
	{"core.us_p99", "us"},
	{"core.nodes_expanded", "count"},
	{"core.ns_per_node", "ns"},
	{"core.allocs_per_block", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.prune.alphabeta", "count"},
	{"core.prune.bounds", "count"},
	{"core.prune.illegal", "count"},
	{"core.prune.equivalence", "count"},
	{"core.prune.strong", "count"},
	{"core.prune.lowerbound", "count"},
	{"core.prune.resource", "count"},
	{"core.prune.memo", "count"},
	{"core.prune.pressure", "count"},
	{"core.curtailed_blocks", "count"},
	{"core.us_per_block.le10", "us"},
	{"core.us_per_block.11_20", "us"},
	{"core.us_per_block.21_30", "us"},
	{"core.us_per_block.gt30", "us"},
	{"regalloc.us_per_block", "us"},
	{"regalloc.registers_per_block", "count"},
	{"codegen.us_per_block", "us"},
	{"codegen.asm_bytes_per_block", "B"},
	{"sim.us_per_block", "us"},
	{"server.decode.us_per_req", "us"},
	{"server.parse_tuples.us_per_req", "us"},
	{"server.parse_tuples.bytes_per_req", "B"},
	{"server.fingerprint.us_per_req", "us"},
	{"server.fingerprint.bytes_per_req", "B"},
	{"server.submit.us.hit_mem", "us"},
	{"server.submit.us.hit_disk", "us"},
	{"server.submit.us.miss", "us"},
	{"server.queue_wait.us_p50", "us"},
	{"server.queue_wait.us_p99", "us"},
	{"server.encode.us_per_req", "us"},
	{"server.hit_mem_ratio", "ratio"},
	{"server.hit_disk_ratio", "ratio"},
	{"server.miss_ratio", "ratio"},
	{"server.dedup_ratio", "ratio"},
	{"server.retries", "count"},
	{"server.fast_path", "count"},
	{"store.recovery_s", "s"},
	{"store.entries", "count"},
	{"campaign.parse.us_per_program", "us"},
	{"campaign.traces.us_per_program", "us"},
	{"campaign.manifest_lookup.us_per_trace", "us"},
	{"campaign.manifest_record.us_per_trace", "us"},
	{"campaign.schedule_trace.us_per_trace", "us"},
	{"campaign.compile.us_per_trace", "us"},
	{"campaign.traces_per_program", "count"},
	{"campaign.incremental_ratio", "ratio"},
	{"campaign.dedup_hit_ratio", "ratio"},
	{"campaign.nops_saved", "nops"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.degraded_ratio", "ratio"},
	{"bench.failed_ratio", "ratio"},
}

// complete fills every listed metric the workload did not set with 0,
// and drops anything not listed, so each run prints exactly the list.
func complete(m metrics, list []struct{ name, unit string }) metrics {
	out := metrics{}
	for _, e := range list {
		v, ok := m[e.name]
		if !ok {
			v = metric{Value: 0, Unit: e.unit}
		}
		v.Unit = e.unit
		out[e.name] = v
	}
	return out
}

// searchTally sums the search statistics core.Find returns.
type searchTally struct {
	blocks, nodes, curtailed int64
	memo                     int64
	prune                    map[string]int64
}

func (t *searchTally) add(st core.Stats) {
	if t.prune == nil {
		t.prune = map[string]int64{}
	}
	t.blocks++
	t.nodes += st.OmegaCalls
	t.memo += st.MemoHits
	if st.Curtailed {
		t.curtailed++
	}
	t.prune["alphabeta"] += st.PrunedAlphaBeta
	t.prune["bounds"] += st.PrunedBounds
	t.prune["illegal"] += st.PrunedIllegal
	t.prune["equivalence"] += st.PrunedEquivalence
	t.prune["strong"] += st.PrunedStrongEquiv
	t.prune["lowerbound"] += st.PrunedLowerBound
	t.prune["resource"] += st.PrunedResource
	t.prune["memo"] += st.MemoHits
	t.prune["pressure"] += st.PrunedPressure
}

func (t *searchTally) merge(o searchTally) {
	if t.prune == nil {
		t.prune = map[string]int64{}
	}
	t.blocks += o.blocks
	t.nodes += o.nodes
	t.memo += o.memo
	t.curtailed += o.curtailed
	for k, v := range o.prune {
		t.prune[k] += v
	}
}

func (t *searchTally) emit(m metrics) {
	m.set("core.nodes_expanded", float64(t.nodes), "count")
	m.set("core.memo_hit_ratio", ratio(float64(t.memo), float64(t.nodes)), "ratio")
	m.set("core.curtailed_blocks", float64(t.curtailed), "count")
	for k, v := range t.prune {
		m.set("core.prune."+k, float64(v), "count")
	}
}

// allocLoop calls f(i) for every i in [0, n) and returns the heap
// objects and bytes the loop allocated. MemStats is read only at the
// loop's two edges; reading it flushes every mcache, so the counts are
// exact, which per-call reads of the cumulative runtime/metrics counters
// are not (those credit a whole cached span to whichever call refills
// it). Run it on one goroutine with nothing else allocating.
func allocLoop(n int, f func(i int)) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// sizeBucket names the Figure 6 block-size bucket of a tuple count.
func sizeBucket(tuples int) string {
	switch {
	case tuples <= 10:
		return "le10"
	case tuples <= 20:
		return "11_20"
	case tuples <= 30:
		return "21_30"
	}
	return "gt30"
}
