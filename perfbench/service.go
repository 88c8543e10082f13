package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pipesched"
	"pipesched/internal/fleet/store"
	"pipesched/internal/machine"
	"pipesched/internal/server"
	"pipesched/internal/tuplegen"
)

// The service pool: servicePool distinct blocks on the simulation preset
// in paper mode, requested with Zipf popularity. Block i of the pinned
// corpus has popularity rank i; even ranks are sent as source and odd
// ranks as tuples, and all ranks but every tenth start in the durable
// tier, so the traffic mix is the same for every seed (the seed renames
// variables and draws the request sequence). The LRU holds the serve
// default of 1024 entries, so a run mixes memory hits, disk hits and
// misses that compile and write through. Misses are kept to a few
// hundred per run: each one fsyncs, and on a virtual disk fsync latency
// varies more from run to run than anything the program does.
const (
	servicePool     = 4000
	serviceZipfS    = 1.05
	serviceClients  = 2
	serviceRound    = 1000 // requests per round at full scale
	serviceSeqLen   = 1 << 20
	serviceCheckOne = 100 // check every 100th hit besides each key's first reply
)

// servicePoolSet is the generated traffic.
type servicePoolSet struct {
	bodies [][]byte
	reqs   []*server.Request
	refs   []func() (reference, error)
	seq    []int32 // pool index of each request, in issue order
	disk   []int   // pool indices written to the durable tier before start
	vars   []string
}

func makeServicePool(c *config) (*servicePoolSet, error) {
	n := c.scaled(servicePool, 200)
	srcs, rn, err := blockCorpus(n, c.Seed)
	if err != nil {
		return nil, err
	}
	ps := &servicePoolSet{vars: rn.all}
	for i, src := range srcs {
		if i%10 != 9 {
			ps.disk = append(ps.disk, i)
		}
		req := &server.Request{
			ID:      fmt.Sprintf("r%d", i),
			Machine: server.MachineSpec{Preset: "simulation"},
			Options: server.RequestOptions{Optimize: true},
		}
		src := src
		if i%2 == 0 {
			req.Source = src
			ps.refs = append(ps.refs, func() (reference, error) { return sourceReference(src) })
		} else {
			blk, err := tuplegen.Compile(src, "block")
			if err != nil {
				return nil, err
			}
			req.Tuples = blk.String()
			tuples := req.Tuples
			ps.refs = append(ps.refs, func() (reference, error) { return tupleReference(tuples) })
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		ps.reqs = append(ps.reqs, req)
		ps.bodies = append(ps.bodies, body)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(c.Seed)), serviceZipfS, 1, uint64(n-1))
	ps.seq = make([]int32, serviceSeqLen)
	for i := range ps.seq {
		ps.seq[i] = int32(z.Uint64())
	}
	return ps, nil
}

// serviceConfig is the server set up as `pipesched serve` runs it, with
// the durable tier in dir ("" for none).
func serviceConfig(dir string) server.Config {
	return server.Config{CacheDir: dir, Metrics: pipesched.ActiveTelemetry()}
}

// prefill compiles the durable-tier subset through a server writing
// through to dir, then drains it.
func prefill(ps *servicePoolSet, dir string) error {
	srv := server.New(serviceConfig(dir))
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make(chan error, serviceClients)
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ps.disk) {
					return
				}
				if _, err := srv.Submit(context.Background(), ps.reqs[ps.disk[i]]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	err := srv.Shutdown(context.Background())
	select {
	case e := <-errs:
		return e
	default:
	}
	return err
}

// coldPass sends one request for every pool key through the handler of
// a fresh server with an empty cache and no durable tier, from the
// closed-loop clients, and returns its wall time and failed replies.
func coldPass(ps *servicePoolSet) (float64, int) {
	srv := server.New(serviceConfig(""))
	defer srv.Close()
	h := srv.Handler()
	var next, fails atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rw := &recorderWriter{hdr: http.Header{}}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ps.bodies) {
					return
				}
				body := serveOne(h, rw, ps.bodies[k])
				if rw.code != http.StatusOK || !bytes.Contains(body, []byte(`"assembly"`)) {
					fails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds(), int(fails.Load())
}

// recorderWriter is a reusable in-memory http.ResponseWriter.
type recorderWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *recorderWriter) Header() http.Header { return w.hdr }
func (w *recorderWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *recorderWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}
func (w *recorderWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

var compileURL = &url.URL{Path: "/compile"}

// saved is one response body kept for checking after the window.
type saved struct {
	idx  int
	body []byte
}

// clientLog is what one closed-loop client records.
type clientLog struct {
	lats  []float64 // µs
	ends  []int64   // completion times, ns since window start
	kept  []saved
	fails int
	ops   int
}

func runService(c *config) (*outcome, error) {
	ps, err := makeServicePool(c)
	if err != nil {
		return nil, err
	}
	pm := pipesched.EnableTelemetry()
	defer pipesched.DisableTelemetry()
	pipesched.EnableTracing(pm, pipesched.TracerConfig{})
	defer pipesched.DisableTracing()

	out := &outcome{Metrics: metrics{}, Counters: map[string]int64{}}
	// Cold build: every pool key once through a fresh server with an
	// empty cache and no durable tier, so every request compiles; three
	// times, median reported.
	var colds []float64
	for i := 0; i < 3; i++ {
		settle()
		secs, fails := coldPass(ps)
		colds = append(colds, secs)
		out.Attempted += len(ps.bodies)
		out.Failed += fails
	}
	out.Metrics.set("cold_build_s", median(colds), "s")

	// Fill the durable tier. Its time is fsync-bound on a virtual disk,
	// so it is logged, not reported.
	dirA := filepath.Join(c.WorkDir, "cache")
	settle()
	t0 := time.Now()
	if err := prefill(ps, dirA); err != nil {
		return nil, fmt.Errorf("durable-tier fill: %w", err)
	}
	c.logf("durable tier filled with %d entries in %.2fs", len(ps.disk), time.Since(t0).Seconds())
	dirB := filepath.Join(c.WorkDir, "cache-traced")
	if c.Trace {
		if err := copyDir(dirA, dirB); err != nil {
			return nil, err
		}
	}

	// Set-up: server.New over the filled durable tier, recovery scan
	// included; repeated, and the last server is the one measured.
	var srv *server.Server
	var setups []float64
	settle()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.Close()
		}
		t0 := time.Now()
		srv = server.New(serviceConfig(dirA))
		setups = append(setups, time.Since(t0).Seconds())
		if err := srv.DiskErr(); err != nil {
			return nil, err
		}
	}
	out.Metrics.set("setup_s", median(setups), "s")
	c.logf("durable tier: %d entries recovered", srv.DiskRecovery().Recovered)

	settle()
	logs, a, b := driveService(c, ps, srv.Handler())
	var replies []reply
	seen := map[int]bool{}
	var kept []saved
	for _, l := range logs {
		out.Attempted += l.ops
		out.Failed += l.fails
		for i, e := range l.ends {
			replies = append(replies, reply{end: float64(e), us: l.lats[i]})
		}
		kept = append(kept, l.kept...)
	}
	out.Metrics.window(a, b, out.Attempted)
	size := c.scaled(serviceRound, 5)
	rounds, p50s, p99s := serviceRounds(replies, size)
	// Latency per request: each round's percentiles over its replies,
	// median over rounds, so a burst of host preemption that stalls a
	// few rounds does not move the run's tail.
	c.checkTail("latency_p99_us per round", size, 99)
	out.Metrics.set("latency_p50_us", median(p50s), "us")
	out.Metrics.set("latency_p99_us", median(p99s), "us")
	out.Metrics.set("round_p50_ms", median(rounds), "ms")
	out.Metrics.set("round_p90_ms", c.tail("round_p90_ms", rounds, 90), "ms")

	// Correctness, outside the window: each key's first reply and a
	// seeded sample of hits. Keys the window never reached are requested
	// once more afterwards, so NOPs and degraded counts cover the whole
	// pool and repeat exactly between runs.
	sort.Slice(kept, func(i, j int) bool { return kept[i].idx < kept[j].idx })
	m := machine.SimulationMachine()
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	h := srv.Handler()
	w := &recorderWriter{hdr: http.Header{}}
	nops, degraded := 0, 0
	check := func(k int, body []byte, label string) {
		wr, err := checkReply(srv, ps, k, body, m, rng)
		if err != nil {
			out.Failed++
			c.logf("%s (pool %d): %v", label, k, err)
			return
		}
		if seen[k] {
			return
		}
		seen[k] = true
		nops += wr.NOPs
		if wr.Quality != pipesched.Optimal.String() {
			degraded++
		}
	}
	for _, s := range kept {
		check(int(ps.seq[s.idx%len(ps.seq)]), s.body, fmt.Sprintf("request %d", s.idx))
	}
	reached := len(seen)
	for k := range ps.bodies {
		if !seen[k] {
			out.Attempted++
			check(k, serveOne(h, w, ps.bodies[k]), "pool completion")
		}
	}
	n := len(ps.bodies)
	out.Metrics.set("nops_per_block", float64(nops)/float64(n), "nops")
	out.Counters["nops"] = int64(nops)
	out.Counters["degraded"] = int64(degraded)
	c.logf("%d requests reached %d of %d keys; %d replies checked", out.Attempted, reached, n, len(kept))
	srv.Close()
	out.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")

	if !c.Trace {
		out.Metrics = complete(out.Metrics, endToEnd)
		return out, nil
	}
	lm := metrics{}
	lm.set("bench.degraded_ratio", float64(degraded)/float64(n), "ratio")
	if err := tracedService(c, ps, dirB, lm, out); err != nil {
		return nil, err
	}
	lm.set("bench.trace_overhead_ratio", 1-lm["traced_ops_per_s"].Value/out.Metrics["ops_per_s"].Value, "ratio")
	lm.set("bench.failed_ratio", float64(out.Failed)/float64(out.Attempted), "ratio")
	out.Metrics = complete(lm, perLayer)
	return out, nil
}

// driveService runs the closed-loop clients against h for the window.
func driveService(c *config, ps *servicePoolSet, h http.Handler) ([]*clientLog, snapshot, snapshot) {
	firsts := make([]atomic.Bool, len(ps.bodies))
	checkOffset := int(c.Seed % serviceCheckOne)
	logs := make([]*clientLog, serviceClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	minOps := int64(c.scaled(100*serviceRound, 1000)) // a hundred rounds, for round_p90_ms
	a := takeSnapshot()
	deadline := a.at.Add(time.Duration(c.Seconds * float64(time.Second)))
	for cl := range logs {
		l := &clientLog{}
		logs[cl] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &recorderWriter{hdr: http.Header{}}
			for {
				i := next.Add(1) - 1
				if i >= minOps && time.Now().After(deadline) {
					return
				}
				k := int(ps.seq[int(i)%len(ps.seq)])
				t0 := time.Now()
				body := serveOne(h, w, ps.bodies[k])
				end := time.Now()
				l.lats = append(l.lats, float64(end.Sub(t0).Nanoseconds())/1e3)
				l.ends = append(l.ends, int64(end.Sub(a.at)))
				l.ops++
				if w.code != http.StatusOK ||
					(bytes.Contains(body, []byte(`"error"`)) && !bytes.Contains(body, []byte(`"assembly"`))) {
					l.fails++
					continue
				}
				if firsts[k].CompareAndSwap(false, true) || int(i)%serviceCheckOne == checkOffset {
					l.kept = append(l.kept, saved{idx: int(i), body: bytes.Clone(body)})
				}
			}
		}()
	}
	wg.Wait()
	return logs, a, takeSnapshot()
}

// serveOne sends one /compile request through h in process and returns
// the reply body, valid until w is reused.
func serveOne(h http.Handler, w *recorderWriter, body []byte) []byte {
	w.reset()
	r := (&http.Request{
		Method: http.MethodPost, URL: compileURL, Host: "perfbench", Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}).WithContext(context.Background())
	h.ServeHTTP(w, r)
	return w.body.Bytes()
}

// reply is one request's completion time (ns into the window) and
// latency (µs).
type reply struct{ end, us float64 }

// serviceRounds splits replies into rounds of size consecutive
// completions and returns each round's wall time in milliseconds and
// the 50th and 99th percentiles of its latencies in microseconds.
func serviceRounds(replies []reply, size int) (ms, p50s, p99s []float64) {
	sort.Slice(replies, func(i, j int) bool { return replies[i].end < replies[j].end })
	lats := make([]float64, size)
	for lo := 0; lo+size < len(replies); lo += size {
		ms = append(ms, (replies[lo+size].end-replies[lo].end)/1e6)
		for i := range lats {
			lats[i] = replies[lo+i].us
		}
		p50s = append(p50s, percentile(lats, 50))
		p99s = append(p99s, percentile(lats, 99))
	}
	return ms, p50s, p99s
}

// checkReply verifies one wire reply: its assembly against the
// reference interpreter, and the schedule the server holds for the key
// (fetched again in process) by independent re-simulation.
func checkReply(srv *server.Server, ps *servicePoolSet, k int, body []byte, m *machine.Machine, rng *rand.Rand) (*server.WireResponse, error) {
	var w server.WireResponse
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, err
	}
	if w.Assembly == "" {
		return nil, fmt.Errorf("reply carries no assembly")
	}
	ref, err := ps.refs[k]()
	if err != nil {
		return nil, err
	}
	if err := checkAssembly(w.Assembly, ref, ps.vars, rng); err != nil {
		return nil, err
	}
	resp, err := srv.Submit(context.Background(), ps.reqs[k])
	if resp == nil || resp.Compiled == nil {
		return nil, fmt.Errorf("schedule not available again: %v", err)
	}
	if resp.Compiled.TotalNOPs != w.NOPs {
		return nil, fmt.Errorf("reply claims %d NOPs, the server's schedule has %d", w.NOPs, resp.Compiled.TotalNOPs)
	}
	if err := checkSchedule(resp.Compiled, m, machine.SchedMode{}); err != nil {
		return nil, fmt.Errorf("re-simulation: %w", err)
	}
	return &w, nil
}

func copyDir(from, to string) error {
	return filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		dst := filepath.Join(to, rel)
		if info.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, info.Mode())
	})
}

// tracedService drives a second server over a copy of the filled tier
// with the same request sequence, calling the request-path layers
// itself: decode → parse (tuples) → fingerprint → Submit → ToWire +
// encode. Submit repeats the parse and fingerprint internally; the
// standalone calls price that work.
func tracedService(c *config, ps *servicePoolSet, dir string, lm metrics, out *outcome) error {
	settle()
	t0 := time.Now()
	st, rep, err := store.Open(dir)
	if err != nil {
		return err
	}
	lm.set("store.recovery_s", time.Since(t0).Seconds(), "s")
	lm.set("store.entries", float64(st.Len()), "count")
	st.Close()
	c.logf("store recovery: %d recovered, %d quarantined", rep.Recovered, rep.Quarantined)

	srv := server.New(serviceConfig(dir))
	defer srv.Close()
	settle()
	origin := time.Now()
	deadline := origin.Add(time.Duration(c.Seconds * float64(time.Second)))
	minOps := int64(c.scaled(100*serviceRound, 1000)) // a hundred rounds, for round_p90_ms
	recs := make([]*recorder, serviceClients)
	tallies := make([]searchTally, serviceClients)
	var waits [serviceClients][]float64
	var class [serviceClients][5]int // hit_mem, hit_disk, miss, dedup, fast path
	var retries [serviceClients]int
	var tupleReqs [serviceClients]int
	var fails, ops [serviceClients]int
	var next atomic.Int64
	var wg sync.WaitGroup
	for cl := range recs {
		rec := newRecorder(origin, cl)
		recs[cl] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var buf bytes.Buffer
			for {
				i := next.Add(1) - 1
				if i >= minOps && time.Now().After(deadline) {
					return
				}
				k := int(ps.seq[int(i)%len(ps.seq)])
				ops[cl]++
				root := rec.begin("op", -1, i)
				s := rec.begin("decode", root, i)
				reqs, _, err := server.DecodeCompileBody(ps.bodies[k])
				rec.end(s)
				if err != nil || len(reqs) != 1 {
					fails[cl]++
					rec.end(root)
					continue
				}
				req := reqs[0]
				if req.Tuples != "" {
					tupleReqs[cl]++
					s = rec.begin("parse_tuples", root, i)
					_, err = pipesched.ParseBlock(req.Tuples)
					rec.end(s)
				}
				s = rec.begin("fingerprint", root, i)
				_, ferr := server.Fingerprint(req)
				rec.end(s)
				s = rec.begin("submit", root, i)
				resp, serr := srv.Submit(ctx, req)
				cls := 2
				switch {
				case resp == nil:
				case resp.DiskHit:
					cls = 1
				case resp.Cached:
					cls = 0
				case resp.Deduped:
					cls = 3
				}
				rec.endArg(s, int64(cls))
				s = rec.begin("encode", root, i)
				wire := server.ToWire(req.ID, resp, serr)
				buf.Reset()
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				eerr := enc.Encode(wire)
				rec.end(s)
				rec.end(root)
				if err != nil || ferr != nil || eerr != nil || resp == nil || resp.Compiled == nil {
					fails[cl]++
					continue
				}
				class[cl][cls]++
				if resp.FastPath {
					class[cl][4]++
				}
				retries[cl] += resp.Retries
				if cls == 2 {
					waits[cl] = append(waits[cl], float64(resp.Wait.Nanoseconds())/1e3)
					tallies[cl].add(resp.Compiled.Stats)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(origin)
	if err := writeSpans(c, recs); err != nil {
		return err
	}

	n := 0
	for _, o := range ops {
		n += o
	}
	out.Attempted += n
	var cls [5]int
	var allWaits []float64
	var tally searchTally
	ret, tuples := 0, 0
	for cl := range recs {
		out.Failed += fails[cl]
		for j := range cls {
			cls[j] += class[cl][j]
		}
		allWaits = append(allWaits, waits[cl]...)
		ret += retries[cl]
		tuples += tupleReqs[cl]
		tally.merge(tallies[cl])
	}
	lm.set("traced_ops_per_s", float64(n)/elapsed.Seconds(), "1/s")
	lt := selfTimes(recs)
	lm.set("server.decode.us_per_req", lt.per("decode", n), "us")
	lm.set("server.parse_tuples.us_per_req", lt.per("parse_tuples", tuples), "us")
	lm.set("server.fingerprint.us_per_req", lt.per("fingerprint", n), "us")
	lm.set("server.encode.us_per_req", lt.per("encode", n), "us")
	bySubmit := map[int64][]float64{}
	for _, s := range lt["submit"] {
		bySubmit[s.arg] = append(bySubmit[s.arg], s.us)
	}
	for j, name := range []string{"hit_mem", "hit_disk", "miss"} {
		if xs := bySubmit[int64(j)]; len(xs) > 0 {
			lm.set("server.submit.us."+name, sum(xs)/float64(len(xs)), "us")
		}
	}
	if len(allWaits) > 0 {
		lm.set("server.queue_wait.us_p50", median(allWaits), "us")
		lm.set("server.queue_wait.us_p99", c.tail("server.queue_wait.us_p99", allWaits, 99), "us")
	}
	for j, name := range []string{"hit_mem", "hit_disk", "miss", "dedup"} {
		lm.set("server."+name+"_ratio", float64(cls[j])/float64(n), "ratio")
	}
	lm.set("server.retries", float64(ret), "count")
	lm.set("server.fast_path", float64(cls[4]), "count")
	if tally.blocks > 0 {
		tally.emit(lm)
	}
	c.logf("traced: %d requests, mem %d disk %d miss %d dedup %d", n, cls[0], cls[1], cls[2], cls[3])

	// Allocation cost of the standalone parse and fingerprint calls, each
	// alone over a sample of the pool, on one goroutine once the server
	// has stopped.
	srv.Close()
	sample := ps.reqs[:min(len(ps.reqs), 400)]
	var tupleSrcs []string
	for _, req := range sample {
		if req.Tuples != "" {
			tupleSrcs = append(tupleSrcs, req.Tuples)
		}
	}
	_, pb := allocLoop(len(tupleSrcs), func(i int) { _, _ = pipesched.ParseBlock(tupleSrcs[i]) })
	_, fb := allocLoop(len(sample), func(i int) { _, _ = server.Fingerprint(sample[i]) })
	lm.set("server.parse_tuples.bytes_per_req", ratio(pb, float64(len(tupleSrcs))), "B")
	lm.set("server.fingerprint.bytes_per_req", ratio(fb, float64(len(sample))), "B")
	return nil
}
