package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"pipesched"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/regalloc"
	"pipesched/internal/telemetry"
)

// gobRoundTrip is the disk tier's previous codec, kept as the reference
// the binary codec must agree with.
func gobRoundTrip(t testing.TB, c *pipesched.Compiled) *pipesched.Compiled {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out pipesched.Compiled
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return &out
}

// compileFor runs req through the same resolution and pipeline entry
// points as a server worker, and fails unless the result is cacheable.
func compileFor(t testing.TB, req *Request) *pipesched.Compiled {
	t.Helper()
	m, _, err := resolveMachine(req.Machine)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := resolveOptions(req.Options)
	if err != nil {
		t.Fatal(err)
	}
	var c *pipesched.Compiled
	if req.Tuples != "" {
		blk, perr := pipesched.ParseBlock(req.Tuples)
		if perr != nil {
			t.Fatal(perr)
		}
		c, err = pipesched.ScheduleCtx(context.Background(), blk, m, opts)
	} else {
		c, err = pipesched.CompileCtx(context.Background(), req.Source, m, opts)
	}
	if !cacheable(&Response{Compiled: c, Err: err}) {
		t.Fatalf("%+v: result not cacheable (err %v)", req.Options, err)
	}
	return c
}

// codecRequests covers every scheduler mode the service exposes under
// every interlock mode, for source and tuple input, plus the options
// that add fields to a result (NOP explanations, pipeline assignment,
// a register bound, optimization).
func codecRequests() []*Request {
	var reqs []*Request
	for _, sched := range []string{"paper", "minreg-lex", "minreg-k=3", "scoreboard=8x2"} {
		for _, mode := range []string{"nop", "explicit", "implicit", "tera"} {
			opts := RequestOptions{Sched: sched, Mode: mode}
			reqs = append(reqs,
				&Request{Tuples: tupleBlock(3), Machine: MachineSpec{Preset: "simulation"}, Options: opts},
				&Request{Source: "b = 15\na = b * a\nc = a + b\nd = c * a\n", Machine: MachineSpec{Preset: "simulation"}, Options: opts})
		}
	}
	reqs = append(reqs,
		&Request{Source: "x = a * b + c * d\ny = x - a\n", Machine: MachineSpec{Preset: "example"},
			Options: RequestOptions{ExplainNOPs: true, AssignPipelines: true, Optimize: true}},
		&Request{Tuples: chainTuples(6), Machine: MachineSpec{Preset: "deep"},
			Options: RequestOptions{Registers: 4, Reassociate: true}})
	return reqs
}

// TestDiskCodecMatchesGob: for every cacheable result shape, the binary
// codec decodes to exactly what the gob tier used to return, and
// re-encoding the decoded value reproduces the payload byte for byte.
func TestDiskCodecMatchesGob(t *testing.T) {
	for _, req := range codecRequests() {
		c := compileFor(t, req)
		payload, err := encodeCompiled(c)
		if err != nil {
			t.Fatalf("%+v: encode: %v", req.Options, err)
		}
		got, err := decodeCompiled(payload)
		if err != nil {
			t.Fatalf("%+v: decode: %v", req.Options, err)
		}
		if want := gobRoundTrip(t, c); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: binary round trip differs from gob:\n got %+v\nwant %+v", req.Options, got, want)
		}
		again, err := encodeCompiled(got)
		if err != nil || !bytes.Equal(again, payload) {
			t.Errorf("%+v: re-encoding the decoded result changed the payload (err %v)", req.Options, err)
		}
	}
}

// TestDiskCodecCoversEveryField fails when a type the codec encodes
// gains or loses a field: the codec must then be extended and
// diskVersion bumped, or entries would silently drop the new field.
func TestDiskCodecCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		v      any
		fields int
	}{
		{pipesched.Compiled{}, 20},
		{ir.Block{}, 3}, // Label, Tuples, and the unexported index
		{ir.Tuple{}, 4},
		{ir.Operand{}, 4},
		{machine.SchedMode{}, 4},
		{regalloc.Assignment{}, 3},
		{pipesched.SearchStats{}, 15},
	} {
		typ := reflect.TypeOf(tc.v)
		if n := typ.NumField(); n != tc.fields {
			t.Errorf("%s has %d fields, the disk codec knows %d: extend diskcodec.go and bump diskVersion", typ, n, tc.fields)
		}
	}
}

// TestDiskCodecRejects: wrong magic, an unknown version, truncation,
// trailing bytes, a non-minimal varint and a result with faults are all
// refused.
func TestDiskCodecRejects(t *testing.T) {
	payload, err := encodeCompiled(compileFor(t, tupleRequest(1)))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), payload...)) }
	bad := map[string][]byte{
		"empty":     nil,
		"magic":     mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"version":   mutate(func(b []byte) []byte { b[len(diskMagic)] = diskVersion + 1; return b }),
		"truncated": payload[:len(payload)-1],
		"trailing":  mutate(func(b []byte) []byte { return append(b, 0) }),
		// Source is "" for a tuple request: its length varint 0x00
		// rewritten as the two-byte 0x80 0x00.
		"non-minimal": mutate(func(b []byte) []byte {
			h := len(diskMagic) + 1
			return append(append(b[:h:h], 0x80, 0x00), b[h+1:]...)
		}),
	}
	for name, p := range bad {
		if c, err := decodeCompiled(p); err == nil || !errors.Is(err, errDiskFormat) {
			t.Errorf("%s: decode = %v, %v; want errDiskFormat", name, c, err)
		}
	}
	faulty := compileFor(t, tupleRequest(1))
	faulty.Faults = []*pipesched.StageError{{Stage: "search"}}
	if _, err := encodeCompiled(faulty); !errors.Is(err, errDiskFaults) {
		t.Errorf("encode with faults = %v, want errDiskFaults", err)
	}
}

// TestDiskTierGobEntriesAreMisses: a tier left behind by the gob codec
// serves every request as a miss — compiled afresh, never an error —
// drops and counts each old entry, and writes the new format in its
// place.
func TestDiskTierGobEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CacheDir = dir
	const n = 4
	s1 := New(cfg)
	for i := 0; i < n; i++ {
		req := tupleRequest(i)
		key, err := Fingerprint(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(compileFor(t, req)); err != nil {
			t.Fatal(err)
		}
		if err := s1.DiskStore().Put(key, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()

	cfg.Metrics = telemetry.NewMetrics(telemetry.NewRegistry())
	s2 := New(cfg)
	t.Cleanup(s2.Close)
	for i := 0; i < n; i++ {
		resp, err := s2.Submit(context.Background(), tupleRequest(i))
		if err != nil {
			t.Fatalf("submit %d over a gob entry: %v", i, err)
		}
		if resp.Cached || resp.DiskHit || resp.Compiled == nil {
			t.Fatalf("submit %d: Cached=%v DiskHit=%v, want a fresh compile", i, resp.Cached, resp.DiskHit)
		}
	}
	if got := s2.met.diskQuarantined.Value(); got != n {
		t.Errorf("quarantined counter = %d, want %d", got, n)
	}
	if got := s2.met.diskHits.Value(); got != 0 {
		t.Errorf("disk hits = %d, want 0", got)
	}
	// The fresh compiles wrote through in the new format: a third
	// incarnation serves them from disk.
	s2.Close()
	cfg.Metrics = telemetry.NewMetrics(telemetry.NewRegistry())
	s3 := New(cfg)
	t.Cleanup(s3.Close)
	for i := 0; i < n; i++ {
		resp, err := s3.Submit(context.Background(), tupleRequest(i))
		if err != nil || !resp.DiskHit {
			t.Fatalf("submit %d after rewrite: DiskHit=%v err=%v, want a disk hit", i, resp != nil && resp.DiskHit, err)
		}
	}
}

// FuzzDiskEntry: the decoder never panics on arbitrary bytes, and any
// payload it accepts re-encodes to exactly the same bytes.
func FuzzDiskEntry(f *testing.F) {
	for _, req := range codecRequests()[:4] {
		payload, err := encodeCompiled(compileFor(f, req))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(compileFor(f, tupleRequest(1))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(diskMagic))
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := decodeCompiled(payload)
		if err != nil {
			return
		}
		again, err := encodeCompiled(c)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", payload, again)
		}
	})
}
