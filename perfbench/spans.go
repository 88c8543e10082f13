package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the same recorder; -1 for a root
	Op     int64  `json:"op"`     // operation ID shared by one operation's spans
	Arg    int64  `json:"arg"`    // per-span attribute (tuple count, cache class, ...)
}

// recorder keeps one client's spans in memory. Each client goroutine
// owns its recorder, so recording takes no lock.
type recorder struct {
	origin time.Time
	client int
	spans  []span
}

func newRecorder(origin time.Time, client int) *recorder {
	return &recorder{origin: origin, client: client, spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int32, op int64) int32 {
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.origin)), Parent: parent, Op: op})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) { r.spans[i].End = int64(time.Since(r.origin)) }

// endArg closes span i and records its attribute.
func (r *recorder) endArg(i int32, arg int64) {
	r.end(i)
	r.spans[i].Arg = arg
}

// layerTimes is the self time of every span, grouped by span name.
type layerTimes map[string][]selfSample

type selfSample struct {
	us  float64 // self time: duration minus the time its children cover
	arg int64
	op  int64
}

// selfTimes computes every span's self time. Children always follow
// their parent in a recorder, so one pass accumulates child durations.
func selfTimes(recs []*recorder) layerTimes {
	out := layerTimes{}
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for i := len(r.spans) - 1; i >= 0; i-- {
			if p := r.spans[i].Parent; p >= 0 {
				child[p] += r.spans[i].End - r.spans[i].Start
			}
		}
		for i, s := range r.spans {
			self := s.End - s.Start - child[i]
			out[s.Name] = append(out[s.Name], selfSample{us: float64(self) / 1e3, arg: s.Arg, op: s.Op})
		}
	}
	return out
}

// total is the summed self time of name, in microseconds.
func (lt layerTimes) total(name string) float64 {
	t := 0.0
	for _, s := range lt[name] {
		t += s.us
	}
	return t
}

// per is the summed self time of name divided by n.
func (lt layerTimes) per(name string, n int) float64 { return ratio(lt.total(name), float64(n)) }

// samples lists name's self times.
func (lt layerTimes) samples(name string) []float64 {
	xs := make([]float64, len(lt[name]))
	for i, s := range lt[name] {
		xs[i] = s.us
	}
	return xs
}

// writeSpans writes every span as one JSON line to c.SpansOut, once,
// after the traced run.
func writeSpans(c *config, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(c.SpansOut), 0o755); err != nil {
		return err
	}
	f, err := os.Create(c.SpansOut)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{r.client, s}); err != nil {
				f.Close()
				return err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	c.logf("%d spans written to %s", n, c.SpansOut)
	return nil
}
