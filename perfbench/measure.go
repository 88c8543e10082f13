package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// settle runs before every timed section: it flushes dirty file data
// (this run's set-up writes, an earlier run's cleanup) and collects
// garbage, so kernel writeback and the collector's backlog fall outside
// the section instead of into whichever run happens to follow.
func settle() {
	syscall.Sync()
	runtime.GC()
}

// snapshot is the process state read at one edge of a timing window.
// Nothing is read inside the window: MemStats stops the world.
type snapshot struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{at: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window sets the per-operation cost metrics for ops operations done
// between a and b.
func (m metrics) window(a, b snapshot, ops int) {
	n := float64(ops)
	m.set("ops_per_s", n/b.at.Sub(a.at).Seconds(), "1/s")
	m.set("cpu_us_per_op", float64((b.cpu-a.cpu).Microseconds())/n, "us")
	m.set("alloc_bytes_per_op", float64(b.alloc-a.alloc)/n, "B")
	m.set("allocs_per_op", float64(b.mallocs-a.mallocs)/n, "count")
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail returns the p-th percentile of xs after checkTail has logged its
// sample count.
func (c *config) tail(name string, xs []float64, p float64) float64 {
	c.checkTail(name, len(xs), p)
	return percentile(xs, p)
}

// checkTail logs how many samples a p-th percentile is taken from,
// warning when fewer than ten lie beyond it (the workloads' work floors
// rule that out at full scale).
func (c *config) checkTail(name string, n int, p float64) {
	beyond := float64(n) * (100 - p) / 100
	if beyond < 10 {
		c.logf("warning: %s from %d samples has only %.1f beyond it", name, n, beyond)
	} else {
		c.logf("%s from %d samples", name, n)
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
