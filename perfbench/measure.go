package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a named metric with the unit its definition gives it.
func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{v, unitOf[name]}
}

// quantile returns the exact q-quantile (0 ≤ q ≤ 1) of the samples,
// interpolating linearly between the two nearest order statistics.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usPerSecond and usPerMs convert seconds and milliseconds to
// microseconds.
const (
	usPerSecond = 1e6
	usPerMs     = 1e3
)

// wallNow reads the wall clock for spans, phase budgets and
// client-observed session latency.
func wallNow() time.Time {
	//lint:ignore notime benchmark boundary: the benchmark times the program from outside, in host time
	return time.Now()
}

// cpuTime is the CPU time, user and system on every thread, the process
// has run so far. Unlike wall time it leaves out the time the host runs
// other machines on this one's CPUs, the steal that dominates wall-time
// noise on a shared VM.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSample is the allocation and CPU ledger at one instant, so a phase's
// allocations and GC share are the difference of two samples.
type memSample struct {
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return memSample{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

// memDelta is what one measured phase allocated per unit of work, and the
// share of the available CPU time the garbage collector used meanwhile.
type memDelta struct {
	allocsPerUnit  float64
	allocKBPerUnit float64
	gcCPUFraction  float64
}

func (before memSample) to(after memSample, units int) memDelta {
	d := memDelta{
		allocsPerUnit:  float64(after.mallocs-before.mallocs) / float64(units),
		allocKBPerUnit: float64(after.allocBytes-before.allocBytes) / 1024 / float64(units),
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		d.gcCPUFraction = (after.gcCPU - before.gcCPU) / cpu
	}
	return d
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// probeSink keeps the compiler from removing the probe loop.
var probeSink uint64

// hostProbe returns the CPU time of a fixed pure-Go integer loop, timed
// like the metrics are. It touches no program code, so a change in it
// between runs is the host, not the program.
func hostProbe() time.Duration {
	start := cpuTime()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return cpuTime() - start
}
