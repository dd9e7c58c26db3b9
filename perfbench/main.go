// Command perfbench is the repository's benchmark: it runs one named
// workload of the fleet simulator or the session server through the
// packages' public calls, checks the outputs, and prints one JSON result
// line with every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet --seed 42 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the noise
// they are designed around.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// benchTheta is the eTrain cost bound Θ every workload runs under, the
// default of etrain-fleet and etrain-load.
const benchTheta = 4.0

// setupProbes is how many fresh processes time the set-up; setup_s is
// their median.
const setupProbes = 11

// workloadSpec names one workload. size is the fleet population or the
// serve session pool; fleet is nil for serve.
type workloadSpec struct {
	size  int
	fleet *fleetSpec
}

var workloads = map[string]workloadSpec{
	"fleet": {size: 4096, fleet: &fleetSpec{horizon: 10 * time.Minute}},
	"fleet-week-drx": {size: 1024, fleet: &fleetSpec{
		horizon: 2 * time.Hour, diurnal: "week", timeScale: 84, radio: "lte-drx",
	}},
	"serve": {size: 1024},
}

// metricDef is one metric the result line carries, with its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are every metric the result line carries, untraced
// and traced; BENCHMARK.json names the same metrics with the same units.
var endToEnd = []metricDef{
	{"devices_per_s", "1/cpu_s"},
	{"session_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"energy_saving", "ratio"},
	{"delay_p50_s", "sim_s"},
	{"violation_ratio", "ratio"},
	{"success_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"fleet.synth_us", "us"},
	{"bandwidth.channel_us", "us"},
	{"sim.baseline_us", "us"},
	{"sim.etrain_us", "us"},
	{"sim.etrain_ns_per_event", "ns"},
	{"stats.fold_us", "us"},
	{"fleet.other_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"server.replay_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.synth_us", "us"},
	{"sim.events_per_device", "count"},
	{"sim.data_packets_per_device", "count"},
	{"sim.heartbeats_per_device", "count"},
	{"sim.forced_flush_per_device", "count"},
	{"wire.frames_in_per_session", "count"},
	{"wire.frames_out_per_session", "count"},
	{"wire.bytes_in_per_session", "bytes"},
	{"server.decisions_per_session", "count"},
	{"client.first_try_ratio", "ratio"},
	{"fleet.allocs_per_device", "count"},
	{"fleet.alloc_kb_per_device", "KiB"},
	{"serve.allocs_per_session", "count"},
	{"serve.alloc_kb_per_session", "KiB"},
	{"gc.cpu_fraction", "ratio"},
	{"serve.session_p99_ms", "ms"},
	{"host.probe_ms", "ms"},
	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
	{"trace.overhead_pct", "%"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

func main() {
	name := flag.String("workload", "", "workload: fleet, fleet-week-drx or serve")
	seed := flag.Int64("seed", 42, "seed every input derives from")
	seconds := flag.Float64("seconds", 30, "length of the measured phase")
	traced := flag.Int("trace", 0, "1: a traced run that reports the per-layer metrics")
	size := flag.Int("devices", 0, "fleet population or serve session pool (0: the workload's own)")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	probe := flag.Bool("setup-probe", false, "set up the workload, print ready and exit (used to time set-up)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *size > 0 {
		w.size = *size
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace %d: want 0 or 1", *traced))
	}
	if *probe {
		if _, err := setup(w, *seed, nil); err != nil {
			fail(err)
		}
		fmt.Println("ready")
		return
	}
	res, err := run(*name, w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *traceDir)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// bench is a workload whose inputs are built, ready to measure. run
// measures for budget and checks the outputs; with a tracer it reports
// the per-layer metrics instead of the end-to-end ones.
type bench interface {
	run(budget time.Duration, tr *tracer) (*result, error)
}

// setup builds a workload's inputs: the fleet configuration, or the
// synthesized session pool.
func setup(w workloadSpec, seed int64, tr *tracer) (bench, error) {
	if w.fleet != nil {
		return setupFleet(*w.fleet, seed, w.size)
	}
	return setupServe(seed, w.size, tr)
}

// run sets the workload up, measures it and returns the result line.
func run(name string, w workloadSpec, seed int64, budget time.Duration, traced bool, traceDir string) (*result, error) {
	var setupS float64
	if !traced {
		var err error
		if setupS, err = timeSetup(); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	in, err := setup(w, seed, tr)
	if err != nil {
		return nil, err
	}
	probeStart := hostProbe()

	res, err := in.run(budget, tr)
	if err != nil {
		return nil, err
	}

	probeEnd := hostProbe()
	fmt.Printf("host %s nproc=%d GOMAXPROCS=%d probe_ms start=%.3f end=%.3f\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), ms(probeStart), ms(probeEnd))
	if !traced {
		res.set("setup_s", setupS)
		return res, nil
	}
	// A layer the workload does not cross reads 0.
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			res.set(d.name, 0)
		}
	}
	res.set("host.probe_ms", (ms(probeStart)+ms(probeEnd))/2)
	res.set("host.nproc", float64(runtime.NumCPU()))
	res.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return res, nil
}

// timeSetup starts this program setupProbes times in set-up-only mode,
// where it exits at the point the measured phase would begin, and returns
// the median CPU time, in seconds, of those processes: exec, runtime and
// package initialization, and the workload's set-up.
func timeSetup() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := append([]string{"-setup-probe"}, os.Args[1:]...)
	var samples []float64
	for range setupProbes {
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if string(out) != "ready\n" {
			return 0, fmt.Errorf("set-up probe printed %q", out)
		}
		samples = append(samples, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}
	return median(samples), nil
}
