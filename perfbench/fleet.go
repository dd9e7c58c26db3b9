package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"etrain/internal/baseline"
	"etrain/internal/core"
	"etrain/internal/diurnal"
	"etrain/internal/fleet"
	"etrain/internal/radio"
	"etrain/internal/sim"
	"etrain/internal/stats"
	"etrain/internal/workload"
)

// fleetSpec is a fleet workload's engine configuration apart from the
// seed and the population size.
type fleetSpec struct {
	horizon   time.Duration
	diurnal   string // preset name; empty for none
	timeScale float64
	radio     string // radio.ModelByName name; empty for the legacy 3G model
}

// fleetInputs is everything a fleet workload builds before it measures.
type fleetInputs struct {
	cfg   fleet.Config
	pop   *workload.Population
	model radio.Model // nil for the legacy 3G model, as fleet.Run leaves it
}

func setupFleet(spec fleetSpec, seed int64, devices int) (*fleetInputs, error) {
	cfg := fleet.Config{
		Devices: devices,
		Workers: 1,
		Seed:    seed,
		Horizon: spec.horizon,
		Theta:   benchTheta,
		K:       fleet.DefaultK,
		Mix:     workload.DefaultMix(),
		Radio:   spec.radio,
	}
	if spec.diurnal != "" {
		prof, err := diurnal.ByName(spec.diurnal)
		if err != nil {
			return nil, err
		}
		prof.TimeScale = spec.timeScale
		if err := prof.Validate(); err != nil {
			return nil, err
		}
		cfg.Diurnal = prof
	}
	in := &fleetInputs{cfg: cfg}
	if spec.radio != "" {
		m, err := radio.ModelByName(spec.radio)
		if err != nil {
			return nil, err
		}
		in.model = m
	}
	var err error
	in.pop, err = workload.NewPopulation(cfg.Mix)
	return in, err
}

// fleetRuns is the measured phase: repeated fleet.Run calls over the
// same population, timed per run and per shard.
type fleetRuns struct {
	devicesPerCPUS []float64 // one per run
	deviceCPUMs    []float64 // shard CPU time ÷ devices in the shard, every shard of every run
	totalDev       int
	totalWall      time.Duration
	reports        [][]byte // rendered report of every run
	last           *fleet.Report
}

// measureFleet calls fleet.Run at least twice and until budget has passed.
func measureFleet(cfg fleet.Config, budget time.Duration) (*fleetRuns, error) {
	if cfg.Devices%fleet.DefaultShardSize != 0 && cfg.Devices > fleet.DefaultShardSize {
		return nil, fmt.Errorf("fleet: %d devices is not a whole number of shards", cfg.Devices)
	}
	perShard := min(cfg.Devices, fleet.DefaultShardSize)
	runs := &fleetRuns{}
	var last time.Duration
	cfg.Progress = func(done, _ int) {
		now := cpuTime()
		if done > 0 {
			runs.deviceCPUMs = append(runs.deviceCPUMs, ms(now-last)/float64(perShard))
		}
		last = now
	}
	start := wallNow()
	for len(runs.reports) < 2 || wallNow().Sub(start) < budget {
		t0, c0 := wallNow(), cpuTime()
		rep, err := fleet.Run(cfg)
		cpu, wall := cpuTime()-c0, wallNow().Sub(t0)
		if err != nil {
			return nil, err
		}
		runs.devicesPerCPUS = append(runs.devicesPerCPUS, float64(cfg.Devices)/cpu.Seconds())
		runs.totalDev += cfg.Devices
		runs.totalWall += wall
		var buf bytes.Buffer
		if err := rep.Fprint(&buf); err != nil {
			return nil, err
		}
		runs.reports = append(runs.reports, buf.Bytes())
		runs.last = rep
	}
	return runs, nil
}

// fleetFold is the traced reconstruction's result: the population fold
// and the per-device counts the eTrain runs produced.
type fleetFold struct {
	total      fleet.ClassAggregate
	events     int
	data       int
	heartbeats int
	forced     int
}

// reconstructFleet rebuilds fleet.Run's per-device pipeline from the
// package's public calls — synthesis, channel rebuild, the baseline and
// eTrain simulations, the stats fold — and folds the outcomes the way the
// fleet does: per shard and class in device order, then shards merged in
// index order. tr, when non-nil, records a span around every call.
func reconstructFleet(in *fleetInputs, tr *tracer) (*fleetFold, error) {
	cfg := in.cfg
	total, err := newAggregate()
	if err != nil {
		return nil, err
	}
	out := &fleetFold{total: total}
	shard := fleet.DefaultShardSize
	for lo := 0; lo < cfg.Devices; lo += shard {
		classes := make([]fleet.ClassAggregate, len(cfg.Mix))
		for c := range classes {
			if classes[c], err = newAggregate(); err != nil {
				return nil, err
			}
		}
		for i := lo; i < min(lo+shard, cfg.Devices); i++ {
			if err := reconstructDevice(in, i, classes, out, tr); err != nil {
				return nil, fmt.Errorf("device %d: %w", i, err)
			}
		}
		for c := range classes {
			if err := mergeAggregate(&out.total, &classes[c]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func reconstructDevice(in *fleetInputs, i int, classes []fleet.ClassAggregate, out *fleetFold, tr *tracer) error {
	cfg := in.cfg
	root := tr.begin("fleet.device", i, -1)
	defer tr.end(root)

	sp := tr.begin("fleet.synth", i, root)
	dev, err := fleet.SynthesizeDeviceOpts(cfg.Seed, in.pop, i, cfg.Horizon, fleet.DeviceOptions{Diurnal: cfg.Diurnal})
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("bandwidth.channel", i, root)
	base, err := dev.SimConfig()
	tr.end(sp)
	if err != nil {
		return err
	}
	base.Radio = in.model

	sp = tr.begin("sim.baseline", i, root)
	mWithout, err := runBaseline(base)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("without eTrain: %w", err)
	}

	sp = tr.begin("sim.etrain", i, root)
	mWith, err := runETrain(base, cfg.Theta, cfg.K)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("with eTrain: %w", err)
	}

	sp = tr.begin("stats.fold", i, root)
	addOutcome(&classes[dev.ClassIndex], mWithout.EnergyJ, mWith.EnergyJ, mWith.AvgDelayS, mWith.ViolationRatio)
	tr.end(sp)

	out.events += mWith.Heartbeats + mWith.DataPackets
	out.data += mWith.DataPackets
	out.heartbeats += mWith.Heartbeats
	out.forced += mWith.ForcedFlush
	return nil
}

// runBaseline runs base through sim.Run under the transmit-on-arrival
// baseline and returns the run's metrics.
func runBaseline(base sim.Config) (sim.Metrics, error) {
	base.Strategy = baseline.NewImmediate()
	res, err := sim.Run(base)
	if err != nil {
		return sim.Metrics{}, err
	}
	return res.Metrics(), nil
}

// runETrain runs base through sim.Run under eTrain and returns the run's
// metrics.
func runETrain(base sim.Config, theta float64, k int) (sim.Metrics, error) {
	strategy, err := core.New(core.Options{Theta: theta, K: k})
	if err != nil {
		return sim.Metrics{}, err
	}
	base.Strategy = strategy
	res, err := sim.Run(base)
	if err != nil {
		return sim.Metrics{}, err
	}
	return res.Metrics(), nil
}

// newAggregate returns an empty class aggregate with sketches at the
// fleet's default accuracy.
func newAggregate() (fleet.ClassAggregate, error) {
	var a fleet.ClassAggregate
	var err error
	if a.SavedSketch, err = stats.NewSketch(stats.DefaultSketchAlpha); err != nil {
		return a, err
	}
	if a.SavingSketch, err = stats.NewSketch(stats.DefaultSketchAlpha); err != nil {
		return a, err
	}
	a.DelaySketch, err = stats.NewSketch(stats.DefaultSketchAlpha)
	return a, err
}

// addOutcome folds one device's with/without pair into a, in the order
// and with the arithmetic the fleet uses, so equal inputs give equal bits.
func addOutcome(a *fleet.ClassAggregate, withoutJ, withJ, delayS, violation float64) {
	saved := withoutJ - withJ
	saving := 0.0
	if withoutJ > 0 {
		saving = saved / withoutJ
	}
	a.Devices++
	a.WithoutJ.Add(withoutJ)
	a.WithJ.Add(withJ)
	a.SavedJ.Add(saved)
	a.Saving.Add(saving)
	a.DelayS.Add(delayS)
	a.Violation.Add(violation)
	a.SavedSketch.Add(saved)
	a.SavingSketch.Add(saving)
	a.DelaySketch.Add(delayS)
}

// mergeAggregate folds o into a, as the fleet merges shard aggregates.
func mergeAggregate(a, o *fleet.ClassAggregate) error {
	a.Devices += o.Devices
	a.WithoutJ.Merge(o.WithoutJ)
	a.WithJ.Merge(o.WithJ)
	a.SavedJ.Merge(o.SavedJ)
	a.Saving.Merge(o.Saving)
	a.DelayS.Merge(o.DelayS)
	a.Violation.Merge(o.Violation)
	if err := a.SavedSketch.Merge(o.SavedSketch); err != nil {
		return err
	}
	if err := a.SavingSketch.Merge(o.SavingSketch); err != nil {
		return err
	}
	return a.DelaySketch.Merge(o.DelaySketch)
}

// checkFleet reports every way the measured runs are wrong: reports that
// differ between runs of one seed, or a fleet total that differs from the
// reconstruction's fold.
func checkFleet(runs *fleetRuns, fold *fleetFold, devices int) []string {
	var problems []string
	for i, r := range runs.reports[1:] {
		if !bytes.Equal(r, runs.reports[0]) {
			problems = append(problems, fmt.Sprintf("fleet report of run %d differs from run 0", i+1))
		}
	}
	got, want := runs.last.Total, fold.total
	if got.Devices != devices || want.Devices != devices {
		problems = append(problems, fmt.Sprintf("fleet total has %d devices, reconstruction %d, want %d", got.Devices, want.Devices, devices))
	}
	if got.Saving.Mean() != want.Saving.Mean() {
		problems = append(problems, fmt.Sprintf("fleet saving mean %v, reconstruction %v", got.Saving.Mean(), want.Saving.Mean()))
	}
	if got.Violation.Mean() != want.Violation.Mean() {
		problems = append(problems, fmt.Sprintf("fleet violation mean %v, reconstruction %v", got.Violation.Mean(), want.Violation.Mean()))
	}
	gp, gerr := got.DelaySketch.Quantile(50)
	wp, werr := want.DelaySketch.Quantile(50)
	if gerr != nil || werr != nil || gp != wp {
		problems = append(problems, fmt.Sprintf("fleet delay p50 %v (%v), reconstruction %v (%v)", gp, gerr, wp, werr))
	}
	return problems
}

// run measures one fleet workload. Untraced, it returns the
// end-to-end metrics; traced, it spends half the budget on an untraced
// phase and then times every layer call of a reconstruction pass.
func (in *fleetInputs) run(budget time.Duration, tr *tracer) (*result, error) {
	warm := in.cfg
	warm.Devices = min(64, in.cfg.Devices)
	if _, err := fleet.Run(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if tr != nil {
		budget /= 2
	}
	mem0 := sampleMem()
	runs, err := measureFleet(in.cfg, budget)
	if err != nil {
		return nil, err
	}
	mem := mem0.to(sampleMem(), runs.totalDev)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	t0 := wallNow()
	fold, err := reconstructFleet(in, tr)
	if err != nil {
		return nil, fmt.Errorf("reconstruction: %w", err)
	}
	reconWall := wallNow().Sub(t0)
	problems := checkFleet(runs, fold, in.cfg.Devices)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}

	res := &result{Correct: len(problems) == 0, Attempted: runs.totalDev, Metrics: map[string]metric{}}
	if tr == nil {
		total := runs.last.Total
		delayP50, err := total.DelaySketch.Quantile(50)
		if err != nil {
			return nil, err
		}
		res.set("devices_per_s", median(runs.devicesPerCPUS))
		res.set("session_p50_ms", median(runs.deviceCPUMs))
		res.set("peak_rss_mb", rss)
		res.set("energy_saving", total.Saving.Mean())
		res.set("delay_p50_s", delayP50)
		res.set("violation_ratio", total.Violation.Mean())
		res.set("success_ratio", 1)
		return res, nil
	}

	layers := tr.selfTimes()
	n := float64(in.cfg.Devices)
	untracedUs := float64(runs.totalWall.Microseconds()) / float64(runs.totalDev)
	var layerSum float64
	for _, name := range []string{"fleet.synth", "bandwidth.channel", "sim.baseline", "sim.etrain", "stats.fold"} {
		us := layers[name].meanUs()
		res.set(name+"_us", us)
		layerSum += us
	}
	res.set("fleet.other_us", untracedUs-layerSum)
	res.set("sim.etrain_ns_per_event", float64(layers["sim.etrain"].selfNs)/float64(fold.events))
	res.set("sim.events_per_device", float64(fold.events)/n)
	res.set("sim.data_packets_per_device", float64(fold.data)/n)
	res.set("sim.heartbeats_per_device", float64(fold.heartbeats)/n)
	res.set("sim.forced_flush_per_device", float64(fold.forced)/n)
	res.set("fleet.allocs_per_device", mem.allocsPerUnit)
	res.set("fleet.alloc_kb_per_device", mem.allocKBPerUnit)
	res.set("gc.cpu_fraction", mem.gcCPUFraction)
	res.set("trace.overhead_pct", 100*(reconWall.Seconds()*usPerSecond/n/untracedUs-1))
	return res, nil
}
