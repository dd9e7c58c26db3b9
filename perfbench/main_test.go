package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the result line must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricListsMatchBenchmarkFile pins the metric names and units the
// program emits to the ones BENCHMARK.json declares, in order.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if (metricDef{m.Name, m.Unit}) != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %v", i, m.Name, m.Unit, endToEnd[i])
		}
	}
	for i, m := range b.PerLayer {
		if (metricDef{m.Name, m.Unit}) != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %v", i, m.Name, m.Unit, perLayer[i])
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

// runCLI runs the built benchmark and decodes its last output line.
func runCLI(t *testing.T, bin string, args ...string) result {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size,
// untraced and traced, through the command line, and checks that each
// run is correct and carries exactly the declared metrics with their
// units. It also runs each workload on a second seed: the simulated
// metrics must change with the inputs.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	traces := t.TempDir()
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			base := []string{"--workload", name, "--devices", "32", "--seconds", "0.2", "--trace-dir", traces}
			check := func(res result, defs []metricDef) {
				t.Helper()
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d: %v", len(res.Metrics), len(defs), res.Metrics)
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
				}
			}
			first := runCLI(t, bin, append(base, "--seed", "1", "--trace", "0")...)
			check(first, endToEnd)
			for _, d := range endToEnd {
				if first.Metrics[d.name].Value == 0 {
					t.Errorf("end-to-end %s reads 0", d.name)
				}
			}
			check(runCLI(t, bin, append(base, "--seed", "1", "--trace", "1")...), perLayer)

			second := runCLI(t, bin, append(base, "--seed", "2", "--trace", "0")...)
			for _, m := range []string{"energy_saving", "violation_ratio"} {
				if first.Metrics[m].Value == second.Metrics[m].Value {
					t.Errorf("%s is %v on both seeds", m, first.Metrics[m].Value)
				}
			}
		})
	}
}

// TestFleetCheckCatchesTampering runs a tiny fleet workload and checks
// that the correctness check passes on it and fails once a report or the
// reconstruction's fold is perturbed.
func TestFleetCheckCatchesTampering(t *testing.T) {
	in, err := setupFleet(*workloads["fleet"].fleet, 3, 24)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := measureFleet(in.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := reconstructFleet(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := checkFleet(runs, fold, 24); len(p) != 0 {
		t.Fatalf("untampered run fails its check: %v", p)
	}

	runs.reports[1] = bytes.Replace(runs.reports[1], []byte("all"), []byte("any"), 1)
	if p := checkFleet(runs, fold, 24); len(p) != 1 {
		t.Errorf("perturbed report: problems %v, want one", p)
	}
	runs.reports[1] = runs.reports[0]

	addOutcome(&fold.total, 10, 9, 1, 0)
	if p := checkFleet(runs, fold, 24); len(p) == 0 {
		t.Error("a fold with one extra device passes the check")
	}
}

// TestServeCheckCatchesTampering replays a tiny session pool and checks
// that the snapshot check passes on it and fails on a perturbed snapshot
// or decision stream.
func TestServeCheckCatchesTampering(t *testing.T) {
	p, err := setupServe(5, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := p.measure(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := p.directRuns()
	if err != nil {
		t.Fatal(err)
	}
	if problems := checkServe(ph.first, truth); len(problems) != 0 {
		t.Fatalf("untampered pass fails its check: %v", problems)
	}

	ph.first[2].stats.EnergyJ += 1e-9
	if problems := checkServe(ph.first, truth); len(problems) != 1 {
		t.Errorf("perturbed snapshot: problems %v, want one", problems)
	}
	ph.first[2].stats = truth.snaps[2]

	ph.first[4].entries--
	if problems := checkServe(ph.first, truth); len(problems) != 1 {
		t.Errorf("dropped decision entry: problems %v, want one", problems)
	}

	second := append([]sessionRun(nil), ph.first...)
	second[4].entries++
	ph.add(second)
	if len(ph.repeatDiffs) != 1 {
		t.Errorf("a pass differing from the first in one session: %v, want one difference", ph.repeatDiffs)
	}
}

func TestQuantileIsExact(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(samples, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// TestSelfTimeSubtractsChildren checks self time on overlapping and
// overhanging children.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{base: time.Unix(0, 0), spans: []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the root
		{Name: "d", ID: 4, Parent: 2, Start: 25, End: 35},
	}}
	self := tr.selfTimes()
	want := map[string]int64{"root": 100 - 40 - 10, "a": 20, "b": 30 - 10, "c": 30, "d": 10}
	for name, ns := range want {
		if self[name].selfNs != ns {
			t.Errorf("%s self time %d, want %d", name, self[name].selfNs, ns)
		}
	}
}
