package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"disksig/internal/synth"
)

// The self-test runs the benchmark at small size. Run it from this
// directory with: go test ./...

// buildBinaries builds diskserve and the benchmark into dir.
func buildBinaries(t *testing.T, dir string) (diskserve, bench string) {
	t.Helper()
	diskserve, bench = filepath.Join(dir, "diskserve"), filepath.Join(dir, "perfbench")
	for _, args := range [][]string{
		{"build", "-o", diskserve, "disksig/cmd/diskserve"},
		{"build", "-o", bench, "."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	return diskserve, bench
}

type benchmarkSpec struct {
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

// TestEveryMetricEmitted runs every workload of BENCHMARK.json for one
// second on the small fleet, untraced and traced, and checks that each
// run passes its gate and emits exactly the listed metrics with their
// units, and that a traced run prints the reconciliation line.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("starts diskserve deployments")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	diskserve, bench := buildBinaries(t, dir)
	for _, wl := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(bench, "--workload", wl.Name, "--seed", "1", "--seconds", "1", "--trace", trace,
				"--scale", "small", "-diskserve", diskserve, "-workdir", filepath.Join(dir, "run"))
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %s: %v\n%s", wl.Name, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not a result: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
				for _, line := range []string{"reconciliation: ", "tracing overhead: "} {
					if !strings.Contains(string(out), "\n"+line) {
						t.Errorf("%s traced run prints no %q line", wl.Name, line)
					}
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestGateRejectsAlteredExport checks that the gate is not vacuous: a
// real run passes it, and the same run with one drive of the served
// export altered fails it.
func TestGateRejectsAlteredExport(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a diskserve deployment")
	}
	dir := t.TempDir()
	diskserve, _ := buildBinaries(t, dir)
	c := &http.Client{Timeout: 30 * time.Second}
	w := &workload{name: "gate", scale: synth.ScaleSmall, format: "binary", batch: 64, topo: "standalone", writers: 1}
	in, err := buildInputs(w.scale, 1, w.writers, w.batch, w.format)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy(diskserve, filepath.Join(dir, "run"), w.topo, c)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	initial, err := exportState(c, d.nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	sh, err := newShadow(initial, w.writers)
	if err != nil {
		t.Fatal(err)
	}
	lr := &loadRun{w: w, in: in, target: d.target.url, seed: 1, dur: 200 * time.Millisecond, cpu: d.cpuSeconds}
	if err := lr.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := in.loadRecords(); err != nil {
		t.Fatal(err)
	}
	sh.replay(in, []int{lr.writers[0].acked})
	sv, err := collect(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(sv, in, lr.writers, sh); err != nil {
		t.Fatalf("unaltered run fails the gate: %v", err)
	}
	sv.states[0].Drives[0].State.LastHour++
	if err := check(sv, in, lr.writers, sh); err == nil {
		t.Fatal("gate accepted an export with one drive's last hour altered")
	}
}
