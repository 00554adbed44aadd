// Command perfbench is disksig's benchmark. It builds a workload's
// traffic from a seed, brings up real diskserve processes the way
// operators run them, drives them over loopback from this one process,
// checks the served state against an in-process shadow, and prints the
// end-to-end metrics. With --trace 1 it prints the per-layer metrics
// instead (trace.go).
//
// Usage (from the repository root, after perfbench/run.sh has built
// both binaries):
//
//	perfbench --workload ingest-binary --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"disksig/internal/synth"
)

// workload is one traffic mix. BENCHMARK.json records why each exists.
type workload struct {
	name   string
	scale  synth.Scale
	format string // "binary" or "json"
	batch  int    // records per ingest request
	topo   string // "standalone", "replicated" or "routed"
	// writers is the number of ingest connections, one stream each.
	writers int
	// rate is the open-loop ingest rate in batches/s over all writers;
	// 0 is closed loop.
	rate float64
	// snapshotEvery triggers POST /v1/admin/snapshot after every this
	// many batches of writer 0; 0 never.
	snapshotEvery int
	// readRate is the dashboard reader's open-loop rate in requests/s;
	// 0 means no concurrent reader (a post-window probe reads instead).
	readRate float64
}

var workloads = []*workload{
	{name: "ingest-binary", scale: synth.ScalePaper, format: "binary", batch: 512, topo: "standalone", writers: 2},
	{name: "ingest-replicated", scale: synth.ScaleMedium, format: "binary", batch: 64, topo: "replicated", writers: 2, rate: 400, snapshotEvery: 200},
	{name: "dashboard-json", scale: synth.ScaleMedium, format: "json", batch: 200, topo: "standalone", writers: 1, readRate: 200},
	{name: "routed-binary", scale: synth.ScaleMedium, format: "binary", batch: 512, topo: "routed", writers: 2},
}

// Run shape: set-up is timed setups times and reported as the median;
// probeReads requests (every 10th a summary) follow the window on
// workloads without a concurrent reader.
const (
	setups     = 3
	probeReads = 1000
	runLimit   = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info are end-to-end metrics printed but left out of the result:
	// their run-to-run spread on a shared 2-core host is wider than any
	// bound BENCHMARK.json may set.
	Info map[string]metric `json:"-"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed; the fleet is synth seed+3000")
		seconds = flag.Float64("seconds", 10, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
		bin     = flag.String("diskserve", ".bench_build/bin/diskserve", "diskserve binary")
		work    = flag.String("workdir", ".bench_build/run", "scratch directory for logs and state")
		scale   = flag.String("scale", "", "override the workload's fleet scale (small, medium, paper); for self-tests")
	)
	flag.Parse()
	var w *workload
	for _, x := range workloads {
		if x.name == *name {
			w = x
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *scale != "" {
		sc, err := synth.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		wc := *w
		wc.scale = sc
		w = &wc
	}

	// Stop every diskserve on a signal, and give up before the 180 s a
	// run may take rather than hang on a stuck deployment.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigc:
			fmt.Println("perfbench: FAILED: interrupted")
		case <-time.After(runLimit):
			fmt.Printf("perfbench: FAILED: run exceeded %v\n", runLimit)
		}
		stopAll()
		os.Exit(1)
	}()

	cfg := runConfig{w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), bin: *bin, dir: *work, trace: *trace == 1}
	describe(cfg)
	res, err := run(cfg)
	stopAll()
	if err != nil {
		fmt.Println("perfbench: FAILED:", err)
		out, _ := json.Marshal(result{Correct: false, Attempted: max(res.Attempted, 1), Failed: max(res.Failed, 1), Metrics: map[string]metric{}})
		fmt.Println(string(out))
		os.Exit(1)
	}
	printMetrics("metric", res.Metrics)
	printMetrics("metric (not in the result)", res.Info)
	if mb, err := vmHWM("/proc/self/status"); err == nil {
		fmt.Printf("perfbench peak RSS: %.0f MB\n", mb)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func printMetrics(label string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", label, n, ms[n].Value, ms[n].Unit)
	}
}

type runConfig struct {
	w     *workload
	seed  int64
	dur   time.Duration
	bin   string
	dir   string
	trace bool
}

// describe prints what a result was measured on and with.
func describe(cfg runConfig) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(l, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	src := os.Getenv("PERFBENCH_SOURCE")
	if src == "" {
		src = "unknown"
	}
	fmt.Printf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("source: %s\n", src)
	fmt.Printf("command: %s\n", strings.Join(os.Args, " "))
	fmt.Printf("workload: %s seed=%d fleet=%s+%d format=%s batch=%d topology=%s writers=%d rate=%g/s reader=%g/s window=%v trace=%v\n",
		cfg.w.name, cfg.seed, cfg.w.scale, fleetSeedOffset, cfg.w.format, cfg.w.batch, cfg.w.topo, cfg.w.writers, cfg.w.rate, cfg.w.readRate, cfg.dur, cfg.trace)
}

func run(cfg runConfig) (result, error) {
	res := result{Metrics: map[string]metric{}, Info: map[string]metric{}}
	w := cfg.w
	admin := &http.Client{Timeout: 60 * time.Second}
	ctx := context.Background()
	if _, err := os.Stat(cfg.bin); err != nil {
		return res, fmt.Errorf("diskserve binary: %w", err)
	}

	t := time.Now()
	in, err := buildInputs(w.scale, cfg.seed, w.writers, w.batch, w.format)
	if err != nil {
		return res, err
	}
	fmt.Printf("inputs: %d drives, %d records/pass, %d batches/pass, built in %.2fs (untimed)\n",
		len(in.drives), in.records, countBatches(in), time.Since(t).Seconds())

	// Set up the deployment several times; the last one takes the load.
	n := setups
	if cfg.trace {
		n = 1
	}
	var setupS []float64
	var d *deployment
	for i := 0; i < n; i++ {
		if d != nil {
			d.stop()
		}
		if d, err = deploy(cfg.bin, filepath.Join(cfg.dir, w.name), w.topo, admin); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.setup.Seconds())
	}
	defer d.stop()
	fmt.Printf("setup_s samples: %v\n", setupS)

	initial, err := exportState(admin, d.nodes[0])
	if err != nil {
		return res, err
	}
	sh, err := newShadow(initial, w.writers)
	if err != nil {
		return res, err
	}

	var tr *tracer
	if cfg.trace {
		if tr, err = startTrace(admin, d); err != nil {
			return res, err
		}
	}
	lr := &loadRun{w: w, in: in, target: d.target.url, seed: cfg.seed, dur: cfg.dur, traced: cfg.trace, cpu: d.cpuSeconds}
	if err := lr.run(ctx); err != nil {
		return res, err
	}
	ws := lr.window()
	rss := 0.0
	for _, p := range d.all {
		mb, err := p.peakRSSMB()
		if err != nil {
			return res, err
		}
		rss += mb
	}
	if w.readRate == 0 {
		pc := lr.writers[0]
		pc.samples = pc.samples[:0]
		probe(ctx, pc, d.target.url, in, cfg.seed, probeReads)
		ws.addProbe(pc)
	}
	res.Attempted, res.Failed = ws.attempted, ws.failed

	acked := make([]int, len(lr.writers))
	for s, c := range lr.writers {
		acked[s] = c.acked
	}
	t = time.Now()
	if err := in.loadRecords(); err != nil {
		return res, err
	}
	sh.replay(in, acked)
	sv, err := collect(admin, d)
	if err != nil {
		return res, err
	}
	if err := check(sv, in, lr.writers, sh); err != nil {
		return res, fmt.Errorf("correctness gate: %w", err)
	}
	fmt.Printf("gate: served state, alerts (%d) and ledgers match the shadow over %d records; checked in %.2fs (untimed)\n",
		len(sh.alerts), sh.ingested, time.Since(t).Seconds())
	res.Correct = true

	printWindow(ws)
	fmt.Printf("host during the window: %.1f%% steal, %.1f%% idle (other tenants' load moves every timing)\n", 100*lr.steal, 100*lr.idle)
	if cfg.trace {
		return res, tr.finish(ctx, admin, d, lr, ws, in, initial, &res)
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", median(setupS), "s")
	put("ingest_records_per_s", ws.rate(), "1/s")
	put("ingest_p50_ms", quantile(ws.ingest, 0.50), "ms")
	put("server_rss_mb", rss, "MB")
	put("ingest_cpu_us_per_record", lr.cpuUsed/float64(ws.records)*1e6, "us")
	res.Info["ingest_p99_ms"] = metric{quantile(ws.ingest, 0.99), "ms"}
	res.Info["read_p50_ms"] = metric{quantile(ws.reads, 0.50), "ms"}
	res.Info["read_p99_ms"] = metric{quantile(ws.reads, 0.99), "ms"}
	res.Info["summary_p50_ms"] = metric{quantile(ws.summ, 0.50), "ms"}
	res.Info["summary_p90_ms"] = metric{quantile(ws.summ, 0.90), "ms"}
	res.Info["ops_failed_frac"] = metric{float64(ws.failed) / float64(max(ws.attempted, 1)), "fraction"}
	return res, nil
}

func printWindow(ws windowStats) {
	fmt.Printf("window: %.1fs, %d records acked (first half %.0f/s, second half %.0f/s)\n",
		ws.seconds, ws.records, float64(ws.firstH)/(ws.seconds/2), float64(ws.lastH)/(ws.seconds/2))
	fmt.Printf("samples: ingest=%d reads=%d summaries=%d\n", len(ws.ingest), len(ws.reads), len(ws.summ))
	fmt.Printf("requests: %d attempted, %d failed after the retry budget\n", ws.attempted, ws.failed)
	if len(ws.late) > 0 {
		fmt.Printf("loadgen late p50 %.3fms p99 %.3fms\n", quantile(ws.late, 0.5), quantile(ws.late, 0.99))
	}
}

func countBatches(in *inputs) int {
	n := 0
	for _, b := range in.batches {
		n += len(b)
	}
	return n
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys) == 0 {
		return 0
	}
	if len(ys)%2 == 1 {
		return ys[len(ys)/2]
	}
	return (ys[len(ys)/2-1] + ys[len(ys)/2]) / 2
}
