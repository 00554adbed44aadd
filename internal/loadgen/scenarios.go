package loadgen

import (
	"context"
	"fmt"
	"log"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/server"
)

// Deployment is everything a scenario needs to stand up servers and
// shadows: the trained scoring models with their per-class normalizers,
// plus the deployment knobs.
type Deployment struct {
	Models  []monitor.GroupModel
	Norms   monitor.ClassNorms
	Monitor monitor.Config
	// Shards and Workers configure the system under test's store; the
	// shadow always runs with defaults (layout independence is part of
	// what the comparison proves).
	Shards, Workers int
	Log             *log.Logger
}

func (d Deployment) fleetConfig() fleet.Config {
	return fleet.Config{Shards: d.Shards, Workers: d.Workers, Monitor: d.Monitor}
}

// ScenarioConfig parameterizes the scripted scenarios.
type ScenarioConfig struct {
	Workload WorkloadConfig
	// Clients is the steady/chaos concurrency. <= 0 means 4.
	Clients int
	// RatePerSec paces the steady scenario at this many records per
	// second across all clients; 0 runs closed-loop.
	RatePerSec float64
	// Passes repeats the steady workload with fresh serials per pass;
	// SoakFor instead keeps adding passes until the elapsed wall clock
	// exceeds it (the 60s CI soak). Passes <= 0 means 1.
	Passes  int
	SoakFor time.Duration
	// RampClients is the ramp scenario's concurrency ladder; empty means
	// 1, 2, 4, 8, 16. RampMaxInFlight is the server's in-flight limit
	// the ladder must exceed to shed; <= 0 means 4. RampIngestDelay is
	// the server's artificial per-ingest hold (see
	// server.Config.IngestDelay) that makes its capacity genuinely
	// bounded — without it a fast (or single-CPU) host drains requests
	// quicker than clients can pile them up and the shed point is
	// scheduling noise; <= 0 means 10ms.
	RampClients     []int
	RampMaxInFlight int
	RampIngestDelay time.Duration
	// ChaosStateDir is the chaos scenario's durable state directory
	// (required for RunChaos).
	ChaosStateDir string
	// DriftStateDir is the drift scenario's durable state directory
	// (required for RunDrift); the promoted model artifact and the
	// swapped snapshot land there.
	DriftStateDir string
	// ShadowMargin is the drift scenario's promotion margin: the
	// retrained candidate must beat the serving models' F1 by at least
	// this much on the held-out cohort. 0 promotes on ties.
	ShadowMargin float64
	// FailoverDir is the failover scenario's root state directory
	// (required for RunFailover); the primary and follower each get a
	// subdirectory.
	FailoverDir string
	// CompareBatch is the format-compare scenario's batch size. The
	// comparison runs closed-loop and wants per-request HTTP overhead
	// amortized so the measured gap is dominated by the decode + scoring
	// cost, not TCP round trips; <= 0 means 1000.
	CompareBatch int
	// BackblazePath is the Backblaze-format daily dump the backblaze
	// scenario replays (required for RunBackblaze).
	BackblazePath string
}

func (c ScenarioConfig) clients() int {
	if c.Clients <= 0 {
		return 4
	}
	return c.Clients
}

// pacingInterval converts a fleet-wide records/sec target into the
// per-client batch send interval.
func pacingInterval(rate float64, clients, batchSize int) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(clients) * float64(batchSize) / rate * float64(time.Second))
}

// RunSteady is the steady-state soak: the workload streams through the
// real HTTP path at a constant (optionally paced) rate, one or more
// passes, and the run passes only if the served store matches the
// shadow record-for-record, the alert streams agree, and the /metrics
// ledger balances exactly.
func RunSteady(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	rep := &ScenarioReport{Name: "steady"}
	wl, err := BuildWorkload(cfg.Workload)
	if err != nil {
		return rep, err
	}
	shadow, err := NewShadow(dep.Models, dep.Norms, fleet.Config{Monitor: dep.Monitor})
	if err != nil {
		return rep, err
	}
	h, err := StartHarness(dep.Models, dep.Norms, dep.fleetConfig(), server.Config{
		MaxInFlight: 256,
		Log:         nil,
	})
	if err != nil {
		return rep, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.Stop(sctx)
	}()
	drv := &Driver{BaseURL: h.URL, Log: dep.Log}

	clients := cfg.clients()
	passes := cfg.Passes
	if passes <= 0 {
		passes = 1
	}
	interval := pacingInterval(cfg.RatePerSec, clients, cfg.Workload.withDefaults().BatchSize)
	start := time.Now()
	var alerts []string
	for pass := 0; ; pass++ {
		wlp := wl
		if pass > 0 {
			// A fresh serial suffix per pass: the soak keeps ingesting new
			// drives instead of replaying stale hours the store would drop.
			wlp = wl.WithSuffix(fmt.Sprintf("-p%d", pass))
		}
		queues := wlp.Split(clients)
		if pass == 0 {
			rep.WorkloadFingerprint = Fingerprint(queues)
			rep.Drives = len(wlp.Drives)
		}
		stats, err := drv.Run(ctx, Phase{
			Name:     fmt.Sprintf("steady-pass%d", pass),
			Clients:  clients,
			Interval: interval,
		}, queues)
		if stats != nil {
			rep.Phases = append(rep.Phases, stats)
			alerts = append(alerts, stats.AlertKeys...)
			rep.Records += stats.RecordsSent
		}
		if err != nil {
			rep.addCheck("phase", err)
			rep.finish()
			return rep, nil
		}
		if err := shadow.ApplyChunk(queues); err != nil {
			rep.addCheck("shadow", err)
			rep.finish()
			return rep, nil
		}
		if pass+1 >= passes && (cfg.SoakFor <= 0 || time.Since(start) >= cfg.SoakFor) {
			break
		}
	}
	rep.Alerts = len(alerts)

	rep.addCheck("alerts-match-shadow",
		CompareAlerts("shadow", "http", shadow.AlertKeys(), alerts, false))
	rep.addCheck("state-matches-shadow",
		CompareStates("shadow", "served", shadow.State(), CanonicalState(h.Store)))
	_, _, _, err = MetricsInvariant(h.URL, int64(shadow.Ingested()))
	rep.addCheck("metrics-invariant", err)
	rep.SummaryFingerprint = StateFingerprint(CanonicalState(h.Store))
	rep.finish()
	return rep, nil
}

// formatOutcome is one replica's result in the format comparison.
type formatOutcome struct {
	state   *fleet.State
	fp      string
	alerts  []string
	records int
	seconds float64
}

// RunFormatCompare replays the same workload twice — once as JSON
// bodies, once as CRC-framed binary batches — each against a fresh
// server, closed-loop. The run passes only if both replicas land on
// bit-identical canonical-state fingerprints, acknowledge the same
// alert multiset, match an in-process shadow record-for-record, and
// balance their /metrics ledgers. The per-format phases record
// throughput side by side; they are the BENCH_loadgen.json evidence
// for the binary hot path. The in-run speedup gate is deliberately
// loose (1.2x) because CI replays the soak under -race on shared
// runners; the committed report shows the real margin.
func RunFormatCompare(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	rep := &ScenarioReport{Name: "format-compare"}
	wcfg := cfg.Workload
	wcfg.BatchSize = cfg.CompareBatch
	if wcfg.BatchSize <= 0 {
		wcfg.BatchSize = 1000
	}
	wcfg.Format = FormatJSON
	wl, err := BuildWorkload(wcfg)
	if err != nil {
		return rep, err
	}
	shadow, err := NewShadow(dep.Models, dep.Norms, fleet.Config{Monitor: dep.Monitor})
	if err != nil {
		return rep, err
	}
	clients := cfg.clients()
	// At least three passes per format: a single pass of the small
	// workload is a handful of requests, too few for a stable rate.
	passes := cfg.Passes
	if passes < 3 {
		passes = 3
	}
	rep.Drives = len(wl.Drives)

	runFormat := func(f Format) (*formatOutcome, error) {
		h, err := StartHarness(dep.Models, dep.Norms, dep.fleetConfig(), server.Config{
			MaxInFlight: 256,
		})
		if err != nil {
			return nil, err
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			h.Stop(sctx)
		}()
		drv := &Driver{BaseURL: h.URL, Log: dep.Log}
		out := &formatOutcome{}
		wlf := wl.WithFormat(f)
		for pass := 0; pass < passes; pass++ {
			wlp := wlf
			if pass > 0 {
				wlp = wlf.WithSuffix(fmt.Sprintf("-p%d", pass))
			}
			queues := wlp.Split(clients)
			if f == FormatJSON && pass == 0 {
				rep.WorkloadFingerprint = Fingerprint(queues)
			}
			stats, err := drv.Run(ctx, Phase{
				// Closed-loop (no Interval): the comparison measures capacity.
				Name:    fmt.Sprintf("compare-%s-pass%d", f, pass),
				Clients: clients,
			}, queues)
			if stats != nil {
				rep.Phases = append(rep.Phases, stats)
				out.alerts = append(out.alerts, stats.AlertKeys...)
				out.records += stats.RecordsSent
				out.seconds += stats.Duration / 1000
				rep.Records += stats.RecordsSent
			}
			if err != nil {
				return nil, err
			}
			// One shadow serves both replicas: the observation streams are
			// identical across formats, so it is applied on the JSON leg only.
			if f == FormatJSON {
				if err := shadow.ApplyChunk(queues); err != nil {
					return nil, err
				}
			}
		}
		if _, _, _, err := MetricsInvariant(h.URL, int64(out.records)); err != nil {
			return nil, fmt.Errorf("metrics invariant: %w", err)
		}
		out.state = CanonicalState(h.Store)
		out.fp = StateFingerprint(out.state)
		return out, nil
	}

	jo, err := runFormat(FormatJSON)
	if err != nil {
		rep.addCheck("json-replica", err)
		rep.finish()
		return rep, nil
	}
	bo, err := runFormat(FormatBinary)
	if err != nil {
		rep.addCheck("binary-replica", err)
		rep.finish()
		return rep, nil
	}
	rep.Alerts = len(jo.alerts)

	var fpErr error
	if jo.fp != bo.fp {
		fpErr = CompareStates("json", "binary", jo.state, bo.state)
		if fpErr == nil {
			fpErr = fmt.Errorf("state fingerprints differ (json %s vs binary %s) but states compare equal", jo.fp, bo.fp)
		}
	}
	rep.addCheck("formats-identical-state", fpErr)
	rep.addCheck("formats-identical-alerts",
		CompareAlerts("json", "binary", jo.alerts, bo.alerts, false))
	rep.addCheck("state-matches-shadow",
		CompareStates("shadow", "json", shadow.State(), jo.state))
	rep.addCheck("alerts-match-shadow",
		CompareAlerts("shadow", "http", shadow.AlertKeys(), jo.alerts, false))
	var spErr error
	if jo.seconds > 0 && bo.seconds > 0 {
		jsonRate := float64(jo.records) / jo.seconds
		binRate := float64(bo.records) / bo.seconds
		if jsonRate > 0 {
			rep.BinarySpeedup = binRate / jsonRate
		}
	}
	if rep.BinarySpeedup < 1.2 {
		spErr = fmt.Errorf("binary throughput only %.2fx of JSON (want >= 1.2x)", rep.BinarySpeedup)
	}
	rep.addCheck("binary-faster-than-json", spErr)
	rep.SummaryFingerprint = jo.fp
	rep.finish()
	return rep, nil
}

// RunRamp is the ramp-to-shed scenario: the concurrency ladder climbs
// past the server's in-flight limit, and the run passes only if load
// shedding engages (429 with a valid Retry-After), nothing 500s, no
// batch is lost to shedding (retries deliver every record exactly
// once), and the final state still matches the shadow. Each rung
// replays the full workload (fresh serials per rung) at its client
// count, so every rung's throughput and latency are measured over the
// same load.
func RunRamp(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	rep := &ScenarioReport{Name: "ramp"}
	ladder := cfg.RampClients
	if len(ladder) == 0 {
		ladder = []int{1, 2, 4, 8, 16}
	}
	maxInFlight := cfg.RampMaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 4
	}
	delay := cfg.RampIngestDelay
	if delay <= 0 {
		delay = 10 * time.Millisecond
	}
	wl, err := BuildWorkload(cfg.Workload)
	if err != nil {
		return rep, err
	}
	shadow, err := NewShadow(dep.Models, dep.Norms, fleet.Config{Monitor: dep.Monitor})
	if err != nil {
		return rep, err
	}
	h, err := StartHarness(dep.Models, dep.Norms, dep.fleetConfig(), server.Config{
		MaxInFlight: maxInFlight,
		// QueueWait 0: shed immediately at the limit, so the shed point
		// in the ladder is sharp. IngestDelay holds each request's
		// in-flight slot long enough that clients beyond the limit must
		// overlap with full slots — shedding above the limit is then a
		// certainty, not a scheduling accident.
		IngestDelay: delay,
	})
	if err != nil {
		return rep, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.Stop(sctx)
	}()
	drv := &Driver{BaseURL: h.URL, Log: dep.Log}

	rep.Drives = len(wl.Drives)
	var alerts []string
	var allQueues [][]*Batch
	for i, clients := range ladder {
		wlr := wl
		if i > 0 {
			wlr = wl.WithSuffix(fmt.Sprintf("-r%d", i))
		}
		queues := wlr.Split(clients)
		allQueues = append(allQueues, queues...)
		stats, err := drv.Run(ctx, Phase{
			Name:    fmt.Sprintf("ramp-c%d", clients),
			Clients: clients,
		}, queues)
		if stats != nil {
			rep.Phases = append(rep.Phases, stats)
			alerts = append(alerts, stats.AlertKeys...)
			rep.Records += stats.RecordsSent
		}
		if err != nil {
			rep.addCheck("phase", err)
			rep.finish()
			return rep, nil
		}
		if err := shadow.ApplyChunk(queues); err != nil {
			rep.addCheck("shadow", err)
			rep.finish()
			return rep, nil
		}
		if stats.Status["429"] > 0 && (rep.ShedPointClients == 0 || clients < rep.ShedPointClients) {
			rep.ShedPointClients = clients
		}
	}
	rep.WorkloadFingerprint = Fingerprint(allQueues)
	rep.Alerts = len(alerts)

	// Shedding must engage above the limit and never below it.
	var shedErr error
	if rep.ShedPointClients == 0 {
		shedErr = fmt.Errorf("no phase observed 429s (ladder %v, max in-flight %d)", ladder, maxInFlight)
	}
	rep.addCheck("shedding-engaged", shedErr)
	var belowErr error
	for _, ph := range rep.Phases {
		if ph.Clients <= maxInFlight && ph.Status["429"] > 0 {
			belowErr = fmt.Errorf("phase %s shed %d requests with clients <= in-flight limit %d",
				ph.Name, ph.Status["429"], maxInFlight)
		}
	}
	rep.addCheck("no-shed-below-limit", belowErr)
	var taxErr error
	for _, ph := range rep.Phases {
		if n := ph.Status["5xx"] + ph.Status["400"] + ph.Status["413"] + ph.Status["4xx"]; n > 0 {
			taxErr = fmt.Errorf("phase %s had %d non-2xx/non-429 responses: %v", ph.Name, n, ph.Status)
		}
	}
	rep.addCheck("zero-errors", taxErr)
	rep.addCheck("alerts-match-shadow",
		CompareAlerts("shadow", "http", shadow.AlertKeys(), alerts, false))
	rep.addCheck("state-matches-shadow",
		CompareStates("shadow", "served", shadow.State(), CanonicalState(h.Store)))
	_, _, _, err = MetricsInvariant(h.URL, int64(shadow.Ingested()))
	rep.addCheck("metrics-invariant", err)
	rep.SummaryFingerprint = StateFingerprint(CanonicalState(h.Store))
	rep.finish()
	return rep, nil
}
