package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/persist"
	"disksig/internal/server"
	"disksig/internal/smart"
)

// failoverHeartbeat and failoverPromoteAfter are the scenario's timing:
// tight enough that a CI run fails over in well under a second, loose
// enough that a loaded -race runner does not false-promote a live
// primary.
const (
	failoverHeartbeat    = 25 * time.Millisecond
	failoverWatchEvery   = 20 * time.Millisecond
	failoverPromoteAfter = 150 * time.Millisecond
)

// RunFailover is the replicated-pair chaos schedule: a primary with a
// bootstrapped warm follower (at a different shard count) ingests under
// synchronous replication, the primary is killed mid-stream, the
// follower promotes itself after missing heartbeats, and failover-aware
// clients retry their way to the new primary. The scenario passes only
// if every acknowledged record survives — the promoted follower matches
// the shadow record-for-record — and the deposed primary's late WAL
// frames are provably fenced (403), never double-applied.
func RunFailover(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	rep := &ScenarioReport{Name: "failover"}
	if cfg.FailoverDir == "" {
		return rep, fmt.Errorf("loadgen: failover scenario needs FailoverDir")
	}
	primDir := filepath.Join(cfg.FailoverDir, "primary")
	follDir := filepath.Join(cfg.FailoverDir, "follower")
	for _, d := range []string{primDir, follDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return rep, fmt.Errorf("loadgen: creating %s: %w", d, err)
		}
	}
	wl, err := BuildWorkload(cfg.Workload)
	if err != nil {
		return rep, err
	}
	shadow, err := NewShadow(dep.Models, dep.Norms, fleet.Config{Monitor: dep.Monitor})
	if err != nil {
		return rep, err
	}

	// The primary: persisted, seed-snapshotted, replication on.
	mgr1, err := persist.Open(primDir)
	if err != nil {
		return rep, err
	}
	defer mgr1.Close()
	store1, err := fleet.New(dep.Models, dep.Norms, dep.fleetConfig())
	if err != nil {
		return rep, err
	}
	if _, err := mgr1.Snapshot(store1); err != nil {
		return rep, fmt.Errorf("loadgen: seed snapshot: %w", err)
	}
	h1, err := StartHarnessStore(store1, server.Config{
		MaxInFlight: 256,
		Persist:     mgr1,
		Replication: &server.ReplicationOptions{
			Role:       server.RolePrimary,
			Term:       1,
			AckTimeout: 10 * time.Second,
			Heartbeat:  failoverHeartbeat,
		},
	})
	if err != nil {
		return rep, err
	}

	// The follower: bootstrapped from the live primary at twice the shard
	// count (the state image is layout-independent), with its own WAL.
	mgr2, err := persist.Open(follDir)
	if err != nil {
		return rep, err
	}
	defer mgr2.Close()
	fcfg2 := dep.fleetConfig()
	fcfg2.Shards = store1.Shards() * 2
	h2, err := StartFollowerHarness(h1.URL, fcfg2, server.Config{
		MaxInFlight: 256,
		Persist:     mgr2,
	}, server.ReplicationOptions{
		AckTimeout: 10 * time.Second,
		ReadyLag:   2 * time.Second,
		Heartbeat:  failoverHeartbeat,
	})
	if err != nil {
		rep.addCheck("bootstrap", err)
		rep.finish()
		return rep, nil
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		h2.Stop(sctx)
	}()
	term0 := h1.Srv.Term()

	// The follower watches the primary's liveness and promotes itself
	// after missing it continuously for the promote window.
	watchCtx, watchCancel := context.WithCancel(ctx)
	defer watchCancel()
	go h2.Srv.WatchPrimary(watchCtx, failoverWatchEvery, failoverPromoteAfter)

	// Failover-aware clients: both endpoints known, deterministic jitter.
	drv := &Driver{
		BaseURL:   h1.URL,
		Endpoints: []string{h1.URL, h2.URL},
		RetrySeed: cfg.Workload.Seed,
		Log:       dep.Log,
	}
	clients := cfg.clients()
	queues := wl.Split(clients)
	rep.WorkloadFingerprint = Fingerprint(queues)
	rep.Drives = len(wl.Drives)
	// Four chunks: replicated steady state, post-snapshot (the WAL epoch
	// advance ships mid-stream), the failover chunk (the kill lands just
	// before it), and post-failover steady state on the new primary.
	chunks := ChunkQueues(queues, 4)

	var alerts []string
	runPhase := func(name string, chunk [][]*Batch) error {
		stats, err := drv.Run(ctx, Phase{Name: name, Clients: clients}, chunk)
		if stats != nil {
			rep.Phases = append(rep.Phases, stats)
			alerts = append(alerts, stats.AlertKeys...)
			rep.Records += stats.RecordsSent
		}
		if err != nil {
			return err
		}
		return shadow.ApplyChunk(chunk)
	}

	if err := runPhase("replicated", chunks[0]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	// Synchronous acks mean every acknowledged batch is already applied
	// on the follower: it must mirror the shadow right now.
	rep.addCheck("follower-mirrors-primary",
		CompareStates("shadow", "follower", shadow.State(), CanonicalState(h2.Store)))

	// A mid-stream snapshot advances the primary's WAL epoch; the stream
	// must survive the epoch hop (drain, reset, resume at the new start).
	if err := AdminSnapshot(h1.URL); err != nil {
		rep.addCheck("mid-stream-snapshot", err)
		rep.finish()
		return rep, nil
	}
	if err := runPhase("post-snapshot", chunks[1]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	var readyErr error
	for _, u := range []string{h1.URL, h2.URL} {
		if code, err := ReadyStatus(u); err != nil {
			readyErr = err
		} else if code != http.StatusOK {
			readyErr = fmt.Errorf("%s/healthz/ready = %d before the kill, want 200", u, code)
		}
	}
	rep.addCheck("both-ready-before-kill", readyErr)

	// Kill the primary. The promotion clock starts here; a goroutine
	// polls the follower's role so the measured promote time includes
	// the heartbeat-miss window, not just the role flip.
	promoted := make(chan time.Duration, 1)
	killAt := time.Now()
	go func() {
		for {
			if h2.Srv.Role() == server.RolePrimary {
				promoted <- time.Since(killAt)
				return
			}
			if time.Since(killAt) > 15*time.Second {
				promoted <- -1
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	killCtx, kcancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = h1.Stop(killCtx)
	kcancel()
	if err != nil {
		rep.addCheck("kill", err)
		rep.finish()
		return rep, nil
	}

	// The failover chunk: clients hit the dead primary, rotate to the
	// follower, get bounced (503, not the primary) until the promotion
	// lands, then drain the chunk into the new primary.
	if err := runPhase("failover", chunks[2]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	promoteDur := <-promoted
	var promErr error
	if promoteDur < 0 {
		promErr = fmt.Errorf("follower never promoted itself")
	}
	rep.addCheck("follower-promoted", promErr)

	// Fencing proof: the deposed primary writes one late batch to its own
	// WAL and ships it at its old term. The new primary must answer 403 —
	// applying it would resurrect a write nobody acknowledged.
	ghost := []fleet.Observation{{Serial: "deposed-ghost", Record: smart.Record{Hour: 1}}}
	prev := mgr1.Position()
	if _, _, err := mgr1.LogBatch(ghost, func() fleet.BatchResult { return store1.IngestBatch(ghost) }); err != nil {
		rep.addCheck("deposed-primary-fenced", fmt.Errorf("logging ghost batch: %w", err))
	} else {
		frames, _, err := mgr1.ReadWALFrames(prev.Epoch, prev.Offset, 1<<20)
		var fenceErr error
		if err != nil {
			fenceErr = fmt.Errorf("reading ghost frames: %w", err)
		} else {
			body := persist.EncodeShipRequest(term0, prev, frames)
			resp, err := http.Post(h2.URL+"/v1/replication/ship", persist.ShipContentType, bytes.NewReader(body))
			if err != nil {
				fenceErr = err
			} else {
				resp.Body.Close()
				if resp.StatusCode != http.StatusForbidden {
					fenceErr = fmt.Errorf("deposed primary's ship got status %d, want 403", resp.StatusCode)
				}
			}
		}
		rep.addCheck("deposed-primary-fenced", fenceErr)
	}
	// The deposed primary's own shipper gets the same 403 and steps the
	// node down — the OnFenced path, proven end to end.
	var stepErr error
	stepDeadline := time.Now().Add(5 * time.Second)
	for h1.Srv.Role() != server.RoleFollower {
		if time.Now().After(stepDeadline) {
			stepErr = fmt.Errorf("deposed primary still reports role %s", h1.Srv.Role())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.addCheck("deposed-primary-stepped-down", stepErr)

	if err := runPhase("post-failover", chunks[3]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	rep.Alerts = len(alerts)

	// Zero acknowledged-record loss: everything the clients got a 200 for
	// — across both primaries — is in the promoted follower's state.
	rep.addCheck("no-acked-records-lost",
		CompareStates("shadow", "promoted", shadow.State(), CanonicalState(h2.Store)))
	rep.addCheck("alerts-match-shadow",
		CompareAlerts("shadow", "http", shadow.AlertKeys(), alerts, false))
	// The new primary's ingest counters cover exactly the records it
	// served directly; replicated applies are counted separately.
	_, _, _, merr := MetricsInvariant(h2.URL, int64(CountRecords(chunks[2])+CountRecords(chunks[3])))
	rep.addCheck("metrics-invariant", merr)
	if code, err := ReadyStatus(h2.URL); err != nil {
		rep.addCheck("promoted-ready", err)
	} else if code != http.StatusOK {
		rep.addCheck("promoted-ready", fmt.Errorf("/healthz/ready = %d after promotion, want 200", code))
	} else {
		rep.addCheck("promoted-ready", nil)
	}

	fr := &FailoverReport{}
	if promoteDur > 0 {
		fr.PromoteMs = float64(promoteDur) / float64(time.Millisecond)
	}
	var clientSaw error
	for _, ph := range rep.Phases {
		switch ph.Name {
		case "post-snapshot":
			fr.PreKillRate = ph.RecordsPerSec
		case "failover":
			fr.FailoverRate = ph.RecordsPerSec
			fr.NetRetries = ph.Status["net"]
			if ph.Status["net"] == 0 {
				clientSaw = fmt.Errorf("failover phase saw no transport errors — the kill did not exercise the client")
			}
		case "post-failover":
			fr.PostFailoverRate = ph.RecordsPerSec
		}
	}
	if fr.PreKillRate > 0 {
		fr.ThroughputDipPct = (1 - fr.FailoverRate/fr.PreKillRate) * 100
	}
	rep.Failover = fr
	rep.addCheck("client-failover-exercised", clientSaw)
	rep.SummaryFingerprint = StateFingerprint(CanonicalState(h2.Store))
	rep.finish()
	return rep, nil
}
