package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/route"
	"disksig/internal/server"
)

// RouterHarness serves a cluster router on a loopback port, the
// routing-tier sibling of Harness.
type RouterHarness struct {
	Router *route.Router
	URL    string

	srv   *http.Server
	serve chan error
}

// StartRouterHarness builds a router from rcfg and serves it on a
// loopback port.
func StartRouterHarness(rcfg route.Config) (*RouterHarness, error) {
	rt, err := route.NewRouter(rcfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("loadgen: router listen: %w", err)
	}
	h := &RouterHarness{
		Router: rt,
		URL:    "http://" + l.Addr().String(),
		srv:    &http.Server{Handler: rt.Handler()},
		serve:  make(chan error, 1),
	}
	go func() { h.serve <- h.srv.Serve(l) }()
	return h, nil
}

// Stop drains in-flight requests and shuts the router down.
func (h *RouterHarness) Stop(ctx context.Context) error {
	err := h.srv.Shutdown(ctx)
	h.Router.Close()
	select {
	case <-h.serve:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// RunRebalance is the cluster-routing chaos schedule: three nodes (at
// three different shard counts) behind a router absorb the workload,
// then a fourth node joins and the router live-migrates its share of
// the keyspace mid-stream, then the first node drains out the same way.
// Both handoffs run concurrently with ingest — filler traffic keeps
// flowing until each migration's epoch flip lands, so the copy gate and
// dual-write window are genuinely exercised — while a poller reads
// known serials through the router and must never see a failure. The
// scenario passes only if the merged post-drain cluster state matches
// an in-process shadow record-for-record (MergeStates proves the nodes
// partition the fleet: a serial on two nodes is a split-brain failure),
// the alert multiset matches, the drained node is empty, and the map
// epoch ends at 3 with the router idle.
func RunRebalance(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	rep := &ScenarioReport{Name: "rebalance"}
	wl, err := BuildWorkload(cfg.Workload)
	if err != nil {
		return rep, err
	}
	shadow, err := NewShadow(dep.Models, dep.Norms, fleet.Config{Monitor: dep.Monitor})
	if err != nil {
		return rep, err
	}

	// Four candidate nodes at four different shard counts: the handoff
	// plane is layout-independent, and the scenario proves it.
	ids := []string{"node-a", "node-b", "node-c", "node-d"}
	var nodes []*Harness
	defer func() {
		for _, h := range nodes {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			h.Stop(sctx)
			cancel()
		}
	}()
	startNode := func(i int) (*Harness, error) {
		fcfg := dep.fleetConfig()
		fcfg.Shards = i + 1
		return StartHarness(dep.Models, dep.Norms, fcfg, server.Config{MaxInFlight: 256})
	}
	for i := 0; i < 3; i++ {
		h, err := startNode(i)
		if err != nil {
			return rep, err
		}
		nodes = append(nodes, h)
	}
	mapNodes := func(idxs ...int) []route.Node {
		out := make([]route.Node, 0, len(idxs))
		for _, i := range idxs {
			out = append(out, route.Node{ID: ids[i], URL: nodes[i].URL})
		}
		return out
	}
	m1, err := route.NewMap(1, mapNodes(0, 1, 2))
	if err != nil {
		return rep, err
	}
	rh, err := StartRouterHarness(route.Config{
		Map:        m1,
		ProbeEvery: 50 * time.Millisecond,
		GateWait:   30 * time.Second,
		// The dwell needs at least 20 dual-written records before the
		// epoch flips; the filler loop below guarantees they arrive.
		DualWriteMin: 20,
		DualWriteMax: 2 * time.Second,
		Log:          dep.Log,
	})
	if err != nil {
		return rep, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rh.Stop(sctx)
		cancel()
	}()

	drv := &Driver{BaseURL: rh.URL, Log: dep.Log}
	clients := cfg.clients()
	queues := wl.Split(clients)
	rep.WorkloadFingerprint = Fingerprint(queues)
	rep.Drives = len(wl.Drives)
	// Five chunks: steady cluster baseline, the join handoff, post-join
	// steady state, the drain handoff, and post-drain steady state.
	chunks := ChunkQueues(queues, 5)

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
	mergeNodes := func(hs ...*Harness) (*fleet.State, error) {
		states := make([]*fleet.State, 0, len(hs))
		for _, h := range hs {
			states = append(states, CanonicalState(h.Store))
		}
		return MergeStates(states...)
	}
	checkMerged := func(label string, hs ...*Harness) error {
		m, err := mergeNodes(hs...)
		if err != nil {
			return err
		}
		return CompareStates("shadow", label, shadow.State(), m)
	}

	if err := runPhase("cluster-steady", chunks[0]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	// Before any migration: the routed cluster must already partition
	// the fleet and mirror the shadow exactly.
	rep.addCheck("cluster-mirrors-shadow", checkMerged("cluster", nodes[0], nodes[1], nodes[2]))

	// Availability poller: serials confirmed ingested are read through
	// the router for the rest of the run — including both handoffs — and
	// every read must answer 200. Reads route to the current owner in
	// every stage, so a single failure means a request was answered from
	// the wrong side of a cutover.
	pollClient := &http.Client{Timeout: 10 * time.Second}
	var sample []string
	for _, d := range wl.Drives {
		resp, err := pollClient.Get(rh.URL + "/v1/drives/" + url.PathEscape(d.Serial))
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			sample = append(sample, d.Serial)
		}
		if len(sample) >= 16 {
			break
		}
	}
	var probes, failures atomic.Int64
	var failMu sync.Mutex
	firstFail := ""
	pollStop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			for _, s := range sample {
				select {
				case <-pollStop:
					return
				default:
				}
				probes.Add(1)
				resp, err := pollClient.Get(rh.URL + "/v1/drives/" + url.PathEscape(s))
				if err != nil {
					failures.Add(1)
					failMu.Lock()
					if firstFail == "" {
						firstFail = fmt.Sprintf("GET %s: %v", s, err)
					}
					failMu.Unlock()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					failMu.Lock()
					if firstFail == "" {
						firstFail = fmt.Sprintf("GET %s: status %d", s, resp.StatusCode)
					}
					failMu.Unlock()
				}
			}
			select {
			case <-pollStop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
	defer func() {
		close(pollStop)
		pollWG.Wait()
	}()

	rebalanceHTTP := func(m *route.Map) (*route.RebalanceStats, error) {
		body, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, "POST", rh.URL+"/v1/cluster/rebalance", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := (&http.Client{Timeout: 5 * time.Minute}).Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("rebalance to epoch %d: status %d: %s", m.Epoch, resp.StatusCode, bytes.TrimSpace(data))
		}
		var stats route.RebalanceStats
		if err := json.Unmarshal(data, &stats); err != nil {
			return nil, fmt.Errorf("decoding rebalance stats: %w", err)
		}
		return &stats, nil
	}

	// runMigration kicks off the handoff over HTTP and drives traffic at
	// the router until it completes: first the scheduled chunk, then —
	// if the migration is still running — filler workloads with fresh
	// serials (also applied to the shadow, so every comparison still
	// holds). The filler is what guarantees the handoff overlaps live
	// ingest instead of racing an idle router, and it feeds the
	// dual-write dwell its minimum record count.
	runMigration := func(tag string, m *route.Map, chunk [][]*Batch) (*route.RebalanceStats, error) {
		done := make(chan struct{})
		var stats *route.RebalanceStats
		var rbErr error
		go func() {
			defer close(done)
			stats, rbErr = rebalanceHTTP(m)
		}()
		if err := runPhase(tag, chunk); err != nil {
			<-done
			return nil, err
		}
		for i := 0; ; i++ {
			fq := wl.WithSuffix(fmt.Sprintf("-%s-f%d", tag, i)).Split(clients)
			for ci, fc := range ChunkQueues(fq, 4) {
				select {
				case <-done:
					return stats, rbErr
				default:
				}
				if err := runPhase(fmt.Sprintf("%s-filler%d.%d", tag, i, ci), fc); err != nil {
					<-done
					return nil, err
				}
			}
		}
	}

	// Join: node-d comes up empty, the map advances to epoch 2 with four
	// owners, and roughly a quarter of the keyspace streams over live.
	h3, err := startNode(3)
	if err != nil {
		rep.addCheck("join-node-start", err)
		rep.finish()
		return rep, nil
	}
	nodes = append(nodes, h3)
	m2, err := route.NewMap(2, mapNodes(0, 1, 2, 3))
	if err != nil {
		rep.addCheck("join-map", err)
		rep.finish()
		return rep, nil
	}
	joinStats, err := runMigration("join-handoff", m2, chunks[1])
	rep.addCheck("join-handoff", err)
	if err != nil {
		rep.finish()
		return rep, nil
	}
	var joinMoveErr error
	if joinStats.Moved == 0 {
		joinMoveErr = fmt.Errorf("join moved no serials — the handoff was a no-op")
	}
	rep.addCheck("join-moved-serials", joinMoveErr)
	if err := runPhase("post-join", chunks[2]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	// Zero acked-record loss through the join: the four nodes must
	// partition the fleet and still mirror the shadow exactly.
	rep.addCheck("post-join-mirrors-shadow", checkMerged("cluster", nodes[0], nodes[1], nodes[2], nodes[3]))

	// Drain: node-a leaves the map at epoch 3; everything it owns must
	// stream off before the flip, leaving it empty.
	m3, err := route.NewMap(3, mapNodes(1, 2, 3))
	if err != nil {
		rep.addCheck("drain-map", err)
		rep.finish()
		return rep, nil
	}
	drainStats, err := runMigration("drain-handoff", m3, chunks[3])
	rep.addCheck("drain-handoff", err)
	if err != nil {
		rep.finish()
		return rep, nil
	}
	var drainMoveErr error
	if drainStats.Moved == 0 {
		drainMoveErr = fmt.Errorf("drain moved no serials — node-a was not migrated")
	}
	rep.addCheck("drain-moved-serials", drainMoveErr)
	if err := runPhase("post-drain", chunks[4]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	rep.Alerts = len(alerts)

	// The drained node must hold nothing: its serials moved, and the
	// post-flip retire pass dropped every remnant.
	var drainedErr error
	if st := CanonicalState(nodes[0].Store); len(st.Drives) != 0 {
		drainedErr = fmt.Errorf("drained node-a still holds %d drives", len(st.Drives))
	}
	rep.addCheck("drained-node-empty", drainedErr)

	// The record-for-record verdict: the three surviving nodes merge
	// into exactly the shadow's fleet.
	finalMerged, mErr := mergeNodes(nodes[1], nodes[2], nodes[3])
	if mErr != nil {
		rep.addCheck("merged-state-matches-shadow", mErr)
	} else {
		rep.addCheck("merged-state-matches-shadow",
			CompareStates("shadow", "cluster", shadow.State(), finalMerged))
		rep.SummaryFingerprint = StateFingerprint(finalMerged)
	}
	rep.addCheck("alerts-match-shadow",
		CompareAlerts("shadow", "http", shadow.AlertKeys(), alerts, false))

	// The cutover must have landed: epoch 3, router idle, no migration
	// state left behind.
	var statusDoc struct {
		Epoch uint64 `json:"epoch"`
		Stage string `json:"stage"`
	}
	epochErr := fetchJSON(rh.URL+"/v1/cluster/status", &statusDoc)
	if epochErr == nil && (statusDoc.Epoch != 3 || statusDoc.Stage != "idle") {
		epochErr = fmt.Errorf("cluster status epoch %d stage %q, want epoch 3 stage idle", statusDoc.Epoch, statusDoc.Stage)
	}
	rep.addCheck("epoch-cutover", epochErr)

	var availErr error
	switch {
	case probes.Load() == 0:
		availErr = fmt.Errorf("availability poller issued no reads")
	case failures.Load() > 0:
		failMu.Lock()
		availErr = fmt.Errorf("%d of %d reads failed during the handoffs (first: %s)",
			failures.Load(), probes.Load(), firstFail)
		failMu.Unlock()
	}
	rep.addCheck("no-read-unavailability", availErr)

	rr := &RebalanceReport{
		JoinMs:          joinStats.DurationMs,
		JoinMoved:       joinStats.Moved,
		JoinTransfers:   joinStats.Transfers,
		JoinDualWrites:  joinStats.DualWrites,
		DrainMs:         drainStats.DurationMs,
		DrainMoved:      drainStats.Moved,
		DrainTransfers:  drainStats.Transfers,
		DrainDualWrites: drainStats.DualWrites,
		ReadProbes:      int(probes.Load()),
		ReadFailures:    int(failures.Load()),
	}
	var metricsDoc struct {
		Router struct {
			GatedRequests int64 `json:"gated_requests"`
		} `json:"router"`
	}
	if err := fetchJSON(rh.URL+"/metrics", &metricsDoc); err == nil {
		rr.GatedRequests = metricsDoc.Router.GatedRequests
	}
	rep.Rebalance = rr

	// Proxy-overhead measurement on fresh stores: the same workload
	// direct to one node vs through a single-node router, per wire
	// format. Informational (no pass/fail — CI replays under -race on
	// shared runners); the committed BENCH_loadgen.json carries the
	// real margin.
	measure := func(f Format, viaRouter bool) (float64, error) {
		h, err := StartHarness(dep.Models, dep.Norms, dep.fleetConfig(), server.Config{MaxInFlight: 256})
		if err != nil {
			return 0, err
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			h.Stop(sctx)
			cancel()
		}()
		base := h.URL
		if viaRouter {
			bm, err := route.NewMap(1, []route.Node{{ID: "bench", URL: h.URL}})
			if err != nil {
				return 0, err
			}
			brh, err := StartRouterHarness(route.Config{Map: bm, ProbeEvery: 50 * time.Millisecond, Log: dep.Log})
			if err != nil {
				return 0, err
			}
			defer func() {
				sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				brh.Stop(sctx)
				cancel()
			}()
			base = brh.URL
		}
		bdrv := &Driver{BaseURL: base, Log: dep.Log}
		var records int
		var seconds float64
		for pass := 0; pass < 2; pass++ {
			leg := "direct"
			if viaRouter {
				leg = "routed"
			}
			bwl := wl.WithFormat(f).WithSuffix(fmt.Sprintf("-b-%s-%s-%d", leg, f, pass))
			stats, err := bdrv.Run(ctx, Phase{
				Name:    fmt.Sprintf("bench-%s-%s-pass%d", leg, f, pass),
				Clients: clients,
			}, bwl.Split(clients))
			if stats != nil {
				rep.Phases = append(rep.Phases, stats)
				records += stats.RecordsSent
				seconds += stats.Duration / 1000
			}
			if err != nil {
				return 0, err
			}
		}
		if seconds <= 0 {
			return 0, fmt.Errorf("bench measured no elapsed time")
		}
		return float64(records) / seconds, nil
	}
	var benchErr error
	if rr.DirectJSONRate, err = measure(FormatJSON, false); err != nil {
		benchErr = err
	} else if rr.RoutedJSONRate, err = measure(FormatJSON, true); err != nil {
		benchErr = err
	} else if rr.DirectBinaryRate, err = measure(FormatBinary, false); err != nil {
		benchErr = err
	} else if rr.RoutedBinaryRate, err = measure(FormatBinary, true); err != nil {
		benchErr = err
	}
	rep.addCheck("router-overhead-measured", benchErr)

	rep.finish()
	return rep, nil
}
