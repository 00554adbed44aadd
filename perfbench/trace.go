package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/loadgen"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/quality"
	"disksig/internal/route"
	"disksig/internal/server"
	"disksig/internal/synth"
	"disksig/internal/wire"
)

// The traced run has two parts. The HTTP run is the untraced run's
// window with client spans recorded in alternate seconds (the other
// seconds are the untraced baseline), /metrics scraped and the access
// logs marked before and after. The replay then sends the batches the
// run acknowledged, in order, through each layer's public entry point
// in this process, one layer per store so every layer sees the same
// sequence, and times each call.
//
// Spans from outside a process cannot be linked to the request that
// caused them: the diskserve access log carries no request ID, so
// handler time in the HTTP run is aggregate busy time per batch. In the
// replay every call is sequential, so a router span covers exactly the
// node spans that start inside it.

// replayRecords bounds the timed part of the replay.
const replayRecords = 400_000

// span is one timed interval, kept in memory and written out at the end.
type span struct {
	Name  string `json:"name"`
	Batch int    `json:"batch"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer holds the HTTP run's bracketing scrapes and log offsets.
type tracer struct {
	logOff map[string]int64
	before map[string]metricsDoc
}

// metricsDoc is the part of GET /metrics the traced run reads.
type metricsDoc struct {
	Fleet struct {
		Drives int `json:"drives"`
	} `json:"fleet"`
	Replication struct {
		FramesApplied int64 `json:"frames_applied"`
	} `json:"replication"`
}

func scrape(c *http.Client, d *deployment) (map[string]metricsDoc, error) {
	out := map[string]metricsDoc{}
	for _, p := range d.all {
		var m metricsDoc
		if err := getJSON(c, p.url+"/metrics", &m); err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		out[p.name] = m
	}
	return out, nil
}

func startTrace(c *http.Client, d *deployment) (*tracer, error) {
	tr := &tracer{logOff: map[string]int64{}}
	var err error
	if tr.before, err = scrape(c, d); err != nil {
		return nil, err
	}
	for _, p := range d.all {
		fi, err := os.Stat(p.log)
		if err != nil {
			return nil, err
		}
		tr.logOff[p.name] = fi.Size()
	}
	return tr, nil
}

// accessLog reads the access-log lines p wrote since the trace began
// for one path: each request's handler duration.
func (tr *tracer) accessLog(p *proc, path string) ([]time.Duration, error) {
	f, err := os.Open(p.log)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(tr.logOff[p.name], io.SeekStart); err != nil {
		return nil, err
	}
	var durs []time.Duration
	sc := bufio.NewScanner(f)
	want := " path=" + path + " "
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, want) {
			continue
		}
		_, rest, ok := strings.Cut(line, " dur=")
		if !ok {
			continue
		}
		v, _, _ := strings.Cut(rest, " ")
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, fmt.Errorf("%s access log: %w", p.name, err)
		}
		durs = append(durs, d)
	}
	return durs, sc.Err()
}

// layers is what the replay measured, summed over timed batches.
type layers struct {
	batches, records        int
	decode, score, ingest   time.Duration
	handler, walAppend      time.Duration
	shipWait, split, router time.Duration
	routeNodes              time.Duration
	traced, untraced        time.Duration // whole batches, per stack
	bodyBytes, ackBytes     int
	alerts, kept            int
	fanout                  int
	snapMs                  []float64
	snapBytes               int64
	walBytes, walRows       uint64
	ships, framesApplied    int64
	driveReadUs, summaryMs  float64
	spans                   []span
}

// timedHandler wraps a handler, adding each request's duration to busy
// and counting requests to one path.
type timedHandler struct {
	h     http.Handler
	busy  atomic.Int64
	path  string
	count atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.busy.Add(int64(time.Since(start)))
	if r.URL.Path == t.path {
		t.count.Add(1)
	}
}

// listen opens a loopback listener and returns it with its base URL.
func listen() (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return l, "http://" + l.Addr().String(), nil
}

// serve runs h on l and returns a stop function that waits for the
// server to end.
func serve(l net.Listener, h http.Handler) func() {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(l)
		close(done)
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
}

// stack is one copy of every layer the replay drives, each on its own
// store restored from the trained state. The traced stack also counts
// the follower's ship requests and the route nodes' busy time; the
// untraced one serves them bare.
type stack struct {
	mon            *monitor.Monitor
	dec            wire.Decoder
	fstore, pstore *fleet.Store
	handler, rh    http.Handler
	mgr            *persist.Manager
	shipper        *persist.Shipper
	fol            *timedHandler
	nodes          [2]*timedHandler
	owner          func(serial []byte) int
}

func newStack(initial *fleet.State, dir string, traced bool, stops *[]func()) (*stack, error) {
	restore := func() (*fleet.Store, error) {
		// One worker: a layer's time is then its CPU cost, and a parent's
		// time minus its children's is its own.
		return fleet.Restore(initial, fleet.Config{Shards: 16, Workers: 1})
	}
	wrap := func(h http.Handler, path string) http.Handler {
		if !traced {
			return h
		}
		return &timedHandler{h: h, path: path}
	}
	st := &stack{}
	var err error
	if st.mon, err = monitor.NewMulti(initial.Models, monitor.ClassNorms{HDD: initial.Norm, SSD: initial.SSDNorm}, initial.MonitorCfg); err != nil {
		return nil, err
	}
	if st.fstore, err = restore(); err != nil {
		return nil, err
	}
	sstore, err := restore()
	if err != nil {
		return nil, err
	}
	quiet := log.New(io.Discard, "", 0) // format access lines as diskserve does, write nowhere
	st.handler = server.New(sstore, server.Config{Log: quiet}).Handler()

	// Persistence: a primary with a state directory and a durable
	// follower bootstrapped from it over loopback HTTP.
	if st.pstore, err = restore(); err != nil {
		return nil, err
	}
	if st.mgr, err = persist.Open(filepath.Join(dir, "primary")); err != nil {
		return nil, err
	}
	*stops = append(*stops, func() { _ = st.mgr.Close() })
	if _, err := st.mgr.Snapshot(st.pstore); err != nil {
		return nil, err
	}
	pl, purl, err := listen()
	if err != nil {
		return nil, err
	}
	psrv := server.New(st.pstore, server.Config{Persist: st.mgr, Replication: &server.ReplicationOptions{Role: server.RolePrimary, Term: 1, SelfURL: purl}})
	*stops = append(*stops, serve(pl, psrv.Handler()))
	mgr2, err := persist.Open(filepath.Join(dir, "follower"))
	if err != nil {
		return nil, err
	}
	*stops = append(*stops, func() { _ = mgr2.Close() })
	fl, furl, err := listen()
	if err != nil {
		return nil, err
	}
	folStore, fopts, err := server.BootstrapFollower(purl, furl, fleet.Config{Shards: 16}, mgr2)
	if err != nil {
		fl.Close()
		return nil, err
	}
	fol := wrap(server.New(folStore, server.Config{Persist: mgr2, Replication: &fopts}).Handler(), "/v1/replication/ship")
	st.fol, _ = fol.(*timedHandler)
	*stops = append(*stops, serve(fl, fol))
	if st.shipper = st.mgr.AttachedShipper(); st.shipper == nil {
		return nil, fmt.Errorf("replay: follower bootstrap attached no shipper")
	}

	// Routing: a router over two in-process nodes.
	var urls [2]string
	for i := range urls {
		ns, err := restore()
		if err != nil {
			return nil, err
		}
		h := wrap(server.New(ns, server.Config{Log: quiet}).Handler(), "")
		st.nodes[i], _ = h.(*timedHandler)
		l, u, err := listen()
		if err != nil {
			return nil, err
		}
		urls[i] = u
		*stops = append(*stops, serve(l, h))
	}
	cmap, err := route.NewMap(1, []route.Node{{ID: "a", URL: urls[0]}, {ID: "b", URL: urls[1]}})
	if err != nil {
		return nil, err
	}
	rt, err := route.NewRouter(route.Config{Map: cmap})
	if err != nil {
		return nil, err
	}
	*stops = append(*stops, rt.Close)
	st.rh = rt.Handler()
	st.owner = func(serial []byte) int { return cmap.OwnerIndex(serial) }
	return st, nil
}

// nodeBusy is the route nodes' summed handler time so far; 0 on the
// untraced stack.
func (st *stack) nodeBusy() time.Duration {
	if st.nodes[0] == nil {
		return 0
	}
	return time.Duration(st.nodes[0].busy.Load() + st.nodes[1].busy.Load())
}

// step is one batch's pass through a stack's layers.
type step struct {
	decode, score, ingest, handler time.Duration
	log, apply, ship, split        time.Duration
	router, nodes                  time.Duration
	res                            fleet.BatchResult
	ackBytes, fanout               int
}

// batchIn is one batch in every form the layers take.
type batchIn struct {
	obs       []fleet.Observation
	bin, body []byte
	ct        string
}

// step sends b through every layer of st. call wraps each layer call:
// on the traced stack it times the call and records a span, on the
// untraced one it only makes the call.
func (st *stack) step(ctx context.Context, b batchIn, ids map[string]int, call func(name string, f func()) time.Duration) (step, error) {
	var p step
	var err error
	p.decode = call("wire.Decoder.Decode", func() {
		var rep quality.Report
		_, err = st.dec.Decode(b.bin, &rep)
	})
	if err != nil {
		return p, err
	}
	p.score = call("monitor.Monitor.IngestClass", func() {
		for _, o := range b.obs {
			st.mon.IngestClass(ids[o.Serial], o.Class, o.Record)
		}
	})
	p.ingest = call("fleet.Store.IngestBatch", func() { p.res = st.fstore.IngestBatch(b.obs) })
	rec := httptest.NewRecorder()
	p.handler = call("server.Server.Handler.ServeHTTP", func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(b.body))
		req.Header.Set("Content-Type", b.ct)
		st.handler.ServeHTTP(rec, req)
	})
	if rec.Code != http.StatusOK {
		return p, fmt.Errorf("replay: handler answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	p.ackBytes = rec.Body.Len()
	var pos persist.Position
	p.log = call("persist.Manager.LogBatch", func() {
		_, pos, err = st.mgr.LogBatch(b.obs, func() fleet.BatchResult {
			var r fleet.BatchResult
			p.apply = call("persist.apply", func() { r = st.pstore.IngestBatch(b.obs) })
			return r
		})
	})
	if err != nil {
		return p, err
	}
	p.ship = call("persist.Shipper.WaitAcked", func() { err = st.shipper.WaitAcked(ctx, pos) })
	if err != nil {
		return p, fmt.Errorf("replay: ship: %w", err)
	}
	var parts [][]byte
	p.split = call("wire.SplitFrame", func() {
		var rep quality.Report
		parts, err = wire.SplitFrame(b.bin, 2, st.owner, &rep)
	})
	if err != nil {
		return p, err
	}
	for _, part := range parts {
		if part != nil {
			p.fanout++
		}
	}
	busy0 := st.nodeBusy()
	rrec := httptest.NewRecorder()
	p.router = call("route.Router.Handler.ServeHTTP", func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(b.body))
		req.Header.Set("Content-Type", b.ct)
		st.rh.ServeHTTP(rrec, req)
	})
	if rrec.Code != http.StatusOK {
		return p, fmt.Errorf("replay: router answered %d: %s", rrec.Code, rrec.Body.Bytes())
	}
	p.nodes = st.nodeBusy() - busy0
	return p, nil
}

// replay sends the acknowledged batches through every layer in process,
// twice: through a traced stack, which times each layer call, and
// through an untraced one, which only makes it. The two take turns
// going first on each batch, so host noise falls on both alike, and
// their batch times give the tracing overhead.
func replay(ctx context.Context, w *workload, in *inputs, initial *fleet.State, acked []int, dir string) (*layers, error) {
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ts, err := newStack(initial, filepath.Join(dir, "traced"), true, &stops)
	if err != nil {
		return nil, err
	}
	us, err := newStack(initial, filepath.Join(dir, "untraced"), false, &stops)
	if err != nil {
		return nil, err
	}
	plain := func(_ string, f func()) time.Duration {
		f()
		return 0
	}

	// The batch sequence: round k sends batch k of every stream, as the
	// writers did; rounds that grow the population are untimed warm-up.
	warm := 0
	for _, g := range in.growth {
		warm = max(warm, g)
	}
	type sent struct{ s, k int }
	var seq []sent
	timed := 0
	for k := 0; timed < replayRecords; k++ {
		any := false
		for s, n := range acked {
			if k < n {
				seq = append(seq, sent{s, k})
				any = true
				if k >= warm {
					timed += len(in.batches[s][k%len(in.batches[s])])
				}
			}
		}
		if !any {
			break
		}
	}

	L := &layers{}
	ids := map[string]int{}
	stream0 := 0
	t0 := time.Now()
	b := batchIn{ct: contentType(in.format)}
	for i, sq := range seq {
		nb := len(in.batches[sq.s])
		b.obs = in.observations(b.obs[:0], in.batches[sq.s][sq.k%nb], sq.k/nb)
		b.bin = wire.EncodeBatch(b.obs)
		b.body = b.bin
		if in.format == "json" {
			b.body = loadgen.EncodeBatch(b.obs)
		}
		for _, o := range b.obs {
			if _, ok := ids[o.Serial]; !ok {
				ids[o.Serial] = len(ids)
			}
		}
		on := sq.k >= warm
		mark := func(name string, f func()) time.Duration {
			s := time.Now()
			f()
			e := time.Now()
			if on {
				L.spans = append(L.spans, span{name, i, int64(s.Sub(t0)), int64(e.Sub(t0))})
			}
			return e.Sub(s)
		}
		var p step
		var tTraced, tPlain time.Duration
		for j := 0; j < 2; j++ {
			s := time.Now()
			if (i+j)%2 == 0 {
				p, err = ts.step(ctx, b, ids, mark)
				tTraced = time.Since(s)
			} else {
				_, err = us.step(ctx, b, ids, plain)
				tPlain = time.Since(s)
			}
			if err != nil {
				return nil, err
			}
		}
		if sq.s == 0 {
			stream0++
		}
		// Snapshots stay outside the batch times: they stall alike on
		// both stacks and would only add noise to the overhead.
		if w.snapshotEvery > 0 && sq.s == 0 && stream0%w.snapshotEvery == 0 || w.snapshotEvery == 0 && i == len(seq)-1 {
			for _, st := range []*stack{ts, us} {
				info, err := st.mgr.Snapshot(st.pstore)
				if err != nil {
					return nil, err
				}
				if st == ts {
					L.snapMs = append(L.snapMs, float64(info.Duration)/float64(time.Millisecond))
					L.snapBytes = info.Bytes
				}
			}
		}
		if !on {
			continue
		}
		L.batches++
		L.records += len(b.obs)
		L.decode += p.decode
		L.score += p.score
		L.ingest += p.ingest
		L.handler += p.handler
		L.walAppend += p.log - p.apply
		L.shipWait += p.ship
		L.split += p.split
		L.router += p.router
		L.routeNodes += p.nodes
		L.traced += tTraced
		L.untraced += tPlain
		L.bodyBytes += len(b.body)
		L.ackBytes += p.ackBytes
		L.alerts += len(p.res.Alerts)
		L.kept += p.res.Quality.RowsKept()
		L.fanout += p.fanout
	}
	if L.batches == 0 {
		return nil, fmt.Errorf("replay: no batch past warm-up was acknowledged")
	}
	ps := ts.mgr.Stats()
	L.walBytes, L.walRows = ps.WALBytes, ps.WALRows
	L.ships = ts.fol.count.Load()
	var fm metricsDoc
	rr := httptest.NewRecorder()
	ts.fol.h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &fm); err != nil {
		return nil, err
	}
	L.framesApplied = fm.Replication.FramesApplied

	// Reads against the replayed store.
	serials := readSerials(in, 1, 2000)
	found := 0
	s := time.Now()
	for _, sn := range serials {
		if _, ok := ts.fstore.Drive(sn); ok {
			found++
		}
	}
	L.driveReadUs = float64(time.Since(s)) / float64(time.Microsecond) / float64(len(serials))
	if found == 0 {
		return nil, fmt.Errorf("replay: none of the read serials is tracked")
	}
	var sums []float64
	for i := 0; i < 10; i++ {
		s := time.Now()
		ts.fstore.EvictStale()
		ts.fstore.Summary(10)
		sums = append(sums, float64(time.Since(s))/float64(time.Millisecond))
	}
	L.summaryMs = median(sums)
	return L, nil
}

// finish completes a traced run: bracketing scrape, access logs, the
// in-process replay and training timing, then the per-layer metrics, the
// reconciliation line and the span file.
func (tr *tracer) finish(ctx context.Context, c *http.Client, d *deployment, lr *loadRun, ws windowStats, in *inputs, initial *fleet.State, res *result) error {
	after, err := scrape(c, d)
	if err != nil {
		return err
	}
	drives := 0
	for _, p := range d.nodes {
		drives += after[p.name].Fleet.Drives
	}

	// HTTP run: client latency per batch (send to ack) and, for a
	// diskserve target, its handler time per batch from the access log.
	var clientUs []float64
	before := 0 // ingest requests due before the window
	from := time.Duration(lr.winFrom.Load())
	for _, cl := range lr.writers {
		for _, s := range cl.samples {
			switch {
			case s.kind != kIngest:
			case s.due < from:
				before++
			case s.ok && s.due < from+lr.dur:
				clientUs = append(clientUs, float64(s.done-s.sent)/float64(time.Microsecond))
			}
		}
	}
	clientMean := mean(clientUs)

	acked := make([]int, len(lr.writers))
	for s, cl := range lr.writers {
		acked[s] = cl.acked
	}
	t := time.Now()
	L, err := replay(ctx, lr.w, in, initial, acked, filepath.Join(filepath.Dir(d.target.log), "replay"))
	if err != nil {
		return err
	}
	fmt.Printf("replay: %d timed batches, %d records, in %.2fs (untimed warm-up excluded)\n", L.batches, L.records, time.Since(t).Seconds())

	trainCfg := synth.DefaultConfig(synth.ScaleSmall)
	trainCfg.Seed = 1
	ds, err := synth.Generate(trainCfg)
	if err != nil {
		return err
	}
	t = time.Now()
	if _, err := core.Characterize(ds, core.Config{Seed: 1}); err != nil {
		return err
	}
	characterize := time.Since(t).Seconds()

	perBatch := func(x time.Duration) float64 { return float64(x) / float64(time.Microsecond) / float64(L.batches) }
	perRecord := func(x time.Duration) float64 { return float64(x) / float64(time.Nanosecond) / float64(L.records) }

	// Handler time per batch in the HTTP run, from the access logs. The
	// log is in completion order; the window's requests follow the ones
	// due before it. A router keeps no access log, so on the routed path
	// the replay's router time stands in for the target's handler time,
	// and the nodes' handler time comes from their own logs: each batch
	// of 512 records reaches both nodes once.
	windowUs := func(p *proc) (float64, error) {
		durs, err := tr.accessLog(p, "/v1/ingest")
		if err != nil {
			return 0, err
		}
		if len(durs) >= before+len(clientUs) {
			durs = durs[before : before+len(clientUs)]
		}
		var us []float64
		for _, x := range durs {
			us = append(us, float64(x)/float64(time.Microsecond))
		}
		return mean(us), nil
	}
	var handlerUs, nodesUs float64
	var handlerSrc string
	if lr.w.topo == "routed" {
		var names []string
		for _, p := range d.nodes {
			us, err := windowUs(p)
			if err != nil {
				return err
			}
			nodesUs += us
			names = append(names, p.name)
		}
		handlerUs = perBatch(L.router)
		handlerSrc = fmt.Sprintf("replay router; node handlers from the %s access logs", strings.Join(names, " and "))
	} else {
		if handlerUs, err = windowUs(d.target); err != nil {
			return err
		}
		handlerSrc = d.target.name + " access log"
	}
	framesPerShip := float64(L.framesApplied) / float64(max(L.ships, 1))
	shipSrc := "replay follower"
	if d.follower != nil {
		durs, err := tr.accessLog(d.follower, "/v1/replication/ship")
		if err != nil {
			return err
		}
		frames := after[d.follower.name].Replication.FramesApplied - tr.before[d.follower.name].Replication.FramesApplied
		framesPerShip = float64(frames) / float64(max(len(durs), 1))
		shipSrc = fmt.Sprintf("follower: %d frames over %d ship requests", frames, len(durs))
	}

	decodeUs := perBatch(L.decode)
	if in.format == "json" {
		decodeUs = 0 // JSON decode happens inside the handler's own time
	}
	serverSelf := perBatch(L.handler) - decodeUs - perBatch(L.ingest)
	routeSelf := perBatch(L.router) - perBatch(L.routeNodes) - perBatch(L.split)
	transport := clientMean - handlerUs

	// Reconciliation: the stages on this workload's path, per batch.
	type stage struct {
		name string
		us   float64
	}
	stages := []stage{{"http.transport", transport}}
	switch lr.w.topo {
	case "routed":
		stages = append(stages, stage{"route.split", perBatch(L.split)}, stage{"route.self", routeSelf})
		stages = append(stages, stage{"node handlers", nodesUs})
	default:
		stages = append(stages, stage{"wire.decode", decodeUs}, stage{"fleet.ingest", perBatch(L.ingest)}, stage{"server.self", serverSelf})
		if lr.w.topo == "replicated" {
			stages = append(stages, stage{"persist.wal_append", perBatch(L.walAppend)}, stage{"persist.ship_wait", perBatch(L.shipWait)})
		}
	}
	sum := 0.0
	var parts []string
	for _, s := range stages {
		sum += s.us
		parts = append(parts, fmt.Sprintf("%s %.1f", s.name, s.us))
	}
	unattributed := (clientMean - sum) / clientMean
	fmt.Printf("reconciliation: end-to-end %.1f us/batch (client send to ack, %d batches) = %s + unattributed %.1f (%.1f%%); handler time from %s\n",
		clientMean, len(clientUs), strings.Join(parts, " + "), clientMean-sum, 100*unattributed, handlerSrc)

	tracedUs, untracedUs := perBatch(L.traced), perBatch(L.untraced)
	overhead := tracedUs/untracedUs - 1
	fmt.Printf("tracing overhead: replay %.1f us/batch traced vs %.1f us/batch untraced over the same %d batches (%+.2f%%)\n", tracedUs, untracedUs, L.batches, 100*overhead)
	fmt.Printf("frames per ship from %s\n", shipSrc)

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("wire.decode_ns_per_record", perRecord(L.decode), "ns")
	put("wire.bytes_per_record", float64(L.bodyBytes)/float64(L.records), "bytes")
	put("monitor.score_ns_per_record", perRecord(L.score), "ns")
	put("fleet.ingest_ns_per_record", perRecord(L.ingest), "ns")
	put("fleet.self_ns_per_record", perRecord(L.ingest-L.score), "ns")
	put("fleet.drives_tracked", float64(drives), "count")
	put("fleet.drive_read_us", L.driveReadUs, "us")
	put("fleet.summary_ms", L.summaryMs, "ms")
	put("fleet.records_kept_frac", float64(L.kept)/float64(L.records), "fraction")
	put("server.self_us_per_batch", serverSelf, "us")
	put("server.ack_bytes_per_batch", float64(L.ackBytes)/float64(L.batches), "bytes")
	put("server.alerts_per_krecord", 1000*float64(L.alerts)/float64(L.records), "count")
	put("http.transport_us_per_batch", transport, "us")
	put("persist.wal_append_us_per_batch", perBatch(L.walAppend), "us")
	put("persist.wal_bytes_per_record", float64(L.walBytes)/float64(max(L.walRows, 1)), "bytes")
	put("persist.ship_wait_us_per_batch", perBatch(L.shipWait), "us")
	put("persist.frames_per_ship", framesPerShip, "count")
	put("persist.snapshot_ms", median(L.snapMs), "ms")
	put("persist.snapshot_bytes", float64(L.snapBytes), "bytes")
	put("route.split_ns_per_record", perRecord(L.split), "ns")
	put("route.fanout_per_batch", float64(L.fanout)/float64(L.batches), "count")
	put("route.self_us_per_batch", routeSelf, "us")
	put("core.characterize_s", characterize, "s")
	put("loadgen.late_p99_ms", quantile(ws.late, 0.99), "ms")
	put("trace.unattributed_frac", unattributed, "fraction")
	put("trace.overhead_frac", overhead, "fraction")
	return writeSpans(filepath.Join(filepath.Dir(d.target.log), "spans.jsonl"), lr, L)
}

// writeSpans writes the client spans of the traced seconds and the
// replay spans as JSON lines.
func writeSpans(path string, lr *loadRun, L *layers) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, c := range lr.writers {
		for _, sp := range c.spans {
			_ = enc.Encode(sp)
		}
	}
	for _, sp := range L.spans {
		_ = enc.Encode(sp)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
