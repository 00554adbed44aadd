package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request kinds.
const (
	kIngest = iota
	kRead
	kSummary
	kSnapshot
)

// sample is one request as the load generator saw it. Times are
// offsets from the start of the load. due is when the request was
// scheduled: the send time in a closed loop, the schedule slot in an
// open loop, so an open-loop latency counts the wait a stall imposed.
type sample struct {
	kind            uint8
	ok              bool
	records         int32
	due, sent, done time.Duration
}

// client is one load-generator connection and what it recorded.
type client struct {
	http    *http.Client
	samples []sample
	acks    [][]byte // ingest acks, parsed after the window
	acked   int      // batches acknowledged, in stream order
	spans   []span   // traced runs: ingest spans of the window
	buf     bytes.Buffer
	body    []byte
	err     error
}

func newClient() *client {
	return &client{http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// maxAttempts is the retry budget of one request: 429s, 5xx and
// transport errors are retried this many times in all.
const maxAttempts = 10

// do sends one request with the retry budget and returns the status of
// the last attempt (0 for a transport error); the response body is left
// in c.buf.
func (c *client) do(ctx context.Context, method, url, ct string, body []byte) int {
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return 0
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		c.buf.Reset()
		code := 0
		resp, err := c.http.Do(req)
		if err == nil {
			_, err = c.buf.ReadFrom(resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
		}
		if err != nil {
			code = 0
		}
		retry := code == 0 || code == http.StatusTooManyRequests || code >= 500
		if !retry || attempt == maxAttempts || ctx.Err() != nil {
			return code
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// loadRun is one measured run of a workload against a deployment.
type loadRun struct {
	w      *workload
	in     *inputs
	target string
	seed   int64
	dur    time.Duration

	t0      time.Time
	winFrom atomic.Int64 // window start, ns after t0; 0 until warm-up ends
	stopAt  atomic.Int64 // ns after t0 when clients stop; MaxInt64 until set
	grown   sync.WaitGroup

	// cpu reads the deployment's CPU seconds; run samples it at the
	// window's edges into cpuUsed.
	cpu     func() (float64, error)
	cpuUsed float64

	writers []*client
	reader  *client
	// steal and idle are the host's stolen and idle CPU shares during
	// the window, printed to explain noisy timings.
	steal, idle float64
	traced      bool
}

// cpuTicks reads the host-wide CPU time counters from /proc/stat.
func cpuTicks() []int64 {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(b), "\n")
	var out []int64
	for _, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		out = append(out, v)
	}
	for len(out) < 8 {
		out = append(out, 0)
	}
	return out
}

// hostShares returns the stolen and idle shares of the CPU time between
// two cpuTicks readings.
func hostShares(a, b []int64) (steal, idle float64) {
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0, 0
	}
	return float64(b[7]-a[7]) / float64(total), float64(b[3]-a[3]) / float64(total)
}

// warmMin is the least warm-up before the window: decoder pools, the
// first GC cycles and connection set-up happen here.
const warmMin = 1500 * time.Millisecond

func (lr *loadRun) now() time.Duration { return time.Since(lr.t0) }

func (lr *loadRun) stopped(at time.Duration) bool { return int64(at) >= lr.stopAt.Load() }

// run drives the workload: warm-up until every writer has introduced all
// of its drives and warmMin has passed, then the measured window.
func (lr *loadRun) run(ctx context.Context) error {
	w := lr.w
	lr.stopAt.Store(1<<63 - 1)
	lr.writers = make([]*client, w.writers)
	for i := range lr.writers {
		lr.writers[i] = newClient()
	}
	lr.grown.Add(w.writers)
	var wg sync.WaitGroup
	lr.t0 = time.Now()
	for i, c := range lr.writers {
		wg.Add(1)
		go func(s int, c *client) {
			defer wg.Done()
			lr.write(ctx, s, c)
		}(i, c)
	}
	if w.readRate > 0 {
		lr.reader = newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			lr.read(ctx)
		}()
	}
	// The window opens once the population is fixed and warm-up is over.
	lr.grown.Wait()
	if d := warmMin - lr.now(); d > 0 {
		time.Sleep(d)
	}
	cpu0, err0 := lr.cpu()
	from := lr.now()
	lr.winFrom.Store(int64(from))
	lr.stopAt.Store(int64(from + lr.dur))
	host0 := cpuTicks()
	time.Sleep(from + lr.dur - lr.now())
	cpu1, err1 := lr.cpu()
	lr.cpuUsed = cpu1 - cpu0
	lr.steal, lr.idle = hostShares(host0, cpuTicks())
	wg.Wait()
	if err := errors.Join(err0, err1); err != nil {
		return fmt.Errorf("reading the deployment's CPU time: %w", err)
	}
	for i, c := range lr.writers {
		if c.err != nil {
			return fmt.Errorf("writer %d: %w", i, c.err)
		}
	}
	if lr.reader != nil && lr.reader.err != nil {
		return fmt.Errorf("reader: %w", lr.reader.err)
	}
	return nil
}

// write replays stream s, pass after pass, until the window closes.
func (lr *loadRun) write(ctx context.Context, s int, c *client) {
	w, in := lr.w, lr.in
	grown := false
	markGrown := func() {
		if !grown {
			grown = true
			lr.grown.Done()
		}
	}
	defer markGrown()
	nb := len(in.batches[s])
	ct := contentType(in.format)
	var interval time.Duration
	if w.rate > 0 {
		interval = time.Duration(float64(w.writers) / w.rate * float64(time.Second))
	}
	url := lr.target + "/v1/ingest"
	for k := 0; ; k++ {
		if k >= in.growth[s] {
			markGrown()
		}
		c.body = in.passBody(c.body, s, k%nb, k/nb)
		due := lr.now()
		if interval > 0 {
			// Writers are offset by a share of the interval, so arrivals
			// are evenly spaced at the stated rate.
			due = time.Duration(k)*interval + time.Duration(s)*interval/time.Duration(w.writers)
			if d := due - lr.now(); d > 0 {
				time.Sleep(d)
			}
		}
		if lr.stopped(due) {
			return
		}
		sent := lr.now()
		code := c.do(ctx, http.MethodPost, url, ct, c.body)
		sm := sample{kind: kIngest, ok: code == http.StatusOK, records: int32(len(in.batches[s][k%nb])), due: due, sent: sent, done: lr.now()}
		c.samples = append(c.samples, sm)
		if !sm.ok {
			c.err = fmt.Errorf("batch %d of stream %d: status %d after %d attempts: %s", k, s, code, maxAttempts, bytes.TrimSpace(c.buf.Bytes()))
			return
		}
		c.acks = append(c.acks, append([]byte(nil), c.buf.Bytes()...))
		c.acked++
		if from := time.Duration(lr.winFrom.Load()); lr.traced && from > 0 && sent >= from {
			c.spans = append(c.spans, span{Name: "client.ingest", Batch: k, Start: int64(sent), End: int64(sm.done)})
		}
		if w.snapshotEvery > 0 && s == 0 && (k+1)%w.snapshotEvery == 0 {
			sent := lr.now()
			code := c.do(ctx, http.MethodPost, lr.target+"/v1/admin/snapshot", "", nil)
			c.samples = append(c.samples, sample{kind: kSnapshot, ok: code == http.StatusOK, due: sent, sent: sent, done: lr.now()})
			if code != http.StatusOK {
				c.err = fmt.Errorf("admin snapshot: status %d: %s", code, bytes.TrimSpace(c.buf.Bytes()))
				return
			}
		}
	}
}

// readSerials draws the reader's serials: three reads in four go to a
// failed drive, the rest to any drive of the fleet.
func readSerials(in *inputs, seed int64, n int) []string {
	var failed []string
	for _, d := range in.drives {
		if d.failed {
			failed = append(failed, d.serial)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		if len(failed) > 0 && rng.Intn(4) < 3 {
			out[i] = failed[rng.Intn(len(failed))]
		} else {
			out[i] = in.drives[rng.Intn(len(in.drives))].serial
		}
	}
	return out
}

// read is the dashboard: an open-loop reader at w.readRate that starts
// once every drive has been ingested, so each read finds its drive.
// Every 10th read is a fleet summary.
func (lr *loadRun) read(ctx context.Context) {
	c := lr.reader
	lr.grown.Wait()
	start := lr.now()
	interval := time.Duration(float64(time.Second) / lr.w.readRate)
	serials := readSerials(lr.in, lr.seed, 4096)
	for i := 0; ; i++ {
		due := start + time.Duration(i)*interval
		if d := due - lr.now(); d > 0 {
			time.Sleep(d)
		}
		if lr.stopped(due) {
			return
		}
		kind, url := uint8(kRead), lr.target+"/v1/drives/"+serials[i%len(serials)]
		if i%10 == 9 {
			kind, url = kSummary, lr.target+"/v1/fleet/summary"
		}
		sent := lr.now()
		code := c.do(ctx, http.MethodGet, url, "", nil)
		c.samples = append(c.samples, sample{kind: kind, ok: code == http.StatusOK, due: due, sent: sent, done: lr.now()})
	}
}

// probe is the read path for workloads without a concurrent reader:
// right after the window, on the idle deployment, one connection reads
// n drives closed-loop with every 10th request a summary.
func probe(ctx context.Context, c *client, target string, in *inputs, seed int64, n int) {
	serials := readSerials(in, seed, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		kind, url := uint8(kRead), target+"/v1/drives/"+serials[i]
		if i%10 == 9 {
			kind, url = kSummary, target+"/v1/fleet/summary"
		}
		sent := time.Since(t0)
		code := c.do(ctx, http.MethodGet, url, "", nil)
		c.samples = append(c.samples, sample{kind: kind, ok: code == http.StatusOK, due: sent, sent: sent, done: time.Since(t0)})
	}
}

func contentType(format string) string {
	if format == "json" {
		return "application/json"
	}
	return "application/x-disksig-batch"
}

// windowStats summarizes the samples of the measured window.
type windowStats struct {
	seconds                float64
	records, firstH, lastH int
	lastAck                time.Duration // offset of the window's last ack from its start
	ingest, reads, summ    []float64     // latencies in ms
	late                   []float64     // generator delay in ms: send time minus due time
	attempted, failed      int
}

// window computes the window's statistics. Ingest records count when
// their ack lands inside the window; latencies count for requests due
// inside it.
func (lr *loadRun) window() windowStats {
	from := time.Duration(lr.winFrom.Load())
	to := from + lr.dur
	mid := from + lr.dur/2
	ws := windowStats{seconds: lr.dur.Seconds()}
	all := append([]*client(nil), lr.writers...)
	if lr.reader != nil {
		all = append(all, lr.reader)
	}
	for _, c := range all {
		var prevDone time.Duration
		for _, s := range c.samples {
			late := s.sent - s.due
			if lr.w.rate == 0 {
				// Closed loop: the next request is due when the last ack lands.
				late = s.sent - prevDone
			}
			prevDone = s.done
			if s.kind == kIngest && s.ok && s.done >= from && s.done < to {
				ws.records += int(s.records)
				ws.lastAck = max(ws.lastAck, s.done-from)
				if s.done < mid {
					ws.firstH += int(s.records)
				} else {
					ws.lastH += int(s.records)
				}
			}
			if s.due < from || s.due >= to {
				continue
			}
			ws.attempted++
			if !s.ok {
				ws.failed++
				continue
			}
			ms := float64(s.done-s.due) / float64(time.Millisecond)
			switch s.kind {
			case kIngest:
				ws.ingest = append(ws.ingest, ms)
				ws.late = append(ws.late, float64(late)/float64(time.Millisecond))
			case kRead:
				ws.reads = append(ws.reads, ms)
			case kSummary:
				ws.summ = append(ws.summ, ms)
			}
		}
	}
	return ws
}

// rate is the window's ingest throughput: records acknowledged inside
// the window over the time from its start to the last of those acks.
func (ws windowStats) rate() float64 {
	if ws.lastAck <= 0 {
		return 0
	}
	return float64(ws.records) / ws.lastAck.Seconds()
}

// addProbe folds a post-window probe's samples into the read metrics.
func (ws *windowStats) addProbe(c *client) {
	for _, s := range c.samples {
		ws.attempted++
		if !s.ok {
			ws.failed++
			continue
		}
		ms := float64(s.done-s.due) / float64(time.Millisecond)
		if s.kind == kSummary {
			ws.summ = append(ws.summ, ms)
		} else {
			ws.reads = append(ws.reads, ms)
		}
	}
}

// quantile is the nearest-rank quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}
