package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/persist"
	"disksig/internal/route"
)

// proc is one running diskserve process.
type proc struct {
	name string
	url  string
	log  string
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

// procs tracks every process the benchmark started, so each is stopped
// and waited for on every exit path.
var procs struct {
	sync.Mutex
	live []*proc
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches diskserve with args, logging to runDir/name.log. The
// child is killed if the benchmark dies without stopping it.
func start(bin, runDir, name, addr string, args ...string) (*proc, error) {
	logPath := filepath.Join(runDir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		f.Close()
		close(p.done)
	}()
	procs.Lock()
	procs.live = append(procs.live, p)
	procs.Unlock()
	return p, nil
}

// stop asks the process to drain (SIGTERM, the operator's stop) and
// kills it if it has not exited within the grace period.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	procs.Lock()
	for i, q := range procs.live {
		if q == p {
			procs.live = append(procs.live[:i], procs.live[i+1:]...)
			break
		}
	}
	procs.Unlock()
}

// stopAll stops every process still running, most recent first.
func stopAll() {
	for {
		procs.Lock()
		n := len(procs.live)
		var p *proc
		if n > 0 {
			p = procs.live[n-1]
		}
		procs.Unlock()
		if p == nil {
			return
		}
		p.stop()
	}
}

// tail returns the last lines of a process log, for error messages.
func (p *proc) tail() string {
	b, _ := os.ReadFile(p.log)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, "\n")
}

// waitReady polls /healthz/ready until it answers 200.
func (p *proc) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (%v):\n%s", p.name, p.err, p.tail())
		default:
		}
		resp, err := c.Get(p.url + "/healthz/ready")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v:\n%s", p.name, timeout, p.tail())
}

// cpuSeconds reads the process's CPU time so far (user + system).
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", p.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", p.cmd.Process.Pid)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

// vmHWM reads the VmHWM line of a /proc status file, in MiB.
func vmHWM(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM", path)
}

// deployment is one running topology of a workload.
type deployment struct {
	// target receives the load: the node, the primary or the router.
	target *proc
	// nodes are the storage nodes whose state the gate checks (the
	// primary first in a replicated pair).
	nodes []*proc
	// follower is the replicated pair's follower, nil otherwise.
	follower *proc
	all      []*proc
	setup    time.Duration
}

// cpuSeconds sums the CPU time of every process of the deployment.
func (d *deployment) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range d.all {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func (d *deployment) stop() {
	for i := len(d.all) - 1; i >= 0; i-- {
		d.all[i].stop()
	}
}

// deploy starts a workload's topology and times it from the first
// launch until every process answers /healthz/ready. Start-up trains
// the models (core.Characterize at -scale small, seed 1) on every
// storage node.
func deploy(bin, runDir string, topo string, c *http.Client) (*deployment, error) {
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	node := []string{"-scale", "small", "-seed", "1"}
	d := &deployment{}
	launch := func(name string, args ...string) (*proc, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := start(bin, runDir, name, addr, args...)
		if err != nil {
			return nil, err
		}
		d.all = append(d.all, p)
		return p, nil
	}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	t0 := time.Now()
	switch topo {
	case "standalone":
		p, err := launch("node", node...)
		if err != nil {
			return fail(err)
		}
		if err := p.waitReady(c, 60*time.Second); err != nil {
			return fail(err)
		}
		d.target, d.nodes = p, []*proc{p}
	case "replicated":
		// Background snapshots are off: the load generator triggers them
		// at a fixed batch cadence instead, so every run stalls alike.
		pri, err := launch("primary", append(node, "-state-dir", filepath.Join(runDir, "primary"), "-snapshot-every", "0")...)
		if err != nil {
			return fail(err)
		}
		if err := pri.waitReady(c, 60*time.Second); err != nil {
			return fail(err)
		}
		fol, err := launch("follower", "-follow", pri.url, "-state-dir", filepath.Join(runDir, "follower"), "-snapshot-every", "0")
		if err != nil {
			return fail(err)
		}
		if err := fol.waitReady(c, 60*time.Second); err != nil {
			return fail(err)
		}
		d.target, d.nodes, d.follower = pri, []*proc{pri}, fol
	case "routed":
		a, err := launch("node-a", node...)
		if err != nil {
			return fail(err)
		}
		b, err := launch("node-b", node...)
		if err != nil {
			return fail(err)
		}
		for _, p := range []*proc{a, b} {
			if err := p.waitReady(c, 60*time.Second); err != nil {
				return fail(err)
			}
		}
		m, err := route.NewMap(1, []route.Node{{ID: "a", URL: a.url}, {ID: "b", URL: b.url}})
		if err != nil {
			return fail(err)
		}
		mapPath := filepath.Join(runDir, "cluster.json")
		if err := route.WriteMap(mapPath, m); err != nil {
			return fail(err)
		}
		r, err := launch("router", "-route", "-cluster", mapPath)
		if err != nil {
			return fail(err)
		}
		if err := r.waitReady(c, 60*time.Second); err != nil {
			return fail(err)
		}
		d.target, d.nodes = r, []*proc{a, b}
	default:
		return fail(fmt.Errorf("unknown topology %q", topo))
	}
	d.setup = time.Since(t0)
	return d, nil
}

// exportState fetches a node's full fleet state (GET /v1/admin/export)
// in the comparable form loadgen.CanonicalState produces in process.
func exportState(c *http.Client, p *proc) (*fleet.State, error) {
	resp, err := c.Get(p.url + "/v1/admin/export")
	if err != nil {
		return nil, fmt.Errorf("exporting %s: %w", p.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("exporting %s: %w", p.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("exporting %s: status %d: %s", p.name, resp.StatusCode, bytes.TrimSpace(body))
	}
	st, _, _, err := persist.DecodeBootstrap(body)
	if err != nil {
		return nil, fmt.Errorf("decoding %s export: %w", p.name, err)
	}
	st.Quality.StripDiagnostics()
	return st, nil
}

// getJSON decodes a GET response into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
