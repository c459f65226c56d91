package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one cmd/serve child process.
type server struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	started time.Time
	exited  chan error
}

// startServer boots cmd/serve on an ephemeral loopback port and waits
// for its banner. The client holds at most poolWidth connections.
func startServer(e *env, args ...string) (*server, error) {
	logf, err := os.Create(filepath.Join(e.work, fmt.Sprintf("serve-%d.log", time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(e.opt.serveBin, append([]string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(poolWidth), "-log-level", "warn"}, args...)...)
	cmd.Stderr = logf
	// A server must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{
		cmd:     cmd,
		started: time.Now(),
		exited:  make(chan error, 1),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: poolWidth, MaxIdleConnsPerHost: poolWidth},
		},
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	banner := make(chan string, 1)
	go func() {
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		banner <- line
		_, _ = io.Copy(io.Discard, br)
		s.exited <- cmd.Wait()
	}()
	select {
	case line := <-banner:
		i := strings.Index(line, "http://")
		if i < 0 {
			s.kill()
			return nil, fmt.Errorf("serve banner %q", line)
		}
		s.base = strings.Fields(line[i:])[0]
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, fmt.Errorf("serve did not print its address")
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// stop interrupts the server, lets it drain, and waits for it to exit.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	select {
	case err := <-s.exited:
		return err
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("serve did not drain within 60 s")
	}
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *server) getBytes(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy() error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.getBytes("/healthz"); err == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("serve not healthy within 20 s")
}

// jobSpec is the wire form of a submitted job (a subset of
// service.JobSpec).
type jobSpec struct {
	Seed          int64  `json:"seed"`
	Sites         int    `json:"sites"`
	PagesPerSite  int    `json:"pages_per_site"`
	Workers       int    `json:"workers"`
	SiteWorkers   int    `json:"site_workers"`
	DatasetFormat string `json:"dataset_format"`
}

type jobView struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	Error      string     `json:"error"`
	FinishedAt *time.Time `json:"finished_at"`
}

// submit posts a job; it returns the HTTP status and the job's view.
func (s *server) submit(spec jobSpec) (int, jobView, error) {
	body, _ := json.Marshal(spec)
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, jobView{}, err
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&v)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, v, err
}

// jobPoll is how often a client polls an unfinished job. Latency is taken
// from the server's finished_at stamp, so the interval only delays
// detection, not the measurement.
const jobPoll = 50 * time.Millisecond

// await polls a job until it reaches a terminal state or the deadline.
func (s *server) await(v jobView, deadline time.Time) (jobView, error) {
	for {
		switch v.State {
		case "done", "failed", "canceled":
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("job %s still %s at the deadline", v.ID, v.State)
		}
		time.Sleep(jobPoll)
		if err := s.getJSON("/v1/jobs/"+v.ID, &v); err != nil {
			return v, err
		}
	}
}

// runJob submits one job and waits for it.
func (s *server) runJob(spec jobSpec) (jobView, error) {
	code, v, err := s.submit(spec)
	if err != nil {
		return v, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return v, fmt.Errorf("submit: HTTP %d", code)
	}
	v, err = s.await(v, time.Now().Add(60*time.Second))
	if err == nil && v.State != "done" {
		err = fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
	}
	return v, err
}

// promSnapshot is a parsed /metrics exposition: series → value.
type promSnapshot map[string]float64

func (s *server) scrape() (promSnapshot, error) {
	b, err := s.getBytes("/metrics")
	if err != nil {
		return nil, err
	}
	out := promSnapshot{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// histogramDelta returns the cumulative buckets a family gained between
// two snapshots. The exposition lists only non-empty buckets, so a
// bucket missing from the earlier snapshot held the cumulative count of
// the bucket below it.
func histogramDelta(before, after promSnapshot, family string) []bucket {
	b0, b1 := promBuckets(before, family), promBuckets(after, family)
	for i := range b1 {
		prev := 0.0
		for _, b := range b0 {
			if b.le <= b1[i].le {
				prev = b.count
			}
		}
		b1[i].count -= prev
	}
	return b1
}

// promBuckets parses a histogram family's cumulative buckets, sorted by
// upper bound.
func promBuckets(snap promSnapshot, family string) []bucket {
	prefix := family + `_bucket{le="`
	var bs []bucket
	for k, v := range snap {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(k[len(prefix):], `"}`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le: le, count: v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	return bs
}

// memStats is the server's runtime.MemStats slice that the runtime layer
// reports, read from /debug/pprof/heap?debug=1.
type memStats struct {
	totalAlloc, numGC, gcCPUFraction float64
	uptime                           float64
	procCPU                          float64
}

func (s *server) memStats() (memStats, error) {
	var m memStats
	b, err := s.getBytes("/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	m.uptime = time.Since(s.started).Seconds()
	for _, line := range strings.Split(string(b), "\n") {
		var dst *float64
		switch {
		case strings.HasPrefix(line, "# TotalAlloc = "):
			dst = &m.totalAlloc
		case strings.HasPrefix(line, "# NumGC = "):
			dst = &m.numGC
		case strings.HasPrefix(line, "# GCCPUFraction = "):
			dst = &m.gcCPUFraction
		default:
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[strings.Index(line, "=")+1:]), 64)
		if err != nil {
			return m, err
		}
		*dst = v
	}
	m.procCPU, err = procCPU(s.pid())
	return m, err
}

// runtimeDelta converts two server MemStats readings into the runtime
// layer's delta. GCCPUFraction is GC CPU over GOMAXPROCS × uptime, so
// the GC CPU seconds at each reading are fraction × uptime × GOMAXPROCS
// (the server runs with the default, nproc).
func runtimeDelta(a, b memStats, gomaxprocs int) runtimeSample {
	gc := func(m memStats) float64 { return m.gcCPUFraction * m.uptime * float64(gomaxprocs) }
	return runtimeSample{
		GCCPU:   gc(b) - gc(a),
		Alloc:   b.totalAlloc - a.totalAlloc,
		Cycles:  b.numGC - a.numGC,
		ProcCPU: b.procCPU - a.procCPU,
	}
}
