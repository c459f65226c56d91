package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hdMedian is the Harrell–Davis estimate of the median. Over the few
// passes or set-ups of one run it moves less from run to run than the
// middle sample does.
func hdMedian(xs []float64) float64 { return hdQuantile(xs, 0.5) }

// hdQuantile is the Harrell–Davis estimate of the q-quantile: a weighted
// mean of all order statistics, with Beta((n+1)q, (n+1)(1-q)) weights. A
// tail percentile from a hundred samples moves far less from run to run
// than the single order statistic nearest to it.
func hdQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		c := betaInc(float64(i)/float64(n), a, b)
		sum += (c - prev) * s[i-1]
		prev = c
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

// bucket is one cumulative histogram bucket: count of samples <= le.
type bucket struct {
	le    float64
	count float64
}

// bucketQuantile estimates the q-quantile of a cumulative histogram by
// linear interpolation inside the bucket that holds it, between the
// bound of the bucket listed below it (0 for the first) and its own (0
// when empty). A quantile in the +Inf bucket reports the largest finite
// bound.
func bucketQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].count <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	lower, below := 0.0, 0.0
	for _, b := range bs {
		if math.IsInf(b.le, 1) {
			return lower
		}
		if b.count >= rank && b.count > below {
			return lower + (b.le-lower)*(rank-below)/(b.count-below)
		}
		lower, below = b.le, b.count
	}
	return lower
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digestWriter hashes everything written to it.
type digestWriter struct{ h hash.Hash }

func newDigest() *digestWriter                      { return &digestWriter{sha256.New()} }
func (d *digestWriter) Write(p []byte) (int, error) { return d.h.Write(p) }
func (d *digestWriter) sum() string                 { return hex.EncodeToString(d.h.Sum(nil)) }

func digestBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// digestFile hashes one file's bytes.
func digestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	d := newDigest()
	if _, err := io.Copy(d, f); err != nil {
		return "", err
	}
	return d.sum(), nil
}

// digestDir hashes every regular file under dir by name and content.
func digestDir(dir string) (string, error) {
	d := newDigest()
	err := filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(d, "%s\x00%d\x00", rel, len(data))
		d.Write(data)
		return nil
	})
	return d.sum(), err
}

// procCPU returns the user+sys CPU seconds a process has used so far.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	k, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return (u + k) / 100, nil
}

// peakRSSMiB reads a process's high-water resident set size. It is per
// address space, so a freshly exec'd child does not inherit its
// parent's peak (as getrusage's ru_maxrss does).
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// hostSteal returns the machine's cumulative steal time and total CPU
// time from /proc/stat, in clock ticks (zeros where it cannot be read).
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func selfCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeSample is the slice of runtime/metrics the runtime layer
// reports, read in the process under test.
type runtimeSample struct {
	GCCPU   float64 `json:"gc_cpu_s"`
	Alloc   float64 `json:"alloc_bytes"`
	Cycles  float64 `json:"gc_cycles"`
	ProcCPU float64 `json:"proc_cpu_s"`
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{GCCPU: val(s[0].Value), Alloc: val(s[1].Value), Cycles: val(s[2].Value), ProcCPU: selfCPU()}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.GCCPU - b.GCCPU, a.Alloc - b.Alloc, a.Cycles - b.Cycles, a.ProcCPU - b.ProcCPU}
}

// setRuntime records the runtime layer's metrics from a delta.
func (r *result) setRuntime(d runtimeSample) {
	share := 0.0
	if d.ProcCPU > 0 {
		share = d.GCCPU / d.ProcCPU
	}
	r.set("runtime.gc_cpu_share", share)
	r.set("runtime.alloc_mb", d.Alloc/(1<<20))
	r.set("runtime.gc_cycles", d.Cycles)
}

// span is one timed call recorded by the benchmark around a public call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written once, at the end. A nil
// tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), run: "main"} }

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: ms(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = ms(time.Since(t.t0))
}

// timed runs fn inside a span and returns its duration in ms.
func (t *tracer) timed(name string, parent int, fn func() error) (float64, error) {
	id := t.start(name, parent)
	t0 := time.Now()
	err := fn()
	d := ms(time.Since(t0))
	t.end(id)
	return d, err
}

// adopt appends spans recorded in another process under a new run id,
// shifting their ids and offsetting their times to this tracer's clock.
func (t *tracer) adopt(run string, startedAt time.Time, spans []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	off := ms(startedAt.Sub(t.t0))
	for _, s := range spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Run, s.Start, s.End = run, s.Start+off, s.End+off
		t.spans = append(t.spans, s)
	}
}

// selfMS returns, per span name, the total duration minus the time its
// child spans cover (children of one span never overlap here).
func selfMS(spans []span, name string) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		self := s.dur()
		for _, c := range spans {
			if c.Parent == s.ID && c.Run == s.Run {
				self -= c.dur()
			}
		}
		total += self
	}
	return total
}

// totalMS sums the durations of every span with the name.
func totalMS(spans []span, name string) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
		}
	}
	return total
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
