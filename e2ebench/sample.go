package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// report is what one child process prints: one sample of a workload.
type report struct {
	Setup   float64  `json:"setup_s"`
	Wall    float64  `json:"wall_s"`
	CPU     float64  `json:"cpu_s"`
	PeakRSS float64  `json:"peak_rss_mb"`
	Jobs    int      `json:"jobs"`
	Failed  int      `json:"failed"`
	Errors  []string `json:"errors,omitempty"`
	Digest  string   `json:"digest"`
	// CheckSeconds is the time spent checking outputs after the
	// timed region.
	CheckSeconds float64            `json:"check_s"`
	Layers       map[string]float64 `json:"layers"`
}

// sampleMode selects what a child process does.
type sampleMode string

const (
	modeSample sampleMode = "sample" // set up, then run the timed job sequence
	modeSetup  sampleMode = "setup"  // set up only, for extra setup_s samples
	modeTraced sampleMode = "traced" // run with timing wrappers and telemetry
)

// sampleOpts configures one child process.
type sampleOpts struct {
	workload string
	seed     int64
	mode     sampleMode
	// check runs the output oracle (and the paper-row pin at seed 0)
	// after the timed region.
	check bool
	// noTelemetry drops the chaos workload's tracer, registry and
	// obs.Collect, for the telemetry-overhead comparison.
	noTelemetry bool
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goCounters are the Go runtime's cumulative counters the go.* layer
// metrics are differences of.
var goCounters = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGo() []float64 {
	s := make([]metrics.Sample, len(goCounters))
	for i, n := range goCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// runSample sets up the workload and runs its job sequence once. Setup
// (data generation, workload construction, runtime, input, model and
// app construction) is timed apart from the jobs; a forced GC before
// each job keeps setup garbage out of the timed region.
func runSample(o sampleOpts) (*report, error) {
	rep := &report{Layers: map[string]float64{}}
	start := time.Now()
	wl, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)

	traced := o.mode == modeTraced
	var (
		times     appTimes
		captures  []*capture
		rs        []*jobResult
		wall, cpu time.Duration
		goDelta   = make([]float64, len(goCounters))
	)
	for _, j := range wl.jobs {
		start := time.Now()
		p, err := prepareJob(j)
		if err != nil {
			rs = append(rs, &jobResult{spec: j, err: err})
			continue
		}
		if traced || (wl.telemetry && !o.noTelemetry) {
			attachTelemetry(p)
		}
		app := p.app
		var cp *capture
		if traced {
			if app, err = wrapApp(app, &times); err != nil {
				return nil, err
			}
			cp = &capture{}
			captures = append(captures, cp)
		}
		setup += time.Since(start)
		if o.mode == modeSetup {
			continue
		}

		runtime.GC()
		g0, c0 := readGo(), cpuTime()
		var r *jobResult
		if cp != nil {
			cp.start = time.Now()
			r = runJob(p, app, cp.observe)
		} else {
			r = runJob(p, app, nil)
		}
		cpu += cpuTime() - c0
		for i, v := range readGo() {
			goDelta[i] += v - g0[i]
		}
		wall += r.wall
		if wl.telemetry && !o.noTelemetry {
			wall += r.collect
		}
		rs = append(rs, r)
	}
	rep.Setup = setup.Seconds()
	if o.mode == modeSetup {
		return rep, nil
	}
	rep.Wall, rep.CPU, rep.PeakRSS = wall.Seconds(), cpu.Seconds(), peakRSSMB()
	rep.Jobs = len(rs)

	failed := map[int]string{}
	for i, r := range rs {
		if r.err != nil {
			failed[i] = fmt.Sprintf("%s: %v", r.spec.name, r.err)
		}
	}
	checkStart := time.Now()
	if o.check && len(failed) == 0 {
		if oe := wl.check(rs); oe != nil {
			failed[oe.job] = fmt.Sprintf("%s: %s", rs[oe.job].spec.name, oe.msg)
		}
		if o.seed == 0 {
			for i, msg := range checkPaperRows(wl.name, rs) {
				failed[i] = msg
			}
		}
	}
	rep.CheckSeconds = time.Since(checkStart).Seconds()
	for i := range rs {
		if msg, ok := failed[i]; ok {
			rep.Failed++
			rep.Errors = append(rep.Errors, msg)
		}
	}
	rep.Digest = digest(rs)

	var ok []*jobResult
	for _, r := range rs {
		if r.err == nil {
			ok = append(ok, r)
		}
	}
	countLayers(rep.Layers, ok)
	rep.Layers["go.alloc_mb"] = goDelta[0] / (1 << 20)
	rep.Layers["go.allocs"] = goDelta[1]
	rep.Layers["go.gc_cycles"] = goDelta[2]
	rep.Layers["go.gc_cpu_frac"] = ratio(goDelta[3], goDelta[4]-goDelta[5]) // GC share of non-idle CPU
	if traced && len(ok) == len(rs) {
		tracedLayers(rep.Layers, rs, captures, &times)
	}
	return rep, nil
}

// capture is a traced job's observer: it timestamps every iteration
// sample on the host clock and keeps the last two sample models for the
// model-layer replays.
type capture struct {
	start time.Time
	last  time.Time
	iters map[core.Phase][]time.Duration
	prev  [2]*model.Model
}

func (c *capture) observe(s core.Sample) {
	now := time.Now()
	from := c.last
	if from.IsZero() {
		from = c.start
	}
	if c.iters == nil {
		c.iters = map[core.Phase][]time.Duration{}
	}
	c.iters[s.Phase] = append(c.iters[s.Phase], now.Sub(from))
	c.last = now
	c.prev[0], c.prev[1] = c.prev[1], s.Model
}
