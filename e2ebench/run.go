package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// jobResult is one completed (or failed) job run.
type jobResult struct {
	spec *jobSpec
	rt   *core.Runtime
	ic   *core.ICResult
	pic  *core.PICResult
	err  error
	tr   *trace.Tracer
	reg  *metrics.Registry
	// wall is the host time of RunIC/RunPIC alone; collect that of the
	// obs.Collect call that follows when telemetry is attached.
	wall, collect time.Duration
}

func (r *jobResult) model() *model.Model {
	if r.pic != nil {
		return r.pic.Model
	}
	return r.ic.Model
}

func (r *jobResult) metrics() mapred.Metrics {
	if r.pic != nil {
		return r.pic.Metrics
	}
	return r.ic.Metrics
}

// attachTelemetry gives the job's runtime the program's tracer and
// registry, as the chaos workload and every traced run do.
func attachTelemetry(p *prepared) {
	p.tr, p.reg = trace.New(), metrics.New()
	p.rt.SetTracer(p.tr)
	p.rt.SetObservability(p.reg)
}

// runJob executes one prepared job through the public drivers, then
// derives its telemetry product when a tracer is attached. app is the
// application to run (the prepared one, or its timing wrapper); obsFn,
// when set, receives every iteration sample.
func runJob(p *prepared, app core.PICApp, obsFn core.Observer) *jobResult {
	r := &jobResult{spec: p.spec, rt: p.rt, tr: p.tr, reg: p.reg}
	start := time.Now()
	if p.spec.pic {
		opts := p.spec.w.PICOpts
		opts.Observer = obsFn
		r.pic, r.err = core.RunPIC(p.rt, app, p.in, p.m0, opts)
	} else {
		opts := p.spec.w.ICOpts
		opts.Observer = obsFn
		r.ic, r.err = core.RunIC(p.rt, app, p.in, p.m0, &opts)
	}
	r.wall = time.Since(start)
	if p.tr != nil && r.err == nil {
		start = time.Now()
		var opts obs.Options
		if p.spec.chaos != nil {
			opts.Plan = &p.spec.chaos.net
		}
		obs.Collect(p.spec.name, p.tr, p.reg, opts)
		r.collect = time.Since(start)
	}
	return r
}

// digest fingerprints everything the program computed in a job
// sequence: final model encodings, simulated durations, iteration
// counts, mapred metrics and DFS integrity counters. Untraced, traced
// and telemetry-off runs of one seed must agree on it.
func digest(rs []*jobResult) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%s|", r.spec.name)
		if r.err != nil {
			fmt.Fprintf(h, "error %v|", r.err)
			continue
		}
		h.Write(r.model().Encode(nil))
		if r.ic != nil {
			fmt.Fprintf(h, "|%v|%d|%v|%+v|%d", r.ic.Duration, r.ic.Iterations, r.ic.Converged, r.ic.Metrics, r.ic.ModelUpdateBytes)
		} else {
			p := r.pic
			fmt.Fprintf(h, "|%v|%v|%v|%d|%v|%d|%v|%+v|%+v|%+v|%d|%d|%d|%d|%d|%d|%d",
				p.Duration, p.BEDuration, p.TopOffDuration, p.BEIterations, p.LocalIterations,
				p.TopOffIterations, p.TopOffConverged, p.Metrics, p.BEMetrics, p.TopOffMetrics,
				p.ModelUpdateBytes, p.RepartitionBytes, p.MergeTrafficBytes, p.GroupRepairs,
				p.LostPartials, p.RejectedPartials, len(p.DegradedMerges))
		}
		fmt.Fprintf(h, "|%+v|%d\n", r.rt.FS().Integrity(), r.rt.IntegrityRollbacks())
	}
	return hex.EncodeToString(h.Sum(nil))
}
