package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/model"
	"repro/internal/trace"
)

// simLayers are the trace.Layer values whose span durations the sim.*
// metrics sum.
var simLayers = map[string]bool{"mapred": true, "simnet": true, "dfs": true, "core": true, "bsp": true}

// tracedLayers records the per-layer metrics only the traced run has:
// host time inside the app hooks and the rest of the drivers, per-phase
// iteration times, program telemetry counts and simulated time by
// layer, and replays of the model and integrity layers on the models
// the run produced.
func tracedLayers(l map[string]float64, rs []*jobResult, caps []*capture, t *appTimes) {
	var drivers, collect time.Duration
	iters := map[core.Phase][]time.Duration{}
	for layer := range simLayers {
		l["sim."+layer+"_s"] = 0
	}
	for i, r := range rs {
		drivers += r.wall
		collect += r.collect
		for phase, d := range caps[i].iters {
			iters[phase] = append(iters[phase], d...)
		}
		l["trace.events"] += float64(r.tr.Len())
		for _, e := range r.tr.Events() {
			if layer := trace.Layer(e.Kind); simLayers[layer] {
				l["sim."+layer+"_s"] += float64(e.Duration())
			}
		}
		snap := r.reg.Snapshot()
		for _, name := range []string{"supersteps", "messages", "combined_messages"} {
			m, _ := snap.Get("bsp." + name) // absent on mapred: zero
			l["bsp."+name] += m.Value
		}
	}
	l["bsp.combine_ratio"] = ratio(l["bsp.combined_messages"], l["bsp.messages"])
	delete(l, "bsp.combined_messages")

	l["apps.iteration_s"] = t.iteration.Seconds()
	l["apps.partition_s"] = t.partition.Seconds()
	l["apps.merge_s"] = t.merge.Seconds()
	l["apps.converged_s"] = t.converged.Seconds()
	l["apps.vertex_program_s"] = t.vertexProgram.Seconds()
	l["core.self_s"] = (drivers - t.total()).Seconds()
	l["core.ic_iter_ms"] = medianMs(iters[core.PhaseIC])
	l["core.be_iter_ms"] = medianMs(iters[core.PhaseBestEffort])
	l["core.topoff_iter_ms"] = medianMs(iters[core.PhaseTopOff])
	l["obs.collect_s"] = collect.Seconds()
	replayModels(l, rs, caps)
}

// medianMs is the median duration in milliseconds, 0 for none.
func medianMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = d.Seconds() * 1000
	}
	return median(ms)
}

// perCall times fn over enough repetitions to fill 20 ms (at least
// three) and returns the mean time per call.
func perCall(fn func()) time.Duration {
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < 20*time.Millisecond {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// replayModels times the model and integrity layers' public calls on the
// models a traced run produced: each job's final model, and the delta
// between its last two observer samples.
func replayModels(l map[string]float64, rs []*jobResult, caps []*capture) {
	var keys, deltaKeys, frameBytes float64
	var enc, clone, delta, maxDelta, frame time.Duration
	var buf []byte
	for i, r := range rs {
		m := r.model()
		keys += float64(m.Len())
		enc += perCall(func() { buf = m.Encode(buf[:0]) })
		clone += perCall(func() { _ = m.Clone() })
		frameBytes += float64(len(buf))
		payload := append([]byte(nil), buf...)
		frame += perCall(func() {
			if _, err := integrity.Open(integrity.Seal(payload)); err != nil {
				panic(err)
			}
		})
		prev, next := caps[i].prev[0], caps[i].prev[1]
		if prev == nil || next == nil {
			continue
		}
		deltaKeys += float64(next.Len())
		delta += perCall(func() {
			buf = model.EncodeDelta(prev, next, buf[:0])
			if _, err := model.ApplyDeltaBytes(prev, buf); err != nil {
				panic(err)
			}
		})
		maxDelta += perCall(func() {
			_ = model.MaxFloatDelta(prev, next)
			_ = model.MaxVectorDelta(prev, next)
		})
	}
	l["model.encode_ns_per_key"] = ratio(float64(enc.Nanoseconds()), keys)
	l["model.clone_ns_per_key"] = ratio(float64(clone.Nanoseconds()), keys)
	l["model.delta_ns_per_key"] = ratio(float64(delta.Nanoseconds()), deltaKeys)
	l["model.maxdelta_ns_per_key"] = ratio(float64(maxDelta.Nanoseconds()), deltaKeys)
	l["integrity.frame_mb_per_s"] = ratio(frameBytes/(1<<20), frame.Seconds())
}
