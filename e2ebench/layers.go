package main

// layerMetric is one per-layer metric of the traced run. better says
// which direction an optimisation of the layer should move it; the
// benchmark bounds none of them.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics lists every per-layer metric in BENCHMARK.json order.
// README.md says what each measures and which end-to-end metric it
// should move on which workload.
var layerMetrics = []layerMetric{
	{"apps.iteration_s", "s", "lower"},
	{"apps.partition_s", "s", "lower"},
	{"apps.merge_s", "s", "lower"},
	{"apps.converged_s", "s", "lower"},
	{"apps.vertex_program_s", "s", "lower"},
	{"core.self_s", "s", "lower"},
	{"core.ic_iter_ms", "ms", "lower"},
	{"core.be_iter_ms", "ms", "lower"},
	{"core.topoff_iter_ms", "ms", "lower"},
	{"core.ic_iterations", "count", "lower"},
	{"core.be_iterations", "count", "lower"},
	{"core.local_iterations", "count", "lower"},
	{"core.topoff_iterations", "count", "lower"},
	{"core.model_update_bytes", "B", "lower"},
	{"core.merge_bytes", "B", "lower"},
	{"core.repartition_bytes", "B", "lower"},
	{"core.rollbacks", "count", "lower"},
	{"core.rejected_partials", "count", "lower"},
	{"core.merge_accept_ratio", "ratio", "higher"},
	{"mapred.jobs", "count", "lower"},
	{"mapred.local_records", "count", "lower"},
	{"mapred.map_output_bytes", "B", "lower"},
	{"mapred.shuffle_network_bytes", "B", "lower"},
	{"mapred.delta_bytes", "B", "lower"},
	{"mapred.transfer_retries", "count", "lower"},
	{"mapred.corrupt_retries", "count", "lower"},
	{"mapred.retry_bytes", "B", "lower"},
	{"mapred.node_crashes", "count", "lower"},
	{"mapred.rescheduled_tasks", "count", "lower"},
	{"mapred.rereplication_bytes", "B", "lower"},
	{"mapred.cache_hit_ratio", "ratio", "higher"},
	{"bsp.supersteps", "count", "lower"},
	{"bsp.messages", "count", "lower"},
	{"bsp.combine_ratio", "ratio", "higher"},
	{"model.keys", "count", "lower"},
	{"model.encoded_bytes", "B", "lower"},
	{"model.encode_ns_per_key", "ns/key", "lower"},
	{"model.clone_ns_per_key", "ns/key", "lower"},
	{"model.delta_ns_per_key", "ns/key", "lower"},
	{"model.maxdelta_ns_per_key", "ns/key", "lower"},
	{"dfs.detected_blocks", "count", "lower"},
	{"dfs.repaired_bytes", "B", "lower"},
	{"dfs.scrubbed_bytes", "B", "lower"},
	{"dfs.repair_ratio", "ratio", "higher"},
	{"integrity.frame_mb_per_s", "MB/s", "higher"},
	{"trace.events", "count", "lower"},
	{"obs.collect_s", "s", "lower"},
	{"telemetry.overhead_frac", "ratio", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.allocs", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"sim.ic_s", "s", "lower"},
	{"sim.pic_s", "s", "lower"},
	{"sim.mapred_s", "s", "lower"},
	{"sim.simnet_s", "s", "lower"},
	{"sim.dfs_s", "s", "lower"},
	{"sim.core_s", "s", "lower"},
	{"sim.bsp_s", "s", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
}

// countLayers records the per-layer counts every run reports: all come
// from results and counters the program already returns, and all repeat
// exactly from run to run.
func countLayers(l map[string]float64, rs []*jobResult) {
	var partials, rejected, hits, misses float64
	var detected, repaired float64
	for _, r := range rs {
		m := r.metrics()
		if r.ic != nil {
			l["core.ic_iterations"] += float64(r.ic.Iterations)
			l["core.model_update_bytes"] += float64(r.ic.ModelUpdateBytes)
			l["sim.ic_s"] += float64(r.ic.Duration)
		} else {
			p := r.pic
			l["core.be_iterations"] += float64(p.BEIterations)
			l["core.topoff_iterations"] += float64(p.TopOffIterations)
			for _, it := range p.LocalIterations {
				for _, n := range it {
					l["core.local_iterations"] += float64(n)
				}
			}
			l["core.model_update_bytes"] += float64(p.ModelUpdateBytes)
			l["core.merge_bytes"] += float64(p.MergeTrafficBytes)
			l["core.repartition_bytes"] += float64(p.RepartitionBytes)
			l["core.rejected_partials"] += float64(p.RejectedPartials)
			l["sim.pic_s"] += float64(p.Duration)
			partials += float64(p.BEIterations * r.spec.w.PICOpts.Partitions)
			rejected += float64(p.RejectedPartials + p.LostPartials)
			for _, d := range p.DegradedMerges {
				rejected += float64(len(d.Stale))
			}
		}
		l["core.rollbacks"] += float64(r.rt.IntegrityRollbacks())

		l["mapred.jobs"] += float64(m.Jobs)
		l["mapred.local_records"] += float64(m.LocalRecords)
		l["mapred.map_output_bytes"] += float64(m.MapOutputBytes)
		l["mapred.shuffle_network_bytes"] += float64(m.ShuffleNetworkBytes)
		l["mapred.transfer_retries"] += float64(m.TransferRetries)
		l["mapred.corrupt_retries"] += float64(m.CorruptRetries)
		l["mapred.retry_bytes"] += float64(m.RetryBytes + m.CorruptRetryBytes)
		l["mapred.node_crashes"] += float64(m.NodeCrashes)
		l["mapred.rescheduled_tasks"] += float64(m.RescheduledTasks)
		l["mapred.rereplication_bytes"] += float64(m.ReReplicationBytes)
		cs := r.rt.LoopCacheStats()
		l["mapred.delta_bytes"] += float64(cs.DeltaBytes)
		hits += float64(cs.Hits)
		misses += float64(cs.Misses)

		in := r.rt.FS().Integrity()
		l["dfs.detected_blocks"] += float64(in.DetectedBlocks)
		l["dfs.repaired_bytes"] += float64(in.RepairedBytes)
		l["dfs.scrubbed_bytes"] += float64(in.ScrubbedBytes)
		detected += float64(in.DetectedBlocks)
		repaired += float64(in.RepairedBlocks)

		fm := r.model()
		l["model.keys"] += float64(fm.Len())
		l["model.encoded_bytes"] += float64(len(fm.Encode(nil)))
	}
	l["core.merge_accept_ratio"] = ratio(partials-rejected, partials)
	l["mapred.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["dfs.repair_ratio"] = ratio(repaired, detected)
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
