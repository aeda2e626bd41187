package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/apps/kmeans"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/simcluster"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/writable"
)

// Scale-ladder ablation.
//
// The paper's testbed tops out at 90 machines; the ladder climbs past
// it. A tier t problem runs K-means on ≈20,000·t streamed records over
// ≈32·√t simulated nodes (so -scale 100 with the tier-10 rung reaches
// ~10⁷ records on 1,000+ nodes), with everything this PR adds engaged
// at once: splits are generated out-of-core (no O(dataset) generator
// buffer), checkpoints ship sparse deltas, and the best-effort merge
// runs both flat (every partial over the model home's core links) and
// hierarchical (rack-local pre-combine, one combined model per rack
// across the core). The ablation reports, per tier and strategy, the
// merge traffic split into total and core-crossing bytes, simulated
// time per iteration, and real wall clock — and holds the ladder to
// the repo's invariants: byte-identical outputs across engine worker
// counts at every tier, and a quiet Goodrich cost-model sentinel.

// mixtureSource deals a MixtureStream's records into mapred splits one
// chunk at a time — the out-of-core counterpart of kmeans.Records over
// a materialized PointSet, producing the same keys ("p<i>") and the
// same vectors in the same order.
//
// With shared=true the point vectors are carved from one flat arena
// that is resliced on every Records call, so a streaming pass allocates
// (almost) nothing — but every record aliases the same backing array.
// Shared sources are for StreamSplits-style chunk-at-a-time consumers
// ONLY; anything that retains records past the callback (including
// InputFromSource, whose Input keeps the Record structs and therefore
// their Vector headers) must use shared=false, which allocates a fresh
// vector per record.
type mixtureSource struct {
	stream *data.MixtureStream
	splits int
	shared bool
	arena  []float64
}

// newMixtureSource builds a streamed k-means dataset source with the
// same mixture geometry scaleWorkload uses.
func newMixtureSource(seed int64, n, k, dims, splits int, shared bool) *mixtureSource {
	sigma := 0.2 * (200.0 / math.Cbrt(float64(k)))
	return &mixtureSource{
		stream: data.NewMixtureStream(seed, n, k, dims, 100, sigma),
		splits: splits,
		shared: shared,
	}
}

// Splits implements mapred.SplitSource.
func (s *mixtureSource) Splits() int { return s.splits }

// Records implements mapred.SplitSource.
func (s *mixtureSource) Records(i int, dst []mapred.Record) []mapred.Record {
	lo, hi := mapred.SourceRange(i, s.splits, int64(s.stream.Len()))
	dims := s.stream.Dims()
	if s.shared {
		need := int(hi-lo) * dims
		if cap(s.arena) < need {
			s.arena = make([]float64, need)
		}
		s.arena = s.arena[:need]
	}
	off := 0
	for r := lo; r < hi; r++ {
		var vec linalg.Vector
		if s.shared {
			vec = s.stream.Point(int(r), linalg.Vector(s.arena[off:off+dims]))
			off += dims
		} else {
			vec = s.stream.Point(int(r), nil)
		}
		dst = append(dst, mapred.Record{Key: fmt.Sprintf("p%d", r), Value: writable.Vector(vec)})
	}
	return dst
}

// scaleWorkload is KMeansWorkload's out-of-core sibling: the same
// mixture geometry, thresholds and driver options, but the dataset
// exists only as a stream — MakeInput deals it into splits through
// InputFromSource and MakeModel seeds the centroids from the first k
// streamed points, so no O(dataset) generator buffer is ever built.
func scaleWorkload(name string, nodes, n, k, dims, partitions int, seed int64) (*Workload, *data.MixtureStream) {
	spacing := 200.0 / math.Cbrt(float64(k))
	sigma := 0.2 * spacing
	threshold := sigma / 16
	stream := data.NewMixtureStream(seed, n, k, dims, 100, sigma)
	w := &Workload{
		Name:    name,
		Cluster: simcluster.Large(nodes),
		MakeApp: func() core.PICApp {
			a := kmeans.New(k, threshold)
			a.BEThreshold = 2 * threshold
			return a
		},
		MakeInput: func(c *simcluster.Cluster) *mapred.Input {
			src := &mixtureSource{stream: stream, splits: c.MapSlots()}
			return mapred.InputFromSource(src, c)
		},
		MakeModel: func() *model.Model {
			// The stream interleaves components (label i%k), so the
			// first k points sample every cluster once — the same
			// "arbitrary but reproducible" seeding the legacy
			// generators got from their shuffle.
			m := model.New()
			for j := 0; j < k; j++ {
				m.Set(kmeans.CentroidKey(j), writable.Vector(stream.Point(j, nil)))
			}
			return m
		},
		ICOpts: core.ICOptions{MaxIterations: 200},
		PICOpts: core.PICOptions{
			Partitions:         partitions,
			MaxBEIterations:    20,
			MaxLocalIterations: 200,
		},
	}
	return w, stream
}

// tierShape maps a ladder tier to its problem size: nodes grow with
// √tier (so racks, and with them merge-tree fan-in, grow steadily) and
// records grow linearly.
func tierShape(tier float64) (nodes, racks, partitions, records int) {
	nodes = max(int(32*math.Sqrt(tier)), 8)
	racks = (nodes + 15) / 16
	partitions = 4 * racks
	records = max(int(20_000*tier), 5_000)
	return nodes, racks, partitions, records
}

// ScaleCell is one (tier, merge-strategy) run of the ladder.
type ScaleCell struct {
	// Tier is the rung (the configured -scale times the ladder step);
	// Strategy is "flat" or "hier".
	Tier     float64
	Strategy string
	// Problem shape at this rung.
	Nodes, Racks, Partitions, Records int
	// Iterations counts best-effort plus top-off rounds; Duration is
	// simulated time.
	Iterations int
	Duration   simtime.Duration
	// MergeBytes is the run's total scatter/gather merge traffic;
	// MergeCoreBytes is the subset that crossed the core switch — the
	// bytes the hierarchical tree exists to shrink.
	MergeBytes     int64
	MergeCoreBytes int64
	// Wall is real wall-clock time of the measured run.
	Wall time.Duration
	// Identical reports the workers-1 and workers-8 runs produced
	// byte-identical models and metrics.
	Identical bool
	// SentinelQuiet reports the Goodrich cost-model sentinel raised no
	// anomaly on the measured run.
	SentinelQuiet bool
	model         []byte
	metrics       string
}

// SimPerIter is simulated seconds per framework iteration.
func (c *ScaleCell) SimPerIter() simtime.Duration {
	if c.Iterations == 0 {
		return 0
	}
	return c.Duration / simtime.Duration(c.Iterations)
}

// ScaleResult holds the tier × strategy sweep.
type ScaleResult struct {
	Cells []ScaleCell
	// Stream holds the per-tier out-of-core split-generation stats:
	// peak single-split residency versus total streamed bytes.
	Stream map[float64]mapred.StreamStats
}

// MarshalJSON renders Stream's float tier keys as strings — JSON
// objects cannot carry float keys, and picbench -json encodes results
// verbatim.
func (r *ScaleResult) MarshalJSON() ([]byte, error) {
	stream := make(map[string]mapred.StreamStats, len(r.Stream))
	for tier, stats := range r.Stream {
		stream[strconv.FormatFloat(tier, 'g', -1, 64)] = stats
	}
	return json.Marshal(struct {
		Cells  []ScaleCell
		Stream map[string]mapred.StreamStats
	}{r.Cells, stream})
}

// scaleCellRun executes one PIC run of the cell's workload, optionally
// instrumented for the sentinel check.
func scaleCellRun(w *Workload, instrument bool) (*core.PICResult, *obs.Product, time.Duration, error) {
	rt := w.NewRuntime()
	// Checkpoints at ladder scale ship sparse deltas; restores must
	// still be exact (the delta tests pin that), and the model bytes
	// the run reports reflect the delta encoding.
	rt.SetDeltaCheckpoints(true)
	var tr *trace.Tracer
	var reg *metrics.Registry
	if instrument {
		tr = trace.New()
		reg = metrics.New()
		rt.SetTracer(tr)
		rt.SetObservability(reg)
	}
	in := w.MakeInput(rt.Cluster())
	start := time.Now()
	res, err := core.RunPIC(rt, w.MakeApp(), in, w.MakeModel(), w.PICOpts)
	wall := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	var p *obs.Product
	if instrument {
		p = obs.Collect(w.Name, tr, reg, obs.Options{Sentinel: obs.Sentinel{
			Factor:         4,
			ExpectedRounds: w.PICOpts.MaxBEIterations + w.PICOpts.MaxTopOffIterations + 4,
			BytesPerRound:  in.TotalBytes(),
		}})
	}
	return res, p, wall, nil
}

// sentinelQuiet reports whether the product carries no cost-model-bound
// anomaly.
func sentinelQuiet(p *obs.Product) bool {
	for _, a := range p.Anomalies {
		if a.Kind == "cost-model-bound" {
			return false
		}
	}
	return true
}

// AblationScale climbs the ladder: at each rung it runs the streamed
// K-means problem with the flat and the hierarchical merge, checks
// byte-identity across engine worker counts per strategy, and records
// the out-of-core residency of split generation.
func AblationScale() (*ScaleResult, error) {
	res := &ScaleResult{Stream: map[float64]mapred.StreamStats{}}
	defer SetEngineWorkers(0)
	for _, step := range []float64{1, 10} {
		tier := step * scale
		nodes, racks, partitions, records := tierShape(tier)
		const k, dims = 25, 3
		seed := int64(3)

		// Out-of-core residency proof at this rung: stream the whole
		// dataset through an arena-backed source and record how little
		// of it was ever resident at once.
		cluster := simcluster.New(simcluster.Large(nodes))
		src := newMixtureSource(seed, records, k, dims, cluster.MapSlots(), true)
		stats, err := mapred.StreamSplits(src, cluster, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: abl-scale tier %g stream: %w", tier, err)
		}
		res.Stream[tier] = stats

		for _, strategy := range []string{"flat", "hier"} {
			w, _ := scaleWorkload(fmt.Sprintf("scale-t%g-%s", tier, strategy),
				nodes, records, k, dims, partitions, seed)
			w.PICOpts.MaxBEIterations = 2
			w.PICOpts.MaxLocalIterations = 5
			w.PICOpts.MaxTopOffIterations = 1
			w.PICOpts.HierarchicalMerge = strategy == "hier"

			// Identity leg: one worker, uninstrumented.
			SetEngineWorkers(1)
			serial, _, _, err := scaleCellRun(w, false)
			if err != nil {
				return nil, fmt.Errorf("bench: abl-scale tier %g %s workers=1: %w", tier, strategy, err)
			}
			// Measured leg: eight workers, instrumented for the
			// sentinel. Simulated results must not notice the change.
			SetEngineWorkers(8)
			meas, p, wall, err := scaleCellRun(w, true)
			if err != nil {
				return nil, fmt.Errorf("bench: abl-scale tier %g %s workers=8: %w", tier, strategy, err)
			}

			cell := ScaleCell{
				Tier:       tier,
				Strategy:   strategy,
				Nodes:      nodes,
				Racks:      racks,
				Partitions: partitions,
				Records:    records,
				Iterations: meas.BEIterations + meas.TopOffIterations,
				Duration:   meas.Duration,

				MergeBytes:     meas.MergeTrafficBytes,
				MergeCoreBytes: meas.MergeCrossRackBytes,
				Wall:           wall,
				model:          meas.Model.Encode(nil),
				metrics:        fmt.Sprintf("%+v %v", meas.Metrics, meas.Duration),
			}
			cell.Identical = bytes.Equal(cell.model, serial.Model.Encode(nil)) &&
				cell.metrics == fmt.Sprintf("%+v %v", serial.Metrics, serial.Duration)
			cell.SentinelQuiet = sentinelQuiet(p)
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// cellsAt returns the (flat, hier) cell pair of one tier.
func (r *ScaleResult) cellsAt(tier float64) (flat, hier *ScaleCell) {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Tier != tier {
			continue
		}
		if c.Strategy == "flat" {
			flat = c
		} else {
			hier = c
		}
	}
	return flat, hier
}

// Tiers lists the rungs in run order.
func (r *ScaleResult) Tiers() []float64 {
	var tiers []float64
	for _, c := range r.Cells {
		if len(tiers) == 0 || tiers[len(tiers)-1] != c.Tier {
			tiers = append(tiers, c.Tier)
		}
	}
	return tiers
}

// Identical reports that every cell's workers-1 and workers-8 runs
// matched byte for byte.
func (r *ScaleResult) Identical() bool {
	for _, c := range r.Cells {
		if !c.Identical {
			return false
		}
	}
	return true
}

// SentinelsQuiet reports that no cell tripped the cost-model sentinel.
func (r *ScaleResult) SentinelsQuiet() bool {
	for _, c := range r.Cells {
		if !c.SentinelQuiet {
			return false
		}
	}
	return true
}

// CoreReduced reports that at every multi-rack rung the hierarchical
// merge moved strictly fewer core-crossing merge bytes than the flat
// merge. Single-rack rungs (smoke scales) have no core links to save
// and are skipped.
func (r *ScaleResult) CoreReduced() bool {
	for _, tier := range r.Tiers() {
		flat, hier := r.cellsAt(tier)
		if flat == nil || hier == nil || flat.Racks < 2 {
			continue
		}
		if hier.MergeCoreBytes >= flat.MergeCoreBytes {
			return false
		}
	}
	return true
}

// Render formats the ladder. Wall-clock columns vary run to run; the
// simulated columns and all three verdicts do not.
func (r *ScaleResult) Render() string {
	var t table
	t.title("Ablation — scale ladder (streamed K-means, flat vs hierarchical merge)")
	t.row("Tier / merge", "nodes", "racks", "parts", "records", "iters", "merge total", "merge core", "sim/iter", "wall")
	for _, c := range r.Cells {
		t.row(fmt.Sprintf("tier %g %s", c.Tier, c.Strategy),
			fmt.Sprint(c.Nodes),
			fmt.Sprint(c.Racks),
			fmt.Sprint(c.Partitions),
			fmt.Sprint(c.Records),
			fmt.Sprint(c.Iterations),
			FormatBytes(c.MergeBytes),
			FormatBytes(c.MergeCoreBytes),
			FormatDuration(c.SimPerIter()),
			c.Wall.Round(time.Millisecond).String())
	}
	for _, tier := range r.Tiers() {
		flat, hier := r.cellsAt(tier)
		if flat == nil || hier == nil || hier.MergeCoreBytes == 0 {
			continue
		}
		t.row(fmt.Sprintf("tier %g core-byte reduction", tier),
			fmt.Sprintf("%.2fx", float64(flat.MergeCoreBytes)/float64(hier.MergeCoreBytes)))
		if st, ok := r.Stream[tier]; ok && st.Bytes > 0 {
			t.row(fmt.Sprintf("tier %g stream residency", tier),
				fmt.Sprintf("%s of %s", FormatBytes(st.PeakResidentBytes), FormatBytes(st.Bytes)))
		}
	}
	verdict := func(ok bool, bad string) string {
		if ok {
			return "yes"
		}
		return bad
	}
	t.row("Hier. merge reduces core bytes", verdict(r.CoreReduced(), "NO"))
	t.row("Workers 1 vs 8 byte-identical", verdict(r.Identical(), "NO — parallelism changed simulated results"))
	t.row("Cost-model sentinel quiet", verdict(r.SentinelsQuiet(), "NO — run escaped the cost model"))
	return t.String()
}
