package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/apps/pagerank"
	"repro/internal/apps/smoothing"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/writable"
)

// heldOutSeed is the seed kept out of tuning: every workload must run
// and pass its oracle there, so a later claim can be checked on inputs
// its author did not look at.
const heldOutSeed = 7919

// jobSpec is one operation of a workload: one application run under one
// scheme on one backend.
type jobSpec struct {
	name    string // "<app>/<ic|pic>/<backend>"
	pic     bool
	backend core.Backend
	w       *bench.Workload
	// chaos, when set, is the fault script registered on the cluster
	// before the runtime is built.
	chaos *chaosScript
}

// workload is a built workload: its job sequence and the oracle that
// checks the outputs of a completed sequence.
type workload struct {
	name  string
	jobs  []*jobSpec
	check func(rs []*jobResult) *oracleFailure
	// telemetry attaches the program's tracer and registry to every
	// job and ends each with obs.Collect; it is part of the workload's
	// measured work, not benchmark tracing.
	telemetry bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"pagerank-mapred", "dense-mapred", "smoothing-bsp", "chaos-pagerank"}

// buildWorkload generates the named workload's data and job sequence.
// This is the data-generation half of setup; per-job runtime, input and
// model construction happens in prepareJob. Seed 0 reproduces the paper
// figures' inputs, so the simulated results equal the committed rows.
func buildWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "pagerank-mapred":
		return pagerankMapred(seed), nil
	case "dense-mapred":
		return denseMapred(seed), nil
	case "smoothing-bsp":
		return smoothingBSP(seed), nil
	case "chaos-pagerank":
		return chaosPagerank(seed), nil
	}
	return nil, errUnknownWorkload(name)
}

func errUnknownWorkload(name string) error {
	return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// permuteInput makes the workload's input splits deal its records in an
// order drawn from seed; seed 0 keeps the generator's order.
//
// All workloads but smoothing keep their generators at the paper seeds
// and take the benchmark seed this way: a fresh draw would change the
// amount of work (K-means IC takes 10 to 40 iterations and the 10k-page
// graph 15 to 35 across generator seeds; the neural net's validation
// error swings from 0.58 to 0.81), and wall time would measure the input
// rather than the program. The order still changes split composition,
// PIC partition dealing and summation order.
//
// Each record (all are vectors) is copied after the shuffle, so memory
// holds the records in their new order as it holds the generator's
// records in theirs.
// Without the copy, shuffled records point into memory laid out in the
// old order, and the garbage collector's heap walk on dense-mapred
// takes twice the CPU share it takes at seed 0.
func permuteInput(w *bench.Workload, seed int64) {
	if seed == 0 {
		return
	}
	base := w.MakeInput
	w.MakeInput = func(c *simcluster.Cluster) *mapred.Input {
		recs := base(c).Records()
		rand.New(rand.NewSource(seed)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		for i, r := range recs {
			recs[i] = mapred.Record{Key: strings.Clone(r.Key), Value: r.Value.(writable.Vector).Clone()}
		}
		return mapred.NewInput(recs, c, c.MapSlots())
	}
}

// icPIC returns the IC and PIC jobs of one application on one backend.
func icPIC(app string, w *bench.Workload, backend core.Backend) []*jobSpec {
	return []*jobSpec{
		{name: app + "/ic/" + string(backend), backend: backend, w: w},
		{name: app + "/pic/" + string(backend), pic: true, backend: backend, w: w},
	}
}

// pagerankMapred is the Figure 9 PageRank row: 20k pages, 18
// partitions, cross-edge fraction 0.05, on the small cluster. Its
// 99k-key string model makes the model layer, Go maps and GC dominate.
func pagerankMapred(seed int64) *workload {
	w, g := bench.PageRankWorkload("pagerank-fig9", simcluster.Small(), 20_000, 18, 0.05, 4)
	permuteInput(w, seed)
	return &workload{
		name:  "pagerank-mapred",
		jobs:  icPIC("pagerank", w, core.BackendMapred),
		check: func(rs []*jobResult) *oracleFailure { return checkPageRank(g, prTolerance(w), rs) },
	}
}

// denseMapred runs the three apps whose small models leave the host
// time in per-record arithmetic and mapred grouping: K-means at the
// Figure 2 configuration, neural-net training on 2,000 OCR samples and
// the Figure 9 linear solver.
func denseMapred(seed int64) *workload {
	km, ps := bench.KMeansWorkload("kmeans-fig2", simcluster.Medium(), 600_000, 25, 3, 6, 2)
	nn, nnApp, _, valid := bench.NeuralNetWorkload("neuralnet", simcluster.Medium(), 2_000, 6, 7)
	ls, lsApp := bench.LinSolveWorkload("linsolve-fig9", simcluster.Small(), 100, 6, 5)
	for _, w := range []*bench.Workload{km, nn, ls} {
		permuteInput(w, seed)
	}
	var jobs []*jobSpec
	jobs = append(jobs, icPIC("kmeans", km, core.BackendMapred)...)
	jobs = append(jobs, icPIC("neuralnet", nn, core.BackendMapred)...)
	jobs = append(jobs, icPIC("linsolve", ls, core.BackendMapred)...)
	return &workload{
		name: "dense-mapred",
		jobs: jobs,
		check: func(rs []*jobResult) *oracleFailure {
			if err := checkKMeans(ps, km, rs[0:2]); err != nil {
				return err
			}
			if err := checkNeuralNet(nnApp, valid, rs[2:4]); err != nil {
				return err
			}
			return checkLinSolve(lsApp, 100, rs[4:6])
		},
	}
}

// smoothingBSP is the Figure 10 smoothing row (1024×512, 16 partitions,
// medium cluster) run on the BSP backend and again on mapred; it is the
// only workload where bsp does real work. The seed draws a fresh noisy
// image (smoothing converges in 60 or 61 sweeps whatever the draw); the
// rows stay in order, because the app's Partition takes each band's
// records by position.
func smoothingBSP(seed int64) *workload {
	w, img := bench.SmoothingWorkload("smoothing-fig10", simcluster.Medium(), 1024, 512, 16, 8+seed)
	jobs := append(icPIC("smoothing", w, core.BackendBSP), icPIC("smoothing", w, core.BackendMapred)...)
	return &workload{
		name: "smoothing-bsp",
		jobs: jobs,
		check: func(rs []*jobResult) *oracleFailure {
			return checkSmoothing(img, w.MakeApp().(*smoothing.App), w.ICOpts.MaxIterations, rs)
		},
	}
}

// prTolerance is the rank-delta convergence bound of a PageRank workload.
func prTolerance(w *bench.Workload) float64 { return w.MakeApp().(*pagerank.App).Tolerance }

// chaosCluster is the abl-corruption testbed: 12 nodes in 4 racks with
// 8/12/16 MB/s node/rack/core links, so faults land on distinct
// endpoints.
func chaosCluster() simcluster.Config {
	return simcluster.Config{
		Nodes:              12,
		RackSize:           3,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 2,
		ComputeRate:        1e9,
		NodeBandwidth:      8e6,
		RackBandwidth:      12e6,
		CoreBandwidth:      16e6,
	}
}

// chaosInput is the DFS file the replica-poisoning events target. It is
// written from node 0, so HDFS-style placement puts replicas on node 0,
// a rack-0 peer and a remote rack.
const chaosInput = "input/pagerank-chaos"

// chaosScript is the fixed fault script of chaos-pagerank, in simulated
// seconds from the start of each job, so no calibration run sits in the
// timed region. Every fault must fire in every job; see checkChaos.
type chaosScript struct {
	crash   simcluster.FailurePlan
	net     simnet.NetworkPlan
	corrupt corrupt.Plan
}

// newChaosScript scripts faults early enough that both jobs meet them
// (healthy, IC takes ≈22 simulated seconds and PIC ≈5 s): rate-0.25
// bit-error windows on nodes 3–11 over [0, 8) s; a brownout of rack 2's
// uplink to 1% capacity over [0.5, 4) s; a crash of node 1, a rack-0
// holder of input replicas, at 1.5 s; and the input block's primary
// replica poisoned at 0.5 s and 2.5 s, each followed by a scrub pass
// half a second later. At the default seed the brownout's transfer
// retries land in IC and most checksum re-sends in PIC.
func newChaosScript() *chaosScript {
	s := &chaosScript{}
	s.crash.Events = []simcluster.NodeEvent{{Node: 1, Time: 1.5}}
	s.net.Faults = []simnet.NetFault{{Kind: simnet.FaultRackUplink, Rack: 2, Start: 0.5, End: 4, Factor: 0.01}}
	for n := 3; n < 12; n++ {
		s.corrupt.Events = append(s.corrupt.Events, corrupt.Event{
			Kind: corrupt.KindTransfer, Node: n, Start: 0, End: 8, Rate: 0.25, Seed: 0xC4A05 + uint64(n),
		})
	}
	for i, at := range []simtime.Duration{0.5, 2.5} {
		s.corrupt.Events = append(s.corrupt.Events,
			corrupt.Event{Kind: corrupt.KindBlockReplica, File: chaosInput, Block: 0, Node: corrupt.PrimaryReplica, At: at, Seed: 0x5EED + uint64(i)},
			corrupt.Event{Kind: corrupt.KindScrub, Budget: 1 << 30, At: at + 0.5, Seed: uint64(i)},
		)
	}
	return s
}

// chaosPagerank runs PageRank IC+PIC (10k pages, 12 partitions) on the
// 12-node cluster under the fixed fault script, with integrity checks,
// transfer timeout and retries, a merge quorum, and the program's
// telemetry attached. It is the only workload that exercises simcluster,
// simnet, dfs, integrity, corrupt and trace/metrics/obs.
func chaosPagerank(seed int64) *workload {
	w, g := bench.PageRankWorkload("pagerank-chaos", chaosCluster(), 10_000, 12, 0.05, 4)
	permuteInput(w, seed)
	w.PICOpts.MergeQuorum = 9
	w.PICOpts.MergeTimeout = 0.5
	script := newChaosScript()
	jobs := icPIC("pagerank", w, core.BackendMapred)
	for _, j := range jobs {
		j.chaos = script
	}
	return &workload{
		name:      "chaos-pagerank",
		jobs:      jobs,
		telemetry: true,
		check: func(rs []*jobResult) *oracleFailure {
			if err := checkChaos(rs); err != nil {
				return err
			}
			return checkPageRank(g, prTolerance(w), rs)
		},
	}
}

// prepared is a job ready to run: everything setup builds for it.
type prepared struct {
	spec *jobSpec
	rt   *core.Runtime
	app  core.PICApp
	in   *mapred.Input
	m0   *model.Model
	tr   *trace.Tracer
	reg  *metrics.Registry
}

// prepareJob builds the job's runtime, application, input and initial
// model. Non-chaos jobs use the workload's own runtime constructor, so
// their simulated results are those of the paper-figure experiments.
func prepareJob(j *jobSpec) (*prepared, error) {
	var rt *core.Runtime
	if j.chaos == nil {
		rt = j.w.NewRuntime()
	} else {
		cluster := simcluster.New(j.w.Cluster)
		cluster.SetFailurePlan(&j.chaos.crash)
		cluster.SetNetworkPlan(&j.chaos.net)
		cluster.SetCorruptionPlan(&j.chaos.corrupt)
		rt = core.NewRuntime(cluster, dfs.DefaultConfig())
		rt.Engine().SetCostModel(bench.HadoopCost())
		rt.Engine().TransferTimeout = 1
		rt.Engine().TransferRetries = 3
		rt.Engine().RetryBackoff = 0.25
		rt.FS().Create(chaosInput, 8<<20, 0)
	}
	if err := rt.SetBackend(j.backend); err != nil {
		return nil, err
	}
	return &prepared{spec: j, rt: rt, app: j.w.MakeApp(), in: j.w.MakeInput(rt.Cluster()), m0: j.w.MakeModel()}, nil
}
