package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/apps/kmeans"
	"repro/internal/apps/linsolve"
	"repro/internal/apps/neuralnet"
	"repro/internal/apps/pagerank"
	"repro/internal/apps/smoothing"
	"repro/internal/bench"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/quality"
	"repro/internal/webgraph"
)

// The oracle checks every job's output against the references the
// repository already has, which share no code with the framework: IC
// against a sequential implementation or exact solve, PIC against IC by
// the quality measures the paper's figures use, and BSP against mapred.
// A failed check fails the job it names.

// oracleFailure attributes a failed check to one job of the sequence.
type oracleFailure struct {
	job int
	msg string
}

func fail(job int, format string, args ...any) *oracleFailure {
	return &oracleFailure{job: job, msg: fmt.Sprintf(format, args...)}
}

func within(job int, name string, got, bound float64) *oracleFailure {
	fmt.Fprintf(os.Stderr, "oracle: %s = %.4g (bound %.4g)\n", name, got, bound)
	if math.IsNaN(got) || got > bound {
		return fail(job, "%s = %.6g exceeds %.6g", name, got, bound)
	}
	return nil
}

// checkPageRank checks rs = [IC, PIC]. IC must equal the sequential
// two-phase reference run for the same number of iterations, up to
// summation order (a hundredth of the rank tolerance); PIC must stay
// within 2% L1 of IC, the bound the integration suite holds.
func checkPageRank(g *webgraph.Graph, tolerance float64, rs []*jobResult) *oracleFailure {
	ic, pic := rs[0].ic, rs[1].pic
	if !ic.Converged || !pic.TopOffConverged {
		return fail(0, "pagerank did not converge (ic %v, pic %v)", ic.Converged, pic.TopOffConverged)
	}
	icRanks := pagerank.Ranks(ic.Model, g.N)
	ref := pagerank.Reference(g, 0.85, ic.Iterations)
	var worst, l1, norm float64
	for v := range ref {
		worst = math.Max(worst, math.Abs(icRanks[v]-ref[v]))
	}
	if err := within(0, "pagerank IC max |rank - reference|", worst, tolerance/100); err != nil {
		return err
	}
	picRanks := pagerank.Ranks(pic.Model, g.N)
	for v := range icRanks {
		l1 += math.Abs(picRanks[v] - icRanks[v])
		norm += icRanks[v]
	}
	return within(1, "pagerank PIC L1 deviation from IC", l1/norm, 0.02)
}

// checkKMeans checks rs = [IC, PIC]. IC must land on the sequential
// Lloyd reference from the same starting centroids (summed matched
// distance below the displacement threshold); PIC's Jagota index must
// be within 3% of IC's (the paper reports ≤2.75%). PIC may settle in a
// different local optimum than IC, so its centroids are judged by
// clustering quality, not by distance to IC's.
func checkKMeans(ps *data.PointSet, w *bench.Workload, rs []*jobResult) *oracleFailure {
	app := w.MakeApp().(*kmeans.App)
	ic, pic := rs[0].ic, rs[1].pic
	if !ic.Converged || !pic.TopOffConverged {
		return fail(0, "kmeans did not converge (ic %v, pic %v)", ic.Converged, pic.TopOffConverged)
	}
	icC := kmeans.Centroids(ic.Model)
	ref := kmeans.SequentialReference(ps.Points, kmeans.Centroids(w.MakeModel()), app.Threshold, w.ICOpts.MaxIterations)
	if err := within(0, "kmeans IC distance to sequential reference", quality.MatchCentroids(icC, ref), app.Threshold); err != nil {
		return err
	}
	picC := kmeans.Centroids(pic.Model)
	icQ, picQ := quality.JagotaIndex(ps.Points, icC), quality.JagotaIndex(ps.Points, picC)
	return within(1, "kmeans PIC Jagota index % difference from IC", quality.PercentDifference(picQ, icQ), 3)
}

// checkNeuralNet checks rs = [IC, PIC] on the held-out validation set:
// IC must beat chance (0.9 for ten classes) and PIC must train at least
// as far as IC within its epoch budget, give or take five points.
func checkNeuralNet(app *neuralnet.App, valid *data.OCRSet, rs []*jobResult) *oracleFailure {
	icErr := app.ModelError(rs[0].ic.Model, valid.Vectors, valid.Labels)
	if err := within(0, "neuralnet IC validation error", icErr, 0.85); err != nil {
		return err
	}
	picErr := app.ModelError(rs[1].pic.Model, valid.Vectors, valid.Labels)
	return within(1, "neuralnet PIC validation error above IC", picErr-icErr, 0.05)
}

// checkLinSolve checks rs = [IC, PIC] against the exact solution. Jacobi
// stops once no variable moves by the tolerance; at the system's
// contraction rate (≈1/1.35 per sweep) the remaining error is under
// three tolerances, so both must sit within ten.
func checkLinSolve(app *linsolve.App, n int, rs []*jobResult) *oracleFailure {
	golden, err := app.Golden()
	if err != nil {
		return fail(0, "linsolve golden solve: %v", err)
	}
	for i, m := range []*jobResult{rs[0], rs[1]} {
		x := linsolve.Solution(m.model(), n)
		if err := within(i, "linsolve "+m.spec.name+" max |x - golden|", x.Sub(golden).NormInf(), 10*app.Tolerance); err != nil {
			return err
		}
	}
	return nil
}

// maxPixelDelta is the largest per-pixel difference of two images.
func maxPixelDelta(a, b *data.Image) float64 {
	var worst float64
	for y := range a.Rows {
		worst = math.Max(worst, linalg.Vector(a.Rows[y]).Sub(b.Rows[y]).NormInf())
	}
	return worst
}

// checkSmoothing checks rs = [IC bsp, PIC bsp, IC mapred, PIC mapred].
// Mapred IC must match the sequential reference run to the same
// criterion; PIC must stay within the per-row tolerance of IC; and each
// BSP run must equal its mapred twin up to summation order.
func checkSmoothing(img *data.Image, app *smoothing.App, maxIters int, rs []*jobResult) *oracleFailure {
	images := make([]*data.Image, len(rs))
	for i, r := range rs {
		images[i] = smoothing.ImageOf(r.model(), img.Width, img.Height)
	}
	ref := smoothing.Reference(img, app.Mu, app.Tolerance, maxIters)
	if err := within(2, "smoothing IC max pixel delta to reference", maxPixelDelta(images[2], ref), app.Tolerance/100); err != nil {
		return err
	}
	if err := within(3, "smoothing PIC max pixel delta to IC", maxPixelDelta(images[3], images[2]), math.Sqrt(app.Tolerance)); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("smoothing %s max pixel delta to %s", rs[i].spec.name, rs[i+2].spec.name)
		if err := within(i, name, maxPixelDelta(images[i], images[i+2]), 1e-9); err != nil {
			return err
		}
	}
	return nil
}

// checkChaos fails the chaos workload unless every scripted fault
// fired over its job sequence: a node crash, transfer retries from the
// brownout, checksum re-sends from the bit-error windows, and poisoned
// replicas detected, all repaired, and scrubbed. A failure is charged to
// the last job.
func checkChaos(rs []*jobResult) *oracleFailure {
	l := map[string]float64{}
	countLayers(l, rs)
	last := len(rs) - 1
	for _, name := range []string{"mapred.node_crashes", "mapred.transfer_retries", "mapred.corrupt_retries", "dfs.detected_blocks", "dfs.scrubbed_bytes"} {
		if l[name] < 1 {
			return fail(last, "chaos script did not fire: %s = %v", name, l[name])
		}
	}
	if l["dfs.repair_ratio"] != 1 {
		return fail(last, "chaos script: dfs.repair_ratio = %v, want 1", l["dfs.repair_ratio"])
	}
	return nil
}

// paperRows are the simulated rows of the committed
// experiments_output.txt that seed 0 must reproduce, as the figures
// print them: simulated seconds to one decimal and iteration counts.
var paperRows = map[string]map[string]string{
	"dense-mapred": {
		"kmeans/ic/mapred":    "28.2 s, 40 iterations",      // Figure 2
		"kmeans/pic/mapred":   "5.9 s + 0.7 s, 3 BE + 1 TO", // Figure 2
		"linsolve/ic/mapred":  "1.7 s, 32 iterations",       // Figure 9
		"linsolve/pic/mapred": "0.5 s + 0.1 s, 9 BE + 1 TO", // Figure 9
	},
	"pagerank-mapred": {
		"pagerank/ic/mapred":  "14.3 s, 15 iterations",      // Figure 9
		"pagerank/pic/mapred": "5.0 s + 1.0 s, 5 BE + 1 TO", // Figure 9
	},
	"smoothing-bsp": {
		"smoothing/ic/mapred":  "5.8 s, 61 iterations",        // Figure 10
		"smoothing/pic/mapred": "1.5 s + 0.1 s, 10 BE + 1 TO", // Figure 10
	},
}

// paperRow renders a job's simulated result the way paperRows states it.
func paperRow(r *jobResult) string {
	if r.ic != nil {
		return fmt.Sprintf("%.1f s, %d iterations", float64(r.ic.Duration), r.ic.Iterations)
	}
	p := r.pic
	return fmt.Sprintf("%.1f s + %.1f s, %d BE + %d TO", float64(p.BEDuration), float64(p.TopOffDuration), p.BEIterations, p.TopOffIterations)
}

// checkPaperRows returns, per job index, a message for every job whose
// simulated row differs from the committed figure row.
func checkPaperRows(workload string, rs []*jobResult) map[int]string {
	out := map[int]string{}
	for i, r := range rs {
		want, ok := paperRows[workload][r.spec.name]
		if !ok {
			continue
		}
		if got := paperRow(r); got != want {
			out[i] = fmt.Sprintf("%s: simulated row %q differs from the committed figure row %q", r.spec.name, got, want)
		}
	}
	return out
}
