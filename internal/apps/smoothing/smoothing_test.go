package smoothing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/writable"
)

func testRuntime() *core.Runtime {
	cluster := simcluster.New(simcluster.Config{
		Nodes:              6,
		RackSize:           6,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 4,
		ComputeRate:        1e8,
		NodeBandwidth:      125e6,
		RackBandwidth:      750e6,
		CoreBandwidth:      750e6,
	})
	return core.NewRuntime(cluster, dfs.Config{Replication: 3, BlockSize: 64 << 20})
}

func maxImageDiff(a, b *data.Image) float64 {
	var worst float64
	for y := range a.Rows {
		for x := range a.Rows[y] {
			if d := math.Abs(a.Rows[y][x] - b.Rows[y][x]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestNewValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { New(0, 4, 0.5, 1e-3) },
		func() { New(4, 0, 0.5, 1e-3) },
		func() { New(4, 4, 0, 1e-3) },
		func() { New(4, 4, 0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestOneSweepMatchesReferenceStep(t *testing.T) {
	img := data.NoisyImage(1, 16, 12, 10)
	app := New(16, 12, 0.5, 1e-9)
	rt := testRuntime()
	in := mapred.NewInput(Records(img), rt.Cluster(), 6)
	m1, err := app.Iteration(rt, in, InitialModel(img))
	if err != nil {
		t.Fatal(err)
	}
	oneStep := Reference(img, 0.5, 0, 1) // exactly one sweep
	got := ImageOf(m1, 16, 12)
	if d := maxImageDiff(got, oneStep); d > 1e-12 {
		t.Fatalf("distributed sweep deviates from sequential by %v", d)
	}
}

func TestICConvergesToReference(t *testing.T) {
	img := data.NoisyImage(2, 20, 20, 15)
	app := New(20, 20, 0.5, 1e-6)
	rt := testRuntime()
	in := mapred.NewInput(Records(img), rt.Cluster(), rt.Cluster().MapSlots())
	res, err := core.RunIC(rt, app, in, InitialModel(img), &core.ICOptions{MaxIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("smoothing did not converge")
	}
	want := Reference(img, 0.5, 1e-9, 10000)
	got := ImageOf(res.Model, 20, 20)
	if d := maxImageDiff(got, want); d > 1e-3 {
		t.Fatalf("converged image deviates from reference by %v", d)
	}
}

func TestSmoothingReducesNoise(t *testing.T) {
	img := data.NoisyImage(3, 24, 24, 20)
	smoothed := Reference(img, 0.5, 1e-9, 10000)
	// Total variation (sum of neighbor differences) must drop.
	tv := func(im *data.Image) float64 {
		var s float64
		for y := 0; y < im.Height; y++ {
			for x := 0; x+1 < im.Width; x++ {
				s += math.Abs(im.Rows[y][x+1] - im.Rows[y][x])
			}
		}
		return s
	}
	if tv(smoothed) >= tv(img) {
		t.Fatal("smoothing did not reduce total variation")
	}
}

func TestPartitionBandsWithHalos(t *testing.T) {
	img := data.NoisyImage(4, 8, 12, 5)
	app := New(8, 12, 0.5, 1e-6)
	rt := testRuntime()
	in := mapred.NewInput(Records(img), rt.Cluster(), 6)
	subs, err := app.Partition(in, InitialModel(img), 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for g, sub := range subs {
		rows += len(sub.Records)
		halos := 0
		for _, k := range sub.Model.Keys() {
			if k[:4] == "halo" {
				halos++
			}
		}
		// Interior bands have two halos, edge bands one.
		want := 2
		if g == 0 || g == 2 {
			want = 1
		}
		if halos != want {
			t.Fatalf("band %d has %d halos, want %d", g, halos, want)
		}
	}
	if rows != 12 {
		t.Fatalf("bands cover %d rows", rows)
	}
}

// Bands pick their records by row, so an input whose rows arrive out of
// order partitions into the same sub-problems as the ordered input.
func TestPartitionShuffledRowsMatchesOrdered(t *testing.T) {
	img := data.NoisyImage(9, 8, 13, 5)
	app := New(8, 13, 0.5, 1e-6)
	rt := testRuntime()
	recs := Records(img)
	shuffled := append([]mapred.Record(nil), recs...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	want, err := app.Partition(mapred.NewInput(recs, rt.Cluster(), 6), InitialModel(img), 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := app.Partition(mapred.NewInput(shuffled, rt.Cluster(), 6), InitialModel(img), 4)
	if err != nil {
		t.Fatal(err)
	}
	for g := range want {
		if !got[g].Model.Equal(want[g].Model) {
			t.Fatalf("band %d: sub-model differs from the ordered input's", g)
		}
		if len(got[g].Records) != len(want[g].Records) {
			t.Fatalf("band %d: %d records, want %d", g, len(got[g].Records), len(want[g].Records))
		}
		for i, rec := range want[g].Records {
			if got[g].Records[i].Key != rec.Key || !writable.Equal(got[g].Records[i].Value, rec.Value) {
				t.Fatalf("band %d record %d = %q, want %q", g, i, got[g].Records[i].Key, rec.Key)
			}
		}
	}
	shuffled[0] = shuffled[1]
	if _, err := app.Partition(mapred.NewInput(shuffled, rt.Cluster(), 6), InitialModel(img), 4); err == nil {
		t.Fatal("input with a repeated row accepted")
	}
}

func TestPartitionTooManyBands(t *testing.T) {
	img := data.NoisyImage(5, 4, 4, 5)
	app := New(4, 4, 0.5, 1e-6)
	rt := testRuntime()
	in := mapred.NewInput(Records(img), rt.Cluster(), 4)
	if _, err := app.Partition(in, InitialModel(img), 10); err == nil {
		t.Fatal("p > rows accepted")
	}
}

func TestMergeStitchesBands(t *testing.T) {
	img := data.NoisyImage(6, 8, 9, 5)
	app := New(8, 9, 0.5, 1e-6)
	rt := testRuntime()
	in := mapred.NewInput(Records(img), rt.Cluster(), 6)
	m := InitialModel(img)
	subs, err := app.Partition(in, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	models := modelsOf(subs)
	merged, err := app.Merge(models, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 9 {
		t.Fatalf("merged model has %d rows", merged.Len())
	}
	if !merged.Equal(m) {
		t.Fatal("unmodified partition-merge round trip changed the image")
	}
}

func TestPICConvergesToReference(t *testing.T) {
	img := data.NoisyImage(7, 16, 18, 15)
	app := New(16, 18, 0.5, 1e-6)
	rt := testRuntime()
	in := mapred.NewInput(Records(img), rt.Cluster(), rt.Cluster().MapSlots())
	pic, err := core.RunPIC(rt, app, in, InitialModel(img), core.PICOptions{
		Partitions:         6,
		MaxBEIterations:    200,
		MaxLocalIterations: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pic.TopOffConverged {
		t.Fatal("top-off did not converge")
	}
	want := Reference(img, 0.5, 1e-9, 20000)
	got := ImageOf(pic.Model, 16, 18)
	if d := maxImageDiff(got, want); d > 2e-3 {
		t.Fatalf("PIC image deviates from reference by %v", d)
	}
}

func TestImageOfRoundTrip(t *testing.T) {
	img := data.NoisyImage(8, 6, 5, 3)
	m := InitialModel(img)
	out := ImageOf(m, 6, 5)
	if d := maxImageDiff(img, out); d != 0 {
		t.Fatalf("round trip changed pixels by %v", d)
	}
	// Model rows must be copies.
	row, _ := m.Vector(RowKey(0))
	row[0] = 1e9
	if img.Rows[0][0] == 1e9 {
		t.Fatal("InitialModel shares storage with the image")
	}
}

func modelsOf(subs []core.SubProblem) []*model.Model {
	out := make([]*model.Model, len(subs))
	for i := range subs {
		out[i] = subs[i].Model
	}
	return out
}

// Property: one smoothing sweep is a contraction in the max norm (the
// implicit system is diagonally dominant), so distributed sweeps can
// never diverge.
func TestQuickSweepIsContraction(t *testing.T) {
	f := func(seed int64) bool {
		a := data.NoisyImage(seed, 12, 10, 20)
		b := data.NoisyImage(seed+1000, 12, 10, 20)
		before := maxImageDiff(a, b)
		if before == 0 {
			return true
		}
		// One sweep of each from the same data-fidelity anchor (a's
		// original pixels) — only the current state differs.
		sweepA := Reference(a, 2.0, 0, 1)
		// Reference anchors to its input; to isolate the linear part,
		// apply the same operator by smoothing b's state against b.
		sweepB := Reference(b, 2.0, 0, 1)
		// The affine parts differ by the anchors, so compare the
		// contraction of the difference of states under the linear
		// part: |S(a)-S(b)| ≤ |anchor diff|/(1+µn) + µn/(1+µn)·|a-b|
		// ≤ |a-b| when anchors equal states (as here).
		return maxImageDiff(sweepA, sweepB) <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
