package main

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps/kmeans"
	"repro/internal/apps/linsolve"
	"repro/internal/apps/neuralnet"
	"repro/internal/apps/pagerank"
	"repro/internal/apps/smoothing"
	"repro/internal/core"
)

func exportedMethods(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumMethod(); i++ {
		out = append(out, t.Method(i).Name)
	}
	sort.Strings(out)
	return out
}

// TestWrappersKeepMethodSets guards the traced run's identity with the
// timed one: core type-asserts optional interfaces (LoopPartitioner,
// KeyMerger, WeightedKeyMerger, MergeFinalizer, VertexApp,
// BEConvergedApp), so a timing wrapper must expose exactly the exported
// methods of the app it wraps — no fewer, and no extra one that would
// switch a driver onto another path.
func TestWrappersKeepMethodSets(t *testing.T) {
	var times appTimes
	for _, app := range []core.PICApp{&kmeans.App{}, &linsolve.App{}, &neuralnet.App{}, &pagerank.App{}, &smoothing.App{}} {
		w, err := wrapApp(app, &times)
		if err != nil {
			t.Fatal(err)
		}
		got, want := exportedMethods(reflect.TypeOf(w)), exportedMethods(reflect.TypeOf(app))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T wraps %T with methods %v, want %v", w, app, got, want)
		}
	}
}

// runAll runs every workload at one seed untraced with the output
// oracle, then traced, and requires both to pass and to agree on the
// digest and on every count.
func runAll(t *testing.T, seed int64) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain, err := runSample(sampleOpts{workload: name, seed: seed, mode: modeSample, check: true})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Failed > 0 {
				t.Fatalf("%d of %d jobs failed: %v", plain.Failed, plain.Jobs, plain.Errors)
			}
			traced, err := runSample(sampleOpts{workload: name, seed: seed, mode: modeTraced})
			if err != nil {
				t.Fatal(err)
			}
			if traced.Digest != plain.Digest {
				t.Fatal("traced run computed different outputs than the untraced run")
			}
			for k, v := range plain.Layers {
				if k[:3] != "go." && traced.Layers[k] != v {
					t.Errorf("%s: traced %v, untraced %v", k, traced.Layers[k], v)
				}
			}
			for _, m := range layerMetrics {
				if _, ok := traced.Layers[m.name]; !ok && m.name != "bench.trace_overhead" && m.name != "telemetry.overhead_frac" {
					t.Errorf("traced run does not report %s", m.name)
				}
			}
		})
	}
}

// TestPaperSeed runs the paper configuration: besides the oracle, the
// simulated rows must equal the committed Figure 2, 9 and 10 rows.
func TestPaperSeed(t *testing.T) { runAll(t, 0) }

// TestHeldOutSeed runs every workload on the seed kept out of tuning.
func TestHeldOutSeed(t *testing.T) { runAll(t, heldOutSeed) }
