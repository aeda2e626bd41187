package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/model"
	"repro/internal/simcluster"
)

// Wire-format golden digests. Serialized model bytes drive simulated
// traffic, so any change to the model encoding moves the paper figures.
// These SHA-256 digests pin the full encoding of the paper-figure
// initial models and the sparse delta of one PageRank IC iteration; a
// change to the model store's layout must leave all of them untouched.
// The workloads are built at their scale-1 sizes whatever the current
// scale is.
const (
	goldenPageRankInitial = "a70df57683596388b9ce7f7446fd3d48cf42f01d4a14e6d466afe857e8af228e"
	goldenKMeansInitial   = "52f6950cc27d558235a79b2e910e07e2dfd77ebce628d86a238042212bc7f2a0"
	goldenSmoothInitial   = "7d577be17ca49efd30ad359163816314383b15bbed4d5bb58346ddae40e53880"
	goldenPageRankDelta   = "5cefc5cfd4658c6f0c0e5de5a9bddd48dec57d286bd37bf97c80185f2309fe4b"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func checkDigest(t *testing.T, what string, b []byte, want string) {
	t.Helper()
	if got := digest(b); got != want {
		t.Errorf("%s: sha256 = %s (%d bytes), want %s", what, got, len(b), want)
	}
}

func TestWireGoldenInitialModels(t *testing.T) {
	pr, _ := PageRankWorkload("pagerank-fig9", simcluster.Small(), 20_000, 18, 0.05, 4)
	checkDigest(t, "Fig 9 PageRank initial model", pr.MakeModel().Encode(nil), goldenPageRankInitial)

	km, _ := KMeansWorkload("kmeans-fig2", simcluster.Medium(), 600_000, 25, 3, 6, 2)
	checkDigest(t, "Fig 2 K-means initial model", km.MakeModel().Encode(nil), goldenKMeansInitial)

	sm, _ := SmoothingWorkload("smoothing-fig10", simcluster.Medium(), 1024, 512, 16, 8)
	checkDigest(t, "Fig 10 smoothing initial model", sm.MakeModel().Encode(nil), goldenSmoothInitial)
}

func TestWireGoldenPageRankDelta(t *testing.T) {
	w, _ := PageRankWorkload("pagerank-fig9", simcluster.Small(), 20_000, 18, 0.05, 4)
	rt := w.NewRuntime()
	prev := w.MakeModel()
	next, err := w.MakeApp().Iteration(rt, w.MakeInput(rt.Cluster()), prev)
	if err != nil {
		t.Fatal(err)
	}
	enc := model.EncodeDelta(prev, next, nil)
	if int64(len(enc)) != model.DeltaSize(prev, next) {
		t.Fatalf("DeltaSize = %d, len(EncodeDelta) = %d", model.DeltaSize(prev, next), len(enc))
	}
	checkDigest(t, "Fig 9 PageRank delta after one IC iteration", enc, goldenPageRankDelta)
}
