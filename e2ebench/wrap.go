package main

import (
	"fmt"
	"time"

	"repro/internal/apps/kmeans"
	"repro/internal/apps/linsolve"
	"repro/internal/apps/neuralnet"
	"repro/internal/apps/pagerank"
	"repro/internal/apps/smoothing"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/model"
)

// appTimes accumulates host time spent inside the application hooks the
// drivers call. The drivers call them from one goroutine.
type appTimes struct {
	iteration, partition, merge, converged, vertexProgram time.Duration
}

func (t *appTimes) total() time.Duration {
	return t.iteration + t.partition + t.merge + t.converged + t.vertexProgram
}

func add(d *time.Duration, start time.Time) { *d += time.Since(start) }

// wrapApp returns a timing wrapper around app. Each wrapper embeds the
// concrete app pointer, so its method set is the app's own and every
// optional interface core type-asserts (LoopPartitioner, KeyMerger,
// WeightedKeyMerger, MergeFinalizer, VertexApp, BEConvergedApp) stays
// satisfied exactly as it is by the bare app.
func wrapApp(app core.PICApp, t *appTimes) (core.PICApp, error) {
	switch a := app.(type) {
	case *kmeans.App:
		return &kmeansTimed{a, t}, nil
	case *linsolve.App:
		return &linsolveTimed{a, t}, nil
	case *neuralnet.App:
		return &neuralnetTimed{a, t}, nil
	case *pagerank.App:
		return &pagerankTimed{a, t}, nil
	case *smoothing.App:
		return &smoothingTimed{a, t}, nil
	}
	return nil, fmt.Errorf("no timing wrapper for %T", app)
}

type kmeansTimed struct {
	*kmeans.App
	t *appTimes
}

func (a *kmeansTimed) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	defer add(&a.t.iteration, time.Now())
	return a.App.Iteration(rt, in, m)
}

func (a *kmeansTimed) Converged(prev, next *model.Model) bool {
	defer add(&a.t.converged, time.Now())
	return a.App.Converged(prev, next)
}

func (a *kmeansTimed) BEConverged(prev, next *model.Model) bool {
	defer add(&a.t.converged, time.Now())
	return a.App.BEConverged(prev, next)
}

func (a *kmeansTimed) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	defer add(&a.t.partition, time.Now())
	return a.App.Partition(in, m, p)
}

func (a *kmeansTimed) PartitionModels(m *model.Model, p int) []*model.Model {
	defer add(&a.t.partition, time.Now())
	return a.App.PartitionModels(m, p)
}

func (a *kmeansTimed) Merge(parts []*model.Model, prev *model.Model) (*model.Model, error) {
	defer add(&a.t.merge, time.Now())
	return a.App.Merge(parts, prev)
}

type linsolveTimed struct {
	*linsolve.App
	t *appTimes
}

func (a *linsolveTimed) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	defer add(&a.t.iteration, time.Now())
	return a.App.Iteration(rt, in, m)
}

func (a *linsolveTimed) Converged(prev, next *model.Model) bool {
	defer add(&a.t.converged, time.Now())
	return a.App.Converged(prev, next)
}

func (a *linsolveTimed) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	defer add(&a.t.partition, time.Now())
	return a.App.Partition(in, m, p)
}

func (a *linsolveTimed) Merge(parts []*model.Model, prev *model.Model) (*model.Model, error) {
	defer add(&a.t.merge, time.Now())
	return a.App.Merge(parts, prev)
}

type neuralnetTimed struct {
	*neuralnet.App
	t *appTimes
}

func (a *neuralnetTimed) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	defer add(&a.t.iteration, time.Now())
	return a.App.Iteration(rt, in, m)
}

func (a *neuralnetTimed) Converged(prev, next *model.Model) bool {
	defer add(&a.t.converged, time.Now())
	return a.App.Converged(prev, next)
}

func (a *neuralnetTimed) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	defer add(&a.t.partition, time.Now())
	return a.App.Partition(in, m, p)
}

func (a *neuralnetTimed) Merge(parts []*model.Model, prev *model.Model) (*model.Model, error) {
	defer add(&a.t.merge, time.Now())
	return a.App.Merge(parts, prev)
}

type pagerankTimed struct {
	*pagerank.App
	t *appTimes
}

func (a *pagerankTimed) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	defer add(&a.t.iteration, time.Now())
	return a.App.Iteration(rt, in, m)
}

func (a *pagerankTimed) Converged(prev, next *model.Model) bool {
	defer add(&a.t.converged, time.Now())
	return a.App.Converged(prev, next)
}

func (a *pagerankTimed) BEConverged(prev, next *model.Model) bool {
	defer add(&a.t.converged, time.Now())
	return a.App.BEConverged(prev, next)
}

func (a *pagerankTimed) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	defer add(&a.t.partition, time.Now())
	return a.App.Partition(in, m, p)
}

func (a *pagerankTimed) Merge(parts []*model.Model, prev *model.Model) (*model.Model, error) {
	defer add(&a.t.merge, time.Now())
	return a.App.Merge(parts, prev)
}

func (a *pagerankTimed) VertexProgram(in *mapred.Input, m *model.Model) (bsp.Program, error) {
	defer add(&a.t.vertexProgram, time.Now())
	return a.App.VertexProgram(in, m)
}

type smoothingTimed struct {
	*smoothing.App
	t *appTimes
}

func (a *smoothingTimed) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	defer add(&a.t.iteration, time.Now())
	return a.App.Iteration(rt, in, m)
}

func (a *smoothingTimed) Converged(prev, next *model.Model) bool {
	defer add(&a.t.converged, time.Now())
	return a.App.Converged(prev, next)
}

func (a *smoothingTimed) BEConverged(prev, next *model.Model) bool {
	defer add(&a.t.converged, time.Now())
	return a.App.BEConverged(prev, next)
}

func (a *smoothingTimed) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	defer add(&a.t.partition, time.Now())
	return a.App.Partition(in, m, p)
}

func (a *smoothingTimed) Merge(parts []*model.Model, prev *model.Model) (*model.Model, error) {
	defer add(&a.t.merge, time.Now())
	return a.App.Merge(parts, prev)
}

func (a *smoothingTimed) VertexProgram(in *mapred.Input, m *model.Model) (bsp.Program, error) {
	defer add(&a.t.vertexProgram, time.Now())
	return a.App.VertexProgram(in, m)
}
