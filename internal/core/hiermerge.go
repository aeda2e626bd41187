package core

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/writable"
)

// Hierarchical rack-local merge trees (PICOptions.HierarchicalMerge).
//
// The flat best-effort merge moves every partial model and every
// scattered sub-problem model over the model home's core-switch links:
// P partials in, P models out, per iteration. On large clusters the
// core links become the merge bottleneck long before the racks do. The
// hierarchical strategy prices the same logical merge as a two-level
// tree aligned with the simnet topology: partials first combine inside
// their rack (intra-rack links, which the fabric prices independently
// per rack), and only one rack-combined model per rack crosses the core
// to the home. The scatter direction dedups symmetrically: when every
// partition in a rack starts from the same model (the replicated-model
// apps — K-means, neural-net training), one copy crosses the core and
// the rack aggregator fans it out locally.
//
// The tree merge is NOT bit-identical to the flat merge: combining
// rack-first reorders the floating-point accumulation. It is the same
// logical reduction — the WeightedKeyMerger contract makes rack-level
// pre-combination unbiased — and each strategy is individually
// deterministic at any worker count.

// rackGroup is one rack's worth of fresh partitions in a best-effort
// merge tree.
type rackGroup struct {
	rack int
	// agg is the aggregator node: the group leader of the rack's first
	// member partition.
	agg int
	// members are the partition indices homed in this rack, ascending.
	members []int
}

// planRacks groups the fresh (non-stale) partitions by the rack of
// their group leader, in ascending rack order — the deterministic shape
// of the merge tree for this iteration.
func planRacks(fabric *simnet.Fabric, leaders []int, stale []bool) []rackGroup {
	byRack := map[int]*rackGroup{}
	var order []int
	for i, leader := range leaders {
		if stale[i] {
			continue
		}
		r := fabric.Rack(leader)
		g := byRack[r]
		if g == nil {
			g = &rackGroup{rack: r, agg: leader}
			byRack[r] = g
			order = append(order, r)
		}
		g.members = append(g.members, i)
	}
	sort.Ints(order)
	out := make([]rackGroup, len(order))
	for i, r := range order {
		out[i] = *byRack[r]
	}
	return out
}

// hierarchicalScatterFlows prices the dispatch of sub-problem models
// through the rack aggregators. A rack whose members all start from the
// same model receives one copy across the core and fans it out on rack
// links; mixed racks (partition-the-model apps) fall back to direct
// home→leader flows, which is what the flat scatter charges.
func hierarchicalScatterFlows(home int, leaders []int, subs []SubProblem, racks []rackGroup) []simnet.Flow {
	var flows []simnet.Flow
	for _, rg := range racks {
		shared := true
		first := subs[rg.members[0]].Model
		for _, i := range rg.members[1:] {
			if !subs[i].Model.Equal(first) {
				shared = false
				break
			}
		}
		if !shared || len(rg.members) == 1 {
			for _, i := range rg.members {
				flows = append(flows, simnet.Flow{Src: home, Dst: leaders[i], Bytes: subs[i].Model.Size()})
			}
			continue
		}
		flows = append(flows, simnet.Flow{Src: home, Dst: rg.agg, Bytes: first.Size()})
		for _, i := range rg.members {
			if leaders[i] == rg.agg {
				continue
			}
			flows = append(flows, simnet.Flow{Src: rg.agg, Dst: leaders[i], Bytes: first.Size()})
		}
	}
	return flows
}

// hierarchicalMerge gathers and combines the partial models through the
// rack tree: members flow to their rack aggregator (intra-rack links),
// each rack pre-combines with MergeKey, one combined model per rack
// crosses the core to home, and the final combine applies
// MergeKeyWeighted with each rack's member count as its weight — so the
// two-level reduction equals the flat one-level reduction up to
// floating-point order. Stale partials join the final combine with
// weight 1 and no gather traffic (they never left the driver).
func hierarchicalMerge(rt *Runtime, appName string, wm WeightedKeyMerger,
	parts []*model.Model, leaders []int, stale []bool, racks []rackGroup) (*model.Model, int64, error) {
	home := rt.LiveModelHome()

	// Stage 1: members → rack aggregators, one flow set for the whole
	// level (racks drain in parallel on their own links).
	var up []simnet.Flow
	for _, rg := range racks {
		for _, i := range rg.members {
			up = append(up, simnet.Flow{Src: leaders[i], Dst: rg.agg, Bytes: parts[i].Size()})
		}
	}
	traffic := rt.ChargeFlows(up)

	// Rack-level pre-combine: per key, MergeKey over the members holding
	// it (member order), remembering how many partials each combined
	// value summarizes.
	rackModels := make([]*model.Model, len(racks))
	rackCounts := make([]map[string]int, len(racks))
	for ri, rg := range racks {
		rackKeys := keyUnion(parts, rg.members)
		rm := model.New()
		counts := make(map[string]int, len(rackKeys))
		for _, key := range rackKeys {
			var vals []writable.Writable
			for _, i := range rg.members {
				if v, ok := parts[i].Get(key); ok {
					vals = append(vals, v)
				}
			}
			merged, err := wm.MergeKey(key, vals)
			if err != nil {
				return nil, traffic, fmt.Errorf("core: %s rack merge: %w", appName, err)
			}
			rm.Set(key, merged)
			counts[key] = len(vals)
		}
		rackModels[ri] = rm
		rackCounts[ri] = counts
	}

	// Stage 2: one combined model per rack crosses the core to home.
	var down []simnet.Flow
	for ri, rg := range racks {
		down = append(down, simnet.Flow{Src: rg.agg, Dst: home, Bytes: rackModels[ri].Size()})
	}
	traffic += rt.ChargeFlows(down)

	// Final combine: rack models weighted by their member counts, stale
	// partials appended with weight 1.
	var staleIdx []int
	for i, st := range stale {
		if st {
			staleIdx = append(staleIdx, i)
		}
	}
	sources := make([]*model.Model, 0, len(rackModels)+len(staleIdx))
	sources = append(sources, rackModels...)
	for _, i := range staleIdx {
		sources = append(sources, parts[i])
	}
	allKeys := keyUnion(sources, nil)
	merged := model.New()
	for _, key := range allKeys {
		var vals []writable.Writable
		var weights []int
		for ri, rm := range rackModels {
			if v, ok := rm.Get(key); ok {
				vals = append(vals, v)
				weights = append(weights, rackCounts[ri][key])
			}
		}
		for _, i := range staleIdx {
			if v, ok := parts[i].Get(key); ok {
				vals = append(vals, v)
				weights = append(weights, 1)
			}
		}
		out, err := wm.MergeKeyWeighted(key, vals, weights)
		if err != nil {
			return nil, traffic, fmt.Errorf("core: %s weighted merge: %w", appName, err)
		}
		merged.Set(key, out)
	}
	return merged, traffic, nil
}

// keyUnion returns the sorted union of keys across the selected models
// (all of them when idx is nil).
func keyUnion(models []*model.Model, idx []int) []string {
	seen := map[string]bool{}
	var keys []string
	add := func(m *model.Model) {
		for _, k := range m.Keys() {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	if idx == nil {
		for _, m := range models {
			add(m)
		}
	} else {
		for _, i := range idx {
			add(models[i])
		}
	}
	sort.Strings(keys)
	return keys
}
