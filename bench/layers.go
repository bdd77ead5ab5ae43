package main

// Training-side layer probes: single timed calls into the exported
// functions the training cycle is made of, run by a traced build child
// after its cycle, on the state the cycle left behind.

import (
	"sort"
	"time"

	"hydra/internal/blocking"
	"hydra/internal/pipeline"
	"hydra/internal/synth"
)

func trainingLayers(world *synth.World, fitted *pipeline.FitState, bundle *pipeline.Bundle) (map[string]float64, error) {
	m := map[string]float64{}
	pa, err := world.Dataset.Platform(platA)
	if err != nil {
		return nil, err
	}
	pb, err := world.Dataset.Platform(platB)
	if err != nil {
		return nil, err
	}
	sys := fitted.Sys

	var viewUs, pairUs []float64
	va, err := sys.Views(platA)
	if err != nil {
		return nil, err
	}
	vb, err := sys.Views(platB)
	if err != nil {
		return nil, err
	}
	for i := 0; i < min(48, len(pb.Accounts)); i++ {
		t := time.Now()
		sys.Pipe.BuildView(pb.Accounts[i])
		viewUs = append(viewUs, since(t)*1e6)
		t = time.Now()
		sys.Pipe.Pair(va[(i*7)%len(va)], vb[i])
		pairUs = append(pairUs, since(t)*1e6)
	}
	sort.Float64s(viewUs)
	sort.Float64s(pairUs)
	m["features.build_view_us"] = viewUs[len(viewUs)/2]
	m["features.pair_us"] = pairUs[len(pairUs)/2]

	t := time.Now()
	if _, err := blocking.Generate(pa, pb, sys.Faces(), fitted.BlockState.Opts.Rules); err != nil {
		return nil, err
	}
	m["blocking.generate_s"] = since(t)
	t = time.Now()
	if _, err := blocking.BuildIndex(pa, pb, sys.Faces(), bundle.Indexes[0].Rules); err != nil {
		return nil, err
	}
	m["blocking.build_index_s"] = since(t)
	sizes := make([]int, len(bundle.Indexes[0].ByA))
	for a, row := range bundle.Indexes[0].ByA {
		sizes[a] = len(row)
	}
	fan := blocking.FanoutOf(sizes)
	m["blocking.fanout_mean"], m["blocking.fanout_p99"] = fan.Mean, float64(fan.P99)

	t = time.Now()
	if _, err := pipeline.BuildBundleImputeTable(bundle, 0); err != nil {
		return nil, err
	}
	m["core.build_impute_table_s"] = since(t)

	if bundle.Prescreen != nil {
		m["core.prescreen_eps"] = bundle.Prescreen.Eps
	}
	return m, nil
}
