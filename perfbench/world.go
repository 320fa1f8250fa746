package main

import (
	"fmt"
	"math/rand"

	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/stream"
)

// The one world every workload runs over, and the load shape. The load is
// sized for a 2-CPU machine: one client (or generator) goroutine, two
// MapReduce workers, two shard workers.
const (
	cityPersons = 6000
	cityDensity = 30
	cityWindows = 12

	windowMS   = 1000
	latenessMS = 250

	workers = 2
	shards  = 2

	// requestEIDs is the target sample of one match request; requestPool
	// distinct samples are cycled so their reference fingerprints can be
	// computed once, untimed.
	requestEIDs = 64
	requestPool = 48
	// spillBudget forces the split-stage shuffles of match-spill out of
	// core: about 68 run files per request, each written with two fsyncs.
	spillBudget = 1 << 10

	streamTargets = 500
	// targetSets seeded target sets take turns, one per stream pass:
	// which 500 of the 6000 EIDs are watched moves the resolution bursts by
	// as much as a tenth, and a run that cycles through several sets
	// averages that out.
	targetSets = 3
	pacedRate  = 30000 // observations per second
)

// cityConfig is the world: the default generator config, its seed
// included, at city scale. The world is the same for every workload seed;
// the seed draws the requests, targets and event timestamps. Worlds of
// different seeds differ in match cost by up to half, which would swamp
// the run-to-run spread the bounds are set against.
func cityConfig() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = cityPersons
	cfg.Density = cityDensity
	cfg.NumWindows = cityWindows
	return cfg
}

func cityWorld() (*dataset.Dataset, error) {
	ds, err := dataset.Generate(cityConfig())
	if err != nil {
		return nil, fmt.Errorf("generate city world: %w", err)
	}
	return ds, nil
}

// requestSamples draws the request pool: requestPool seeded samples of
// requestEIDs target EIDs each.
func requestSamples(ds *dataset.Dataset, seed int64) [][]ids.EID {
	rng := rand.New(rand.NewSource(seed*7 + 1))
	pool := make([][]ids.EID, requestPool)
	for i := range pool {
		pool[i] = ds.SampleEIDs(requestEIDs, rng)
	}
	return pool
}

// streamInputs is the event log of the stream workloads and the engine
// config of each of their target sets.
func streamInputs(ds *dataset.Dataset, seed int64) ([]stream.Config, []stream.Observation, error) {
	_, obs, err := stream.EventsFromDataset(ds, windowMS, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("build event log: %w", err)
	}
	rng := rand.New(rand.NewSource(seed*7 + 2))
	cfgs := make([]stream.Config, targetSets)
	for i := range cfgs {
		cfgs[i] = stream.Config{
			Targets:    ds.SampleEIDs(streamTargets, rng),
			WindowMS:   windowMS,
			LatenessMS: latenessMS,
			Dim:        ds.Config.DescriptorDim(),
			Seed:       seed,
		}
	}
	return cfgs, obs, nil
}
