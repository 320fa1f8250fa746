// Streaming: online EV-Matching over live surveillance. Timestamped E and V
// observations arrive in event-time order; the stream engine closes each
// window as its watermark passes it, refines the EID partition with the
// sealed scenarios, and emits a resolution the moment a target's evidence
// singles it out. Watch identification converge window by window, then
// check the stream against the authoritative batch match at the end of the
// log.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"evmatching"
	"evmatching/internal/stream"
)

func main() {
	cfg := evmatching.DefaultDatasetConfig()
	cfg.NumPersons = 300
	cfg.Density = 20
	cfg.NumWindows = 24
	ds, err := evmatching.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Flatten the world into the observation log a live deployment would
	// see: one E record per sighted EID, one V record per detection, each
	// stamped inside its window.
	const windowMS = 1000
	_, obs, err := stream.EventsFromDataset(ds, windowMS, 5)
	if err != nil {
		log.Fatal(err)
	}
	targets := ds.SampleEIDs(40, rand.New(rand.NewSource(5)))
	e, err := stream.NewEngine(stream.Config{
		Targets:  targets,
		WindowMS: windowMS,
		Dim:      ds.Config.DescriptorDim(),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("online matching of %d EIDs over %d streamed windows (%d observations):\n\n",
		len(targets), cfg.NumWindows, len(obs))
	fmt.Println("closed  resolved  correct")
	report := func(closed int) {
		res := e.Resolutions()
		correct := 0
		for _, r := range res {
			if r.VID == ds.TruthVID(r.EID) {
				correct++
			}
		}
		fmt.Printf("%6d  %5d/%d  %7d\n", closed, len(res), len(targets), correct)
	}
	open := 0
	for _, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			log.Fatal(err)
		}
		// The first observation of a new window closes the previous one.
		if w := int(o.TS / windowMS); w > open {
			open = w
			if open%4 == 0 {
				report(open)
			}
		}
	}

	// End of log: close the remaining windows and run the batch-equivalent
	// verification match over the stream-built store.
	rep, err := e.Finalize(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	report(cfg.NumWindows)
	fmt.Println("\nresolutions are provisional: each was matched over the windows closed when")
	fmt.Println("its target was singled out. The final match uses every window.")
	fmt.Printf("final batch-equivalent match: accuracy %.1f%%\n", rep.Accuracy(ds.TruthVID)*100)
}
