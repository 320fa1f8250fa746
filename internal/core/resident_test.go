package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// residentCase is one matcher configuration the resident-cache tests cover:
// both V-stage modes, on the ideal world and on a practical-setting world
// whose vague zones and missing IDs drive refine rounds.
type residentCase struct {
	name      string
	practical bool
	opts      Options
}

func residentCases() []residentCase {
	return []residentCase{
		{"ideal-serial", false, Options{Mode: ModeSerial, Seed: 3}},
		{"ideal-parallel", false, Options{Mode: ModeParallel, Workers: 3, Seed: 3}},
		{"practical-serial", true, Options{Mode: ModeSerial, Seed: 3, MaxRefineRounds: 3}},
		{"practical-parallel", true, Options{Mode: ModeParallel, Workers: 3, Seed: 3, MaxRefineRounds: 3}},
	}
}

func residentDataset(t *testing.T, practical bool) *dataset.Dataset {
	t.Helper()
	if !practical {
		return testDataset(t, nil)
	}
	return testDataset(t, func(c *dataset.Config) {
		*c = c.Practical()
		c.NumPersons = 120
		c.Density = 15
		c.NumWindows = 24
		c.VIDMissingRate = 0.05
		c.EIDMissingRate = 0.1
	})
}

// residentRequests draws n overlapping target samples of size k.
func residentRequests(ds *dataset.Dataset, n, k int, seed int64) [][]ids.EID {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([][]ids.EID, n)
	for i := range reqs {
		reqs[i] = ds.SampleEIDs(k, rng)
	}
	return reqs
}

func mustMatch(t *testing.T, m *Matcher, targets []ids.EID) *Report {
	t.Helper()
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	return rep
}

// TestResidentMatchIgnoresHistory pins the two halves of the resident
// extraction cache's contract. Results never depend on what the matcher
// matched before: a request on a matcher warmed by other requests, in any
// order, has the fingerprint it has on a fresh matcher. Stats are per call:
// repeating a request pays no extraction at all, yet makes exactly the same
// comparisons.
func TestResidentMatchIgnoresHistory(t *testing.T) {
	for _, tc := range residentCases() {
		t.Run(tc.name, func(t *testing.T) {
			ds := residentDataset(t, tc.practical)
			reqs := residentRequests(ds, 4, 30, 21)

			m := newMatcher(t, ds, tc.opts)
			first := mustMatch(t, m, reqs[0])
			if first.VStats.Extractions == 0 || first.VStats.ScenariosProcessed == 0 {
				t.Fatalf("first call paid no extraction: %+v", first.VStats)
			}
			again := mustMatch(t, m, reqs[0])
			if again.VStats.Extractions != 0 || again.VStats.ScenariosProcessed != 0 {
				t.Errorf("repeat call paid extraction: %+v", again.VStats)
			}
			if again.VStats.Comparisons != first.VStats.Comparisons {
				t.Errorf("repeat call Comparisons = %d, first call %d", again.VStats.Comparisons, first.VStats.Comparisons)
			}
			if again.Fingerprint() != first.Fingerprint() {
				t.Error("repeat call changed the fingerprint")
			}

			refines := 0
			for i, req := range reqs {
				fresh := mustMatch(t, newMatcher(t, ds, tc.opts), req)
				refines += fresh.RefineRounds
				// Warm the matcher with every other request, in an order
				// that differs per target request, then ask for this one.
				warm := newMatcher(t, ds, tc.opts)
				for j := len(reqs) - 1; j >= 0; j-- {
					if k := (j + i) % len(reqs); k != i {
						mustMatch(t, warm, reqs[k])
					}
				}
				got := mustMatch(t, warm, req)
				if got.Fingerprint() != fresh.Fingerprint() {
					t.Errorf("request %d: warm fingerprint differs from a fresh matcher's:\n--- fresh\n%s\n--- warm\n%s",
						i, fresh.Fingerprint(), got.Fingerprint())
				}
				if got.VStats.Comparisons != fresh.VStats.Comparisons {
					t.Errorf("request %d: warm Comparisons = %d, fresh %d", i, got.VStats.Comparisons, fresh.VStats.Comparisons)
				}
				if got.VStats.Extractions > fresh.VStats.Extractions {
					t.Errorf("request %d: warm call extracted %d rows, more than a fresh call's %d",
						i, got.VStats.Extractions, fresh.VStats.Extractions)
				}
			}
			if tc.practical && refines == 0 {
				t.Error("practical requests ran no refine round; the refine path went untested")
			}
		})
	}
}

// TestResidentStoreGrowth grows the store under a warm matcher. The cache
// holds every old scenario, so the next Match pays extraction for new
// scenarios only, and for each new row at most once; its result equals a
// fresh matcher's over the grown store.
func TestResidentStoreGrowth(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{Mode: ModeParallel, Workers: 2})
	targets := ds.SampleEIDs(30, rand.New(rand.NewSource(9)))
	mustMatch(t, m, targets)
	old := make([]scenario.ID, ds.Store.Len())
	for i := range old {
		old[i] = scenario.ID(i)
	}
	if err := m.vcache.Filter().ExtractBatch(old); err != nil {
		t.Fatal(err)
	}

	// A second day: every old scenario again, shifted past the last window.
	shift := ds.Config.NumWindows
	var added []scenario.ID
	newRows := 0
	for _, id := range old {
		e := ds.Store.E(id)
		eids := make(map[ids.EID]scenario.Attr, len(e.EIDs))
		for _, k := range ids.SortedEIDKeys(e.EIDs) {
			eids[k] = e.EIDs[k]
		}
		ne := &scenario.EScenario{Cell: e.Cell, Window: e.Window + shift, EIDs: eids}
		var nv *scenario.VScenario
		if v := ds.Store.V(id); v != nil {
			nv = &scenario.VScenario{Cell: v.Cell, Window: v.Window + shift, Detections: v.Detections}
			newRows += len(v.Detections)
		}
		nid, err := ds.Store.Add(ne, nv)
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, nid)
	}

	grown := mustMatch(t, m, targets)
	fresh := mustMatch(t, newMatcher(t, ds, Options{Mode: ModeParallel, Workers: 2}), targets)
	if grown.Fingerprint() != fresh.Fingerprint() {
		t.Fatalf("warm matcher over the grown store differs from a fresh one:\n--- fresh\n%s\n--- warm\n%s",
			fresh.Fingerprint(), grown.Fingerprint())
	}
	if grown.VStats.Extractions == 0 {
		t.Fatal("the Match selected no new scenario; the growth path went untested")
	}
	// Extracting every new scenario afterwards pays for exactly the rows the
	// Match left: the two together cover each new row once and no old row.
	rest := m.vcache.Filter()
	if err := rest.ExtractBatch(added); err != nil {
		t.Fatal(err)
	}
	if got := grown.VStats.Extractions + rest.Stats().Extractions; got != newRows {
		t.Errorf("Match extracted %d rows and the rest %d: sum %d, want the %d new rows",
			grown.VStats.Extractions, rest.Stats().Extractions, got, newRows)
	}
}

// TestResidentConcurrentMatch runs overlapping requests on one matcher from
// several goroutines. Each result equals a fresh matcher's, and the per-call
// extraction counts add up to the distinct rows the requests need: no row is
// counted twice or dropped. Running the same requests one after another on
// another matcher gives that number, since each row is extracted once.
func TestResidentConcurrentMatch(t *testing.T) {
	for _, tc := range residentCases() {
		t.Run(tc.name, func(t *testing.T) {
			ds := residentDataset(t, tc.practical)
			reqs := residentRequests(ds, 6, 25, 33)

			want := make([]string, len(reqs))
			seq := newMatcher(t, ds, tc.opts)
			distinctRows, distinctScenarios := 0, 0
			for i, req := range reqs {
				want[i] = mustMatch(t, newMatcher(t, ds, tc.opts), req).Fingerprint()
				rep := mustMatch(t, seq, req)
				distinctRows += rep.VStats.Extractions
				distinctScenarios += rep.VStats.ScenariosProcessed
			}

			m := newMatcher(t, ds, tc.opts)
			reps := make([]*Report, len(reqs))
			errs := make([]error, len(reqs))
			var wg sync.WaitGroup
			for i := range reqs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					reps[i], errs[i] = m.Match(context.Background(), reqs[i])
				}(i)
			}
			wg.Wait()
			rows, scenarios := 0, 0
			for i, rep := range reps {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if got := rep.Fingerprint(); got != want[i] {
					t.Errorf("request %d: concurrent fingerprint differs from a fresh serial run", i)
				}
				rows += rep.VStats.Extractions
				scenarios += rep.VStats.ScenariosProcessed
			}
			if rows != distinctRows || scenarios != distinctScenarios {
				t.Errorf("concurrent calls extracted %d rows of %d scenarios, want %d rows of %d",
					rows, scenarios, distinctRows, distinctScenarios)
			}
		})
	}
}

// TestExplainUsesResidentCache pins that Explain matches on the matcher's
// resident state: after an SS Match warmed the cache, explaining one of its
// targets leaves a repeat of that Match with nothing to extract.
func TestExplainUsesResidentCache(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{})
	e := ds.AllEIDs()[3]
	var out strings.Builder
	if err := m.Explain(context.Background(), e, &out); err != nil {
		t.Fatal(err)
	}
	rep := mustMatch(t, m, []ids.EID{e})
	fresh := mustMatch(t, newMatcher(t, ds, Options{}), []ids.EID{e})
	if rep.VStats.Extractions >= fresh.VStats.Extractions {
		t.Errorf("Match after Explain extracted %d rows, a fresh matcher %d: Explain did not fill the resident cache",
			rep.VStats.Extractions, fresh.VStats.Extractions)
	}
}
