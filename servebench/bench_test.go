package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"dpsync/internal/query"
	"dpsync/internal/record"
)

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %+v, defined as %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, defs []metricDef, got []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d reported", kind, len(got), len(defs))
		}
		for i := range defs {
			if got[i] != defs[i] {
				t.Errorf("%s metric %d declared as %+v, reported as %+v", kind, i, got[i], defs[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layers)
}

// TestChecksCatchPerturbedReferences drives every workload briefly, then
// breaks one reference at a time on the stack the run left up and shows
// the matching check failing, and passing again once the reference is
// restored.
func TestChecksCatchPerturbedReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the serving stack")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, s, err := run(w, 3, 300*time.Millisecond, false, t.TempDir())
			if s != nil {
				defer s.stop()
			}
			if err != nil || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("unperturbed run: %+v, %v", res, err)
			}
			// expectFail breaks a reference, runs check, restores the
			// reference and runs check again.
			expectFail := func(what, want string, perturb func() (restore func()), check func() error) {
				t.Helper()
				restore := perturb()
				err := check()
				restore()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: got %v, want a failure naming %q", what, err, want)
				}
				if err := check(); err != nil {
					t.Errorf("%s restored: %v", what, err)
				}
			}
			state := func() error { return checkState(s, s.gw) }
			o := s.owners[0] // a SUR owner: every arrival bit shows in its transcript

			expectFail("arrival bit flipped", "transcript", func() func() {
				k := len(o.arrived) / 2
				o.arrived[k] = !o.arrived[k]
				return func() { o.arrived[k] = !o.arrived[k] }
			}, state)
			expectFail("one acked record too many", "transcript accounts for", func() func() {
				o.bounds[len(o.bounds)-1]++
				return func() { o.bounds[len(o.bounds)-1]-- }
			}, state)
			expectFail("green records made yellow", "inputs", func() func() {
				saved := slices.Clone(o.records)
				for k := range o.records {
					o.records[k].Provider = record.YellowCab
				}
				return func() { copy(o.records, saved) }
			}, state)
			if w.syncEps > 0 {
				expectFail("ε per sync off by a quarter", "ledger", func() func() {
					eps := s.w.syncEps
					s.w.syncEps *= 1.25
					return func() { s.w.syncEps = eps }
				}, state)
			}
			if w.durable && !w.replica {
				want := len(s.owners)
				expectFail("one owner too many expected", "recovery", func() func() {
					want++
					return func() { want-- }
				}, func() error { return checkRecovered(s.gw, want) })
				return // the reopened gateway serves no connections
			}

			// A full-range count on the provider of the last acked record:
			// any set that leaves that record out answers lower.
			n := o.bounds[len(o.bounds)-1]
			last := o.records[n-1]
			q := query.Query{Kind: query.RangeCount, Provider: last.Provider, Lo: 1, Hi: record.NumLocations}
			ans, _, err := o.db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			groups := make([]float64, record.NumLocations)
			expectFail("last acked record left out", "answered", func() func() {
				saved := slices.Clone(o.bounds)
				for k := range o.bounds {
					o.bounds[k] = min(o.bounds[k], n-1)
				}
				return func() { copy(o.bounds, saved) }
			}, func() error { return checkAnswer(o, q, len(o.bounds), digestOf(ans), w.replica, groups) })

			if w.replica {
				// With the follower gone every replica read falls back to
				// the primary, which the caught-up check must catch.
				before := takeProbe(s)
				_ = s.nodes[1].Close()
				if _, _, err := phase(newDrivers(s), (*driver).answerPass); err != nil {
					t.Fatal(err)
				}
				if err := checkCaughtUp(before, takeProbe(s)); err == nil || !strings.Contains(err.Error(), "fell back") {
					t.Errorf("follower closed: got %v, want a fallback failure", err)
				}
			}
		})
	}
}
