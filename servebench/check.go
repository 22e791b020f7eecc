package main

import (
	"fmt"
	"math"

	"dpsync/internal/dp"
	"dpsync/internal/gateway"
	"dpsync/internal/leakage"
	"dpsync/internal/query"
	"dpsync/internal/record"
)

// The checks below compare the serving stack's outputs with references the
// benchmark computes on its own: the paper's update-pattern mechanisms run
// over each owner's arrival bits, ε ledgers from sync counts, and query
// answers from plain loops over the records the owner's syncs carried.

// mechanism runs the paper's update-pattern mechanism for o's strategy
// over o's arrivals, with o's noise seed: the transcript o must produce.
func (o *owner) mechanism(d0 int) (*leakage.Pattern, error) {
	switch o.kind {
	case 0:
		return leakage.MSUR(d0, o.arrived), nil
	case 1:
		c := timerCfg
		return leakage.MTimer(d0, o.arrived, c.Epsilon, c.Period, c.FlushInterval, c.FlushSize, dp.NewSeededSource(o.noiseSeed))
	default:
		c := antCfg
		return leakage.MANT(d0, o.arrived, c.Epsilon, c.Threshold, c.FlushInterval, c.FlushSize, dp.NewSeededSource(o.noiseSeed))
	}
}

// checkTranscripts requires the owner's own transcript to equal the
// mechanism's, and the gateway-observed one to carry the same volumes in
// the same order (the gateway numbers syncs 1, 2, ... instead of ticks and
// cannot tell flushes apart).
func checkTranscript(o *owner, ref *leakage.Pattern, observed leakage.Pattern) error {
	own := o.core.Pattern().Events
	if len(own) != len(ref.Events) {
		return fmt.Errorf("%s: owner transcript has %d events, mechanism %d", o.name, len(own), len(ref.Events))
	}
	for i, e := range ref.Events {
		if own[i] != e {
			return fmt.Errorf("%s: owner event %d is %+v, mechanism %+v", o.name, i, own[i], e)
		}
	}
	if len(observed.Events) != len(ref.Events) {
		return fmt.Errorf("%s: gateway observed %d syncs, mechanism %d", o.name, len(observed.Events), len(ref.Events))
	}
	for i, e := range observed.Events {
		want := leakage.Event{Tick: record.Tick(i + 1), Volume: ref.Events[i].Volume}
		if e != want {
			return fmt.Errorf("%s: gateway event %d is %+v, want %+v", o.name, i, e, want)
		}
	}
	return nil
}

// checkLedger requires one m_setup and syncs-1 m_update charges of eps
// each: queries and cache hits must never charge.
func checkLedger(o *owner, syncs int, eps float64, b *dp.Budget) error {
	if got, want := b.Spent(), float64(syncs)*eps; got != want {
		return fmt.Errorf("%s: ledger spent %v, want %d syncs x %v = %v", o.name, got, syncs, eps, want)
	}
	if b.Uses("m_setup") != 1 || b.Uses("m_update") != syncs-1 {
		return fmt.Errorf("%s: ledger has %d setup and %d update charges for %d syncs",
			o.name, b.Uses("m_setup"), b.Uses("m_update"), syncs)
	}
	return nil
}

// refTable is what the reference answers are read from: one plain loop
// over a record set, in nondecreasing pickup-time order, fills it. Indexes
// are record.Provider values and pickup locations.
type refTable struct {
	count, fare [3][record.NumLocations + 1]float64
	pairs       [3][3]float64 // records with equal pickup time, by provider pair
}

func (t *refTable) fill(recs []record.Record) {
	*t = refTable{}
	for i := 0; i < len(recs); {
		var run [3]float64
		j := i
		for ; j < len(recs) && recs[j].PickupTime == recs[i].PickupTime; j++ {
			r := recs[j]
			t.count[r.Provider][r.PickupID]++
			t.fare[r.Provider][r.PickupID] += float64(r.FareCents)
			run[r.Provider]++
		}
		for a := range run {
			for b := range run {
				t.pairs[a][b] += run[a] * run[b]
			}
		}
		i = j
	}
}

// answer evaluates q over the table. groups is scratch for GroupCount.
func (t *refTable) answer(q query.Query, groups []float64) query.Answer {
	switch q.Kind {
	case query.RangeCount, query.SumFare:
		col := &t.count[q.Provider]
		if q.Kind == query.SumFare {
			col = &t.fare[q.Provider]
		}
		var s float64
		for id := q.Lo; id <= q.Hi; id++ {
			s += col[id]
		}
		return query.Answer{Scalar: s}
	case query.GroupCount:
		copy(groups, t.count[q.Provider][1:])
		return query.Answer{Groups: groups}
	default: // JoinCount
		return query.Answer{Scalar: t.pairs[q.Provider][q.JoinWith]}
	}
}

// refAnswer evaluates q over recs. groups is scratch for GroupCount.
func refAnswer(q query.Query, recs []record.Record, groups []float64) query.Answer {
	var t refTable
	t.fill(recs)
	return t.answer(q, groups)
}

// digest is an answer reduced to what the check compares: the scalar and
// a hash of the group counts. A query's check runs after the timed phase,
// so the driver keeps only this much of each answer until then.
type digest struct {
	scalar float64
	groups uint64
	n      int
}

func digestOf(a query.Answer) digest {
	h := uint64(14695981039346656037)
	for _, g := range a.Groups {
		h ^= math.Float64bits(g)
		h *= 1099511628211
	}
	return digest{scalar: a.Scalar, groups: h, n: len(a.Groups)}
}

// acked returns the records the owner's first k syncs carried.
func (o *owner) acked(k int) []record.Record {
	n := 0
	if k > 0 {
		n = o.bounds[k-1]
	}
	return o.records[:n]
}

// checkAnswer requires got, answered when the owner had acked k syncs, to
// equal the answer over the records those syncs carried — or, for a
// replica, over the records of some shorter committed prefix of them.
func checkAnswer(o *owner, q query.Query, k int, got digest, prefixOK bool, groups []float64) error {
	if got == digestOf(refAnswer(q, o.acked(k), groups)) {
		return nil
	}
	if prefixOK {
		for j := k - 1; j >= 1; j-- {
			if got == digestOf(refAnswer(q, o.acked(j), groups)) {
				return nil
			}
		}
	}
	return fmt.Errorf("%s: %v answered %+v, reference over %d acked records is %+v",
		o.name, q, got, o.bounds[k-1], digestOf(refAnswer(q, o.acked(k), groups)))
}

// checkInputs requires the hot specs to have nonzero answers for every
// owner, so no query kind is measured on an empty table.
func checkInputs(o *owner, groups []float64) error {
	for _, q := range hotSpecs {
		if refAnswer(q, o.acked(len(o.bounds)), groups).Total() == 0 {
			return fmt.Errorf("%s: inputs give %v a zero answer", o.name, q)
		}
	}
	return nil
}

// checkRecovered requires the reopened gateway to have recovered owners
// tenants from its store.
func checkRecovered(gw *gateway.Gateway, owners int) error {
	if got := gw.Recovery().Owners; got != owners {
		return fmt.Errorf("recovery: %d owners recovered, want %d", got, owners)
	}
	return nil
}

// checkCaughtUp requires every replica read between two probes to have
// been served by the follower: once it has caught up, a fallback to the
// primary means the read plane refused a read it should have answered.
func checkCaughtUp(before, after probe) error {
	if n := after.fellBk - before.fellBk; n != 0 {
		return fmt.Errorf("answers: %d queries fell back to the primary after the follower caught up", n)
	}
	return nil
}
