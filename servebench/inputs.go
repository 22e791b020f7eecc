package main

import (
	"fmt"

	"dpsync/internal/client"
	"dpsync/internal/core"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/leakage"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/strategy"
)

// workload fixes everything a run feeds the serving stack except the seed.
type workload struct {
	name string
	why  string
	// owners is the tenant count; every driver serves owners/drivers of
	// them round-robin, so owners far exceed concurrent requests.
	owners int
	// d0 is the size of each owner's setup batch (its initial database).
	d0 int
	// arrivalP is the per-tick probability that one record arrives.
	arrivalP float64
	// queriesPerTick is how many analyst queries follow each owner tick;
	// tailShare of them are distinct Q1 ranges, the rest hot specs.
	queriesPerTick int
	tailShare      float64
	// durable runs the gateway on a WAL store with this history window.
	durable bool
	window  int
	// replica runs a two-node cluster and sends queries to the follower.
	replica bool
	// syncEps is the ε the gateway charges a tenant's ledger per sync.
	syncEps float64
	// The untimed warm-up ticks every owner that has made no more than
	// warmSyncs syncs until none is left, then drives warmRounds rounds of
	// the full mix (see warmUp). It is bounded by ticks, not time, so the
	// heap read after it holds the same work on every run.
	warmRounds int
	warmSyncs  int
}

var workloads = []workload{
	{
		name:   "sync",
		why:    "sync traffic only on an in-memory gateway: owner tick, seal, client, wire, shard and ObliDB ingest; no store, answer cache or cluster",
		owners: 48, d0: 32, arrivalP: 0.5,
		warmRounds: 64, warmSyncs: client.DefaultResyncWindow,
	},
	{
		name:   "durable",
		why:    "the same owner traffic on a WAL-backed gateway with spilling history and snapshots, ending in a crash and a reopen",
		owners: 48, d0: 32, arrivalP: 0.5,
		warmRounds: 64, warmSyncs: client.DefaultResyncWindow,
		durable: true, window: 8, syncEps: 0.5,
	},
	{
		name:   "read-mix",
		why:    "eight skewed Q1-Q4 queries per owner tick on an in-memory gateway: answer-cache hits, misses, evictions and commit invalidations",
		owners: 512, d0: 32, arrivalP: 0.5,
		warmRounds:     8,
		queriesPerTick: 8, tailShare: 0.5,
	},
	{
		name:   "replica-read",
		why:    "syncs to the primary of a two-node cluster, queries to the follower read plane: shipping, follower apply and rebuilds",
		owners: 128, d0: 512, arrivalP: 0.5,
		warmRounds:     16,
		queriesPerTick: 64, tailShare: 0.25,
		durable: true, replica: true, syncEps: 0.5,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Owner i runs SUR, DP-Timer or DP-ANT by i mod 3, the timer and ANT
// owners with the paper's §8 defaults: ε = 0.5, T = 30, θ = 15, and a
// flush of 15 records every 2000 ticks.
var (
	timerCfg = strategy.DefaultTimerConfig()
	antCfg   = strategy.DefaultANTConfig()
)

// prng is splitmix64: eight bytes of state per stream, so every owner can
// own its arrival and query streams without sharing a generator.
type prng struct{ s uint64 }

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) float() float64 { return float64(p.next()>>11) / (1 << 53) }

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// hotSpecs are the repeated analyst queries: the paper's Q1-Q4 on both
// providers. hotWeights skews the mix towards the first entries.
var hotSpecs = []query.Query{
	query.Q1(),
	query.Q2(),
	query.Q3(),
	query.Q4(),
	{Kind: query.RangeCount, Provider: record.GreenTaxi, Lo: 50, Hi: 100},
	{Kind: query.SumFare, Provider: record.GreenTaxi, Lo: 1, Hi: record.NumLocations},
	{Kind: query.GroupCount, Provider: record.GreenTaxi},
}

var hotWeights = []float64{0.30, 0.20, 0.15, 0.12, 0.10, 0.08, 0.05}

// owner is one tenant as the benchmark sees it: its seeded input streams,
// the core.Owner that syncs it, and the reference bookkeeping the checks
// read.
type owner struct {
	idx       int
	name      string
	kind      int // 0 SUR, 1 DP-Timer, 2 DP-ANT
	noiseSeed uint64
	arrivals  prng
	queries   prng

	core *core.Owner
	db   edb.Database // what core.Owner and the queries call

	// arrived is the owner's arrival bit per tick; records holds every real
	// record in the order it reached the owner (D0 first), which is the
	// order a FIFO cache uploads them in.
	arrived leakage.Arrivals
	records []record.Record
	// bounds[k] is how many real records the first k+1 syncs carried, so a
	// committed prefix of k+1 syncs answers over records[:bounds[k]].
	bounds []int
	// cached counts real records waiting in the owner's cache; seen is how
	// many transcript events bounds already accounts for.
	cached int
	seen   int
	failed bool
}

func newOwner(i int, seed uint64) *owner {
	base := seed*0x100000001b3 + uint64(i)*0x9e3779b97f4a7c15
	return &owner{
		idx:       i,
		name:      fmt.Sprintf("owner-%05d", i),
		kind:      i % 3,
		noiseSeed: base ^ 0x5851f42d4c957f2d,
		arrivals:  prng{s: base ^ 0x14057b7ef767814f},
		queries:   prng{s: base ^ 0x2545f4914f6cdd1d},
	}
}

func (o *owner) strategy() (strategy.Strategy, error) {
	switch o.kind {
	case 0:
		return strategy.NewSUR(), nil
	case 1:
		cfg := timerCfg
		cfg.Source = dp.NewSeededSource(o.noiseSeed)
		return strategy.NewTimer(cfg)
	default:
		cfg := antCfg
		cfg.Source = dp.NewSeededSource(o.noiseSeed)
		return strategy.NewANT(cfg)
	}
}

// initial builds D0: yellow/green pairs at pickup time 0 first (so the
// join has tick-aligned pairs), inside Q1's 50-100 range, fares nonzero.
func (o *owner) initial(n int) []record.Record {
	d0 := make([]record.Record, n)
	for k := range d0 {
		prov := record.YellowCab
		if k%2 == 1 {
			prov = record.GreenTaxi
		}
		d0[k] = record.Record{PickupTime: 0, PickupID: uint16(50 + o.arrivals.intn(51)),
			Provider: prov, FareCents: uint32(1 + o.arrivals.intn(record.MaxFareCents))}
	}
	return d0
}

// arrival draws tick t's logical update: at most one record, half the
// pickups in Q1's range, pickup times rounded to even ticks so arrivals on
// neighbouring ticks form join pairs.
func (o *owner) arrival(t int, p float64) (record.Record, bool) {
	if o.arrivals.float() >= p {
		return record.Record{}, false
	}
	id := uint16(1 + o.arrivals.intn(record.NumLocations))
	if o.arrivals.next()&1 == 0 {
		id = uint16(50 + o.arrivals.intn(51))
	}
	prov := record.YellowCab
	if o.arrivals.next()&1 == 0 {
		prov = record.GreenTaxi
	}
	return record.Record{PickupTime: record.Tick(t &^ 1), PickupID: id, Provider: prov,
		FareCents: uint32(1 + o.arrivals.intn(record.MaxFareCents))}, true
}

// nextQuery draws one analyst query: a hot spec by hotWeights, or with
// probability tail a Q1 over a random range (distinct with high
// probability, so it misses the answer cache and pushes entries out).
func (o *owner) nextQuery(tail float64) query.Query {
	if o.queries.float() < tail {
		lo := 1 + o.queries.intn(record.NumLocations)
		hi := lo + o.queries.intn(record.NumLocations-lo+1)
		prov := record.YellowCab
		if o.queries.next()&1 == 0 {
			prov = record.GreenTaxi
		}
		return query.Query{Kind: query.RangeCount, Provider: prov, Lo: uint16(lo), Hi: uint16(hi)}
	}
	u := o.queries.float()
	for i, w := range hotWeights {
		if u < w {
			return hotSpecs[i]
		}
		u -= w
	}
	return hotSpecs[len(hotSpecs)-1]
}

// noteSyncs extends bounds with the syncs the owner's transcript gained
// since the last call. A sync of volume v carries min(v, cached) real
// records: the FIFO cache hands out its oldest records and pads the rest
// with dummies.
func (o *owner) noteSyncs() {
	events := o.core.Pattern().Events
	for ; o.seen < len(events); o.seen++ {
		real := min(events[o.seen].Volume, o.cached)
		o.cached -= real
		prev := 0
		if len(o.bounds) > 0 {
			prev = o.bounds[len(o.bounds)-1]
		}
		o.bounds = append(o.bounds, prev+real)
	}
}
