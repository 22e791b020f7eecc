package main

import (
	"math"
	"slices"
	"time"

	"dpsync/internal/seal"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"syncs_per_s", "1/s", "higher"},
	{"sync_p50_ms", "ms", "lower"},
	{"sync_p95_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p95_ms", "ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"core.tick_self_us", "us", "lower"},
	{"core.records_per_sync", "count", "lower"},
	{"seal.us_per_sync", "us", "lower"},
	{"client.sync_rtt_us", "us", "lower"},
	{"client.query_rtt_us", "us", "lower"},
	{"wire.client_writes_per_op", "count", "lower"},
	{"wire.client_reads_per_op", "count", "lower"},
	{"wire.bytes_per_sync", "B", "lower"},
	{"wire.bytes_per_query", "B", "lower"},
	{"gateway.conn_writes_per_op", "count", "lower"},
	{"gateway.conn_reads_per_op", "count", "lower"},
	{"gateway.queue_wait_us_p50", "us", "lower"},
	{"gateway.apply_us_p50", "us", "lower"},
	{"oblidb.ingest_us_per_sync", "us", "lower"},
	{"oblidb.query_us_per_miss", "us", "lower"},
	{"qcache.hit_ratio", "ratio", "higher"},
	{"qcache.evictions_per_query", "ratio", "lower"},
	{"qcache.invalidations_per_sync", "ratio", "lower"},
	{"store.group_factor", "count", "higher"},
	{"store.append_commit_us", "us", "lower"},
	{"store.wal_bytes_per_sync", "B", "lower"},
	{"store.disk_bytes_per_user_byte", "ratio", "lower"},
	{"store.snapshots", "count", "lower"},
	{"store.spill_batches", "count", "lower"},
	{"store.recovery_s", "s", "lower"},
	{"cluster.rebuilds_per_query", "ratio", "lower"},
	{"cluster.rebuild_us", "us", "lower"},
	{"cluster.replica_served_ratio", "ratio", "higher"},
	{"cluster.repl_lag_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill maps values onto defs with their units.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates the q-quantile of ns samples, in milliseconds.
// Failed operations sit at the top as failedNs.
func quantileMs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	v := float64(s[lo]) + (pos-float64(lo))*(float64(s[hi])-float64(s[lo]))
	return v / 1e6
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4), whose default
// "exclusive" method is what the spreads are judged by.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// histP50 is the median of the observations a telemetry histogram gained
// between two snapshots, interpolated within its bucket.
func histP50(before, after probe, name string) float64 {
	find := func(p probe) []int64 {
		for _, s := range p.reg {
			if s.Name == name && s.Hist != nil {
				return s.Hist.Counts
			}
		}
		return nil
	}
	var bounds []float64
	for _, s := range after.reg {
		if s.Name == name && s.Hist != nil {
			bounds = s.Hist.Bounds
		}
	}
	a, b := find(after), find(before)
	if a == nil {
		return 0
	}
	delta := make([]int64, len(a))
	var total int64
	for i := range a {
		delta[i] = a[i]
		if b != nil {
			delta[i] -= b[i]
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := float64(total) / 2
	var cum float64
	for i, c := range delta {
		if cum+float64(c) >= target && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := lo
			if i < len(bounds) {
				hi = bounds[i]
			}
			return lo + (target-cum)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// endToEndValues turns a measuring run into its end-to-end metrics. Rates
// and CPU per operation are medians over the drive's windows, so a short
// disturbance moves one window only; percentiles are taken over every
// sample of the drive, since rare operations leave a window too few for a
// tail. Query figures come from the read windows on sync-only workloads.
// cpu[k] is the process CPU time drive window k took.
func endToEndValues(w workload, setups []float64, drive, reads []tally, win time.Duration,
	cpu []time.Duration, heapBytes uint64) map[string]float64 {
	if w.queriesPerTick > 0 {
		reads = drive
	}
	var all, allReads tally
	var syncRate, cpuOp, qRate []float64
	for k, t := range drive {
		all.merge(t)
		syncs := float64(len(t.syncLat) - t.syncFailed)
		ops := syncs + float64(len(t.queryLat)-t.qryFailed)
		syncRate = append(syncRate, syncs/win.Seconds())
		cpuOp = append(cpuOp, ratio(float64(cpu[k].Nanoseconds())/1e3, ops))
	}
	for _, t := range reads {
		allReads.merge(t)
		qRate = append(qRate, float64(len(t.queryLat)-t.qryFailed)/win.Seconds())
	}
	return map[string]float64{
		"setup_s":       median(setups),
		"syncs_per_s":   median(syncRate),
		"sync_p50_ms":   quantileMs(all.syncLat, 0.50),
		"sync_p95_ms":   quantileMs(all.syncLat, 0.95),
		"queries_per_s": median(qRate),
		"query_p50_ms":  quantileMs(allReads.queryLat, 0.50),
		"query_p95_ms":  quantileMs(allReads.queryLat, 0.95),
		"cpu_us_per_op": median(cpuOp),
		"live_heap_mb":  float64(heapBytes) / (1 << 20),
	}
}

// perLayerValues turns a traced run into its per-layer metrics. The window
// is the traced drive plus the answer pass; plainRate is the untraced
// half's headline rate, for the tracing overhead.
func perLayerValues(s *stack, key []byte, ops tally, driveRate, plainRate float64, p0, p1 probe,
	recovery time.Duration) (map[string]float64, error) {
	var d [nCtr]float64
	for i := range d {
		d[i] = float64(p1.c[i] - p0.c[i])
	}
	syncs, queries := d[cSyncs], d[cQueries]
	nOps := float64(len(ops.syncLat) + len(ops.queryLat))

	sealer, err := seal.NewSealer(key)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, b := range s.sm.batches {
		if _, err := sealer.SealAll(b); err != nil {
			return nil, err
		}
	}
	sealUs := ratio(float64(time.Since(start).Nanoseconds())/1e3, float64(len(s.sm.batches)))

	var acked float64
	for _, o := range s.owners {
		acked += float64(o.bounds[len(o.bounds)-1])
	}
	sm0, sm1 := p0.storeM, p1.storeM
	appends := float64(sm1.Appends - sm0.Appends)

	v := map[string]float64{
		"core.tick_self_us":          ratio((d[cTickNs]-d[cSyncNs])/1e3, d[cTicks]),
		"core.records_per_sync":      ratio(d[cSyncRecs], syncs),
		"seal.us_per_sync":           sealUs,
		"client.sync_rtt_us":         ratio(d[cSyncNs]/1e3, syncs),
		"client.query_rtt_us":        ratio(d[cQueryNs]/1e3, queries),
		"wire.client_writes_per_op":  ratio(d[cCliWrites], syncs+queries),
		"wire.client_reads_per_op":   ratio(d[cCliReads], syncs+queries),
		"wire.bytes_per_sync":        ratio(d[cCliBytesS], syncs),
		"wire.bytes_per_query":       ratio(d[cCliBytesQ], queries),
		"gateway.conn_writes_per_op": ratio(d[cGwWrites], syncs+queries),
		"gateway.conn_reads_per_op":  ratio(d[cGwReads], syncs+queries),
		"gateway.queue_wait_us_p50":  histP50(p0, p1, "gateway_sync_queue_wait_us"),
		"gateway.apply_us_p50":       histP50(p0, p1, "gateway_sync_apply_us"),
		"oblidb.ingest_us_per_sync":  ratio(d[cIngestNs]/1e3, d[cIngests]),
		"oblidb.query_us_per_miss":   ratio(d[cBackQNs]/1e3, d[cBackQ]),

		"qcache.hit_ratio":              ratio(float64(p1.qc.Hits-p0.qc.Hits), float64(p1.qc.Hits-p0.qc.Hits+p1.qc.Misses-p0.qc.Misses)),
		"qcache.evictions_per_query":    ratio(float64(p1.qc.Evictions-p0.qc.Evictions), queries),
		"qcache.invalidations_per_sync": ratio(float64(p1.qc.Invalidations-p0.qc.Invalidations), syncs),

		"store.group_factor":             ratio(appends, float64(sm1.Commits-sm0.Commits)),
		"store.append_commit_us":         ratio(float64(sm1.AppendNs-sm0.AppendNs)/1e3, appends),
		"store.wal_bytes_per_sync":       ratio(float64(sm1.Bytes-sm0.Bytes), appends),
		"store.disk_bytes_per_user_byte": ratio(float64(dirBytes(s.dir)), acked*16),
		"store.snapshots":                float64(sm1.Snapshots - sm0.Snapshots),
		"store.spill_batches":            float64(sm1.SpillBatches - sm0.SpillBatches),
		"store.recovery_s":               recovery.Seconds(),

		"runtime.allocs_per_op":      ratio(float64(p1.mallocs-p0.mallocs), nOps),
		"runtime.alloc_bytes_per_op": ratio(float64(p1.allocBytes-p0.allocBytes), nOps),
		"runtime.gc_cycles":          float64(p1.gcs - p0.gcs),
		"trace.overhead_pct":         ratio(plainRate-driveRate, plainRate) * 100,
	}
	if !s.w.durable {
		v["store.disk_bytes_per_user_byte"] = 0
	}
	if s.w.replica {
		rp0, rp1 := p0.nodeB.ReadPlane, p1.nodeB.ReadPlane
		rebuilds := float64(rp1.Rebuilds - rp0.Rebuilds)
		hits, misses := float64(rp1.CacheHits-rp0.CacheHits), float64(rp1.CacheMisses-rp0.CacheMisses)
		f0, f1 := p0.nodeB.Follower, p1.nodeB.Follower
		served, fell := float64(p1.served-p0.served), float64(p1.fellBk-p0.fellBk)
		v["qcache.hit_ratio"] = ratio(hits, hits+misses)
		v["oblidb.query_us_per_miss"] = ratio(d[cFolQNs]/1e3, d[cFolQ])
		v["cluster.rebuilds_per_query"] = ratio(rebuilds, float64(rp1.Queries-rp0.Queries))
		v["cluster.rebuild_us"] = ratio(d[cFolIngestNs]/1e3, rebuilds)
		v["cluster.replica_served_ratio"] = ratio(served, served+fell)
		v["cluster.repl_lag_ms"] = ratio(float64(f1.LagNs-f0.LagNs)/1e6, float64(f1.Applied-f0.Applied))
	}
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v[k] = 0
		}
	}
	return v, nil
}
