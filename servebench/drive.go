package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"dpsync/internal/cluster"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
)

// failedNs stands in for the latency of a failed operation: it misses
// every latency figure.
const failedNs = math.MaxInt64

// tally is one driver's operations in one phase.
type tally struct {
	syncLat, queryLat     []int64 // ns per operation
	syncFailed, qryFailed int
}

func (t *tally) merge(o tally) {
	t.syncLat = append(t.syncLat, o.syncLat...)
	t.queryLat = append(t.queryLat, o.queryLat...)
	t.syncFailed += o.syncFailed
	t.qryFailed += o.qryFailed
}

// driver is one closed-loop owner driver: it ticks its owners round-robin
// and, on read workloads, issues each tick's queries, each call waiting
// for its reply.
type driver struct {
	s      *stack
	id     int
	groups []float64 // GroupCount scratch for the answer reference
	t      tally
	err    error // first failed check
	// answers wait here for their checks until the phase is over, so the
	// reference loops, whose cost grows with the records acked, stay out
	// of every measured window.
	answers []answered
	// A windowed phase also files each operation under the window its
	// reply arrived in: wins[k] covers [t0+k*win, t0+(k+1)*win).
	t0   time.Time
	win  time.Duration
	wins []tally
}

// record files one operation's latency (failedNs for a failure).
func (d *driver) record(query bool, ns int64, end time.Time) {
	add := func(t *tally) {
		switch {
		case query && ns == failedNs:
			t.qryFailed++
			fallthrough
		case query:
			t.queryLat = append(t.queryLat, ns)
		case ns == failedNs:
			t.syncFailed++
			fallthrough
		default:
			t.syncLat = append(t.syncLat, ns)
		}
	}
	add(&d.t)
	if d.wins != nil {
		if k := int(end.Sub(d.t0) / d.win); k >= 0 && k < len(d.wins) {
			add(&d.wins[k])
		}
	}
}

func (d *driver) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// step advances owner o by one tick and, if queries is set, runs the
// tick's queries.
func (d *driver) step(o *owner, queries bool) {
	w := d.s.w
	var buf [1]record.Record
	arrivals := buf[:0]
	t := len(o.arrived) + 1
	rec, ok := o.arrival(t, w.arrivalP)
	o.arrived = append(o.arrived, ok)
	if ok {
		arrivals = append(arrivals, rec)
		o.records = append(o.records, rec)
		o.cached++
	}
	before := len(o.core.Pattern().Events)
	start := time.Now()
	err := o.core.Tick(arrivals...)
	end := time.Now()
	ns := end.Sub(start).Nanoseconds()
	if d.s.sm != nil {
		d.s.sm.c.add(cTickNs, ns)
		d.s.sm.c.add(cTicks, 1)
	}
	if err != nil {
		o.failed = true
		d.record(false, failedNs, end)
		d.fail(fmt.Errorf("%s: tick %d: %w", o.name, t, err))
		return
	}
	// A tick that synced twice (window and flush) counts two syncs, each
	// at half the tick's wall time.
	if n := len(o.core.Pattern().Events) - before; n > 0 {
		for k := 0; k < n; k++ {
			d.record(false, ns/int64(n), end)
		}
		o.noteSyncs()
	}
	for k := 0; queries && k < w.queriesPerTick; k++ {
		d.query(o, o.nextQuery(w.tailShare), w.replica)
	}
}

// answered is one query answer awaiting its check. It holds no pointers,
// so the garbage collector need not scan the growing list.
type answered struct {
	owner    int // index into the stack's owners
	q        query.Query
	k        int // syncs the owner had acked when the answer arrived
	got      digest
	prefixOK bool
}

// query runs one analyst query and files its answer for the check:
// against every acked record on the primary, against some committed
// prefix on a replica.
func (d *driver) query(o *owner, q query.Query, prefixOK bool) {
	start := time.Now()
	ans, _, err := o.db.Query(q)
	end := time.Now()
	if err != nil {
		d.record(true, failedNs, end)
		d.fail(fmt.Errorf("%s: query %v: %w", o.name, q, err))
		return
	}
	d.record(true, end.Sub(start).Nanoseconds(), end)
	d.answers = append(d.answers, answered{owner: o.idx, q: q, k: len(o.bounds), got: digestOf(ans), prefixOK: prefixOK})
}

// checkAnswers checks the answers filed since the last call. An owner's
// answers arrive with nondecreasing k, so one reference table per owner
// serves every answer until its next sync.
func (d *driver) checkAnswers() {
	type ref struct {
		k int
		t refTable
	}
	refs := make(map[*owner]*ref)
	for _, a := range d.answers {
		o := d.s.owners[a.owner]
		r := refs[o]
		if r == nil {
			r = &ref{k: -1}
			refs[o] = r
		}
		if r.k != a.k {
			r.k = a.k
			r.t.fill(o.acked(a.k))
		}
		if a.got == digestOf(r.t.answer(a.q, d.groups)) {
			continue
		}
		if err := checkAnswer(o, a.q, a.k, a.got, a.prefixOK, d.groups); err != nil {
			d.fail(err)
			break
		}
	}
	d.answers = nil
}

// round advances each of the driver's owners by one tick, with the
// tick's queries if queries is set.
func (d *driver) round(queries bool) {
	for i := d.id; i < len(d.s.owners); i += drivers {
		if o := d.s.owners[i]; !o.failed {
			d.step(o, queries)
		}
	}
}

// rounds drives whole rounds until the deadline has passed.
func (d *driver) rounds(until time.Time) {
	for {
		d.round(true)
		if !time.Now().Before(until) {
			return
		}
	}
}

// windows drives the owners round-robin until the last of n windows has
// passed. In a window where read(k) holds, each owner visited gets the
// read-mix's eight queries instead of a tick: the read windows of the
// sync-only workloads. It checks the window before every owner, so no
// operation of one kind spills more than one owner's worth into a window
// of the other.
func (d *driver) windows(n int, read func(k int) bool) {
	for {
		for i := d.id; i < len(d.s.owners); i += drivers {
			k := int(time.Since(d.t0) / d.win)
			if k >= n {
				return
			}
			o := d.s.owners[i]
			switch {
			case o.failed:
			case read(k):
				for q := 0; q < readQueries; q++ {
					d.query(o, o.nextQuery(readTail), false)
				}
			default:
				d.step(o, true)
			}
		}
	}
}

// The read windows of the sync-only workloads use the read-mix's query mix.
const (
	readQueries = 8
	readTail    = 0.5
)

// warmUp drives the untimed warm-up. It counts ticks, not time, so it
// does the same work on every run of a seed:
//
//   - owner i first makes (i/3) mod T sync-only ticks, T the DP-Timer
//     period, so the owners of each strategy sit at every phase of the
//     period. In lockstep, every DP-Timer owner would sync on the same
//     round and the sync rate would come in bursts;
//   - then sync-only rounds tick every owner that has made no more than
//     warmSyncs syncs, and only those, so that on sync and durable the
//     timed drive starts past the resync-window step (README.md, wastes)
//     without the SUR owners piling up history meanwhile;
//   - then warmRounds rounds of the workload's full mix.
func warmUp(ds []*driver) error {
	const chunk, maxRounds = 64, 1 << 16
	s := ds[0].s
	period := int(timerCfg.Period)
	if _, _, err := phase(ds, func(d *driver) {
		for i := d.id; i < len(s.owners); i += drivers {
			for k := 0; k < (i/3)%period && !s.owners[i].failed; k++ {
				d.step(s.owners[i], false)
			}
		}
	}); err != nil {
		return err
	}
	behind := func(o *owner) bool { return !o.failed && len(o.bounds) <= s.w.warmSyncs }
	for done := 0; slices.ContainsFunc(s.owners, behind); done += chunk {
		if done > maxRounds {
			return fmt.Errorf("warm-up: an owner made no more than %d syncs in %d rounds", s.w.warmSyncs, done)
		}
		if _, _, err := phase(ds, func(d *driver) {
			for k := 0; k < chunk; k++ {
				for i := d.id; i < len(s.owners); i += drivers {
					if o := s.owners[i]; behind(o) {
						d.step(o, false)
					}
				}
			}
		}); err != nil {
			return err
		}
	}
	_, _, err := phase(ds, func(d *driver) {
		for k := 0; k < s.w.warmRounds; k++ {
			d.round(true)
		}
	})
	return err
}

// answerPass queries every hot spec once for each of the driver's owners
// and checks each answer against all acked records.
func (d *driver) answerPass() {
	for i := d.id; i < len(d.s.owners); i += drivers {
		o := d.s.owners[i]
		if o.failed {
			continue
		}
		for _, q := range hotSpecs {
			d.query(o, q, false)
		}
	}
}

// phase runs fn on every driver in parallel, then checks the answers it
// got, and returns the merged tally, the wall time (checks excluded), and
// the first failed check.
func phase(ds []*driver, fn func(*driver)) (tally, time.Duration, error) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, d := range ds {
		d.t = tally{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(d)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all tally
	var err error
	for _, d := range ds {
		d.checkAnswers()
		all.merge(d.t)
		if err == nil {
			err = d.err
		}
	}
	return all, elapsed, err
}

// windowed runs fn on every driver like phase, for n windows of length
// win from now, filing every operation under its window; cpu[k] is the
// process CPU time at the start of window k (cpu[n] at the end of the
// last).
func windowed(ds []*driver, n int, win time.Duration, fn func(*driver)) (all tally, wins []tally, cpu []time.Duration, elapsed time.Duration, err error) {
	cpu = make([]time.Duration, n+1)
	t0 := time.Now()
	cpu[0] = cpuTime()
	for _, d := range ds {
		d.t0, d.win, d.wins = t0, win, make([]tally, n)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(t0.Add(time.Duration(k) * win)))
			cpu[k] = cpuTime()
		}
	}()
	// Each driver also waits for the last CPU sample, so the answer checks
	// after the phase cannot fall into it.
	all, elapsed, err = phase(ds, func(d *driver) {
		fn(d)
		<-done
	})
	wins = make([]tally, n)
	for _, d := range ds {
		for k := range wins {
			wins[k].merge(d.wins[k])
		}
		d.wins = nil
	}
	return all, wins, cpu, elapsed, err
}

func newDrivers(s *stack) []*driver {
	ds := make([]*driver, drivers)
	for i := range ds {
		ds[i] = &driver{s: s, id: i, groups: make([]float64, record.NumLocations)}
	}
	return ds
}

// probe is a snapshot of everything the metrics difference across a
// phase: process CPU and allocator state, the seams' counters, and the
// stack's public stats.
type probe struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	c          [nCtr]int64
	reg        []telemetry.Sample
	qc         gateway.QueryCacheStats
	storeM     store.Metrics
	nodeA      cluster.NodeStats
	nodeB      cluster.NodeStats
	served     int64
	fellBk     int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeProbe(s *stack) probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := probe{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcs: ms.NumGC}
	if s.sm != nil {
		p.c = s.sm.c.snapshot()
	}
	p.reg = s.reg.Snapshot()
	p.qc = s.gw.QueryCacheStats()
	if m, ok := s.gw.StoreMetrics(); ok {
		p.storeM = m
	}
	if s.w.replica {
		p.nodeA = s.nodes[0].Stats()
		p.nodeB = s.nodes[1].Stats()
	}
	for _, c := range s.conns {
		served, _, fallbacks := c.ReplicaStats()
		p.served += served
		p.fellBk += fallbacks
	}
	return p
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// checkState runs the transcript and ledger checks for every owner
// against gw.
func checkState(s *stack, gw *gateway.Gateway) error {
	groups := make([]float64, record.NumLocations)
	for _, o := range s.owners {
		if o.failed {
			continue
		}
		ref, err := o.mechanism(s.w.d0)
		if err != nil {
			return err
		}
		if err := checkTranscript(o, ref, gw.ObservedPattern(o.name)); err != nil {
			return fmt.Errorf("transcript: %w", err)
		}
		if err := checkLedger(o, len(ref.Events), s.w.syncEps, gw.ObservedLedger(o.name)); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		if got, want := o.bounds[len(o.bounds)-1], o.core.UploadedReal(); got != want {
			return fmt.Errorf("%s: transcript accounts for %d acked records, owner uploaded %d", o.name, got, want)
		}
		if err := checkInputs(o, groups); err != nil {
			return fmt.Errorf("inputs: %w", err)
		}
	}
	return nil
}

// crashAndReopen kills the durable gateway, reopens it from its store,
// and checks every owner's recovered transcript and ledger. It returns the
// recovery time: Kill to gateway.New returning with every owner back.
func crashAndReopen(s *stack) (time.Duration, error) {
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.conns = nil
	cfg := s.gwCfg
	cfg.Listener = nil
	cfg.Telemetry = telemetry.New()
	start := time.Now()
	s.gw.Kill()
	gw, err := gateway.New("127.0.0.1:0", cfg)
	recovery := time.Since(start)
	if err != nil {
		s.gw = nil
		return 0, fmt.Errorf("reopen: %w", err)
	}
	s.gw = gw
	if err := checkRecovered(gw, len(s.owners)); err != nil {
		return 0, err
	}
	if err := checkState(s, gw); err != nil {
		return 0, fmt.Errorf("after recovery: %w", err)
	}
	return recovery, nil
}
