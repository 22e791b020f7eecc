// Command servebench is the DP-Sync serving benchmark. It stands the
// serving stack up in one process through its public APIs (gateway.New,
// cluster.Start, client.DialGateway, core.Owner over OwnerSession), drives
// it with a closed loop of owner drivers, checks every output against
// references computed apart from the serving code, and prints one JSON
// result line.
//
//	servebench -workload sync -seed 1 -seconds 10 -trace 0
//	servebench -workload sync -runs 10 -seconds 10   # steadiness
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 a
// traced run measures the per-layer metrics at the layers' public seams.
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a measuring run stands its stack up; setup_s
// is their median. The drive is measured in driveWindows windows; the
// sync-only workloads interleave readWindows read windows with them.
const (
	// workdir, under the checkout the benchmark runs from, holds the
	// build and each run's store files (removed after the run).
	workdir      = ".bench_build"
	setups       = 31
	driveWindows = 20
	readWindows  = 10
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: sync, durable, read-mix or replica-read")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured drive length in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		runs    = flag.Int("runs", 0, "steadiness: run the workload this many times in fresh processes and print spreads")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	if *runs > 0 {
		if err := steady(w, *runs, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	// One P: the stack and its drivers share one scheduler, so no request
	// waits for the host to wake a second, idle vCPU. On a shared host
	// that wake-up is what moves most from run to run (README.md, Load).
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Printf("# %s: %d owners, %d drivers over %d connections (closed loop), GOMAXPROCS %d, seed %d, %gs\n",
		w.name, w.owners, drivers, conns, runtime.GOMAXPROCS(0), *seed, *seconds)
	res, s, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir)
	if s != nil {
		s.stop()
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench: check failed:", err)
		res.Correct = false
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// settle flushes the store files under dir to disk, so that the timed
// phases do not pay for the writeback of what the untimed warm-up wrote.
func settle(dir string) {
	_ = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return nil
		}
		if f, err := os.Open(path); err == nil {
			_ = f.Sync()
			f.Close()
		}
		return nil
	})
}

// keyFor derives the run's shared data key from the seed.
func keyFor(seed uint64) []byte {
	g := prng{s: seed ^ 0x6a09e667f3bcc908}
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(g.next())
	}
	return key
}

// run performs one measuring or traced run. It returns the stack it
// drove, still up, for the caller to stop (nil if none came up). A non-nil
// error is a failed check; the result still carries the operation counts.
func run(w workload, seed uint64, dur time.Duration, traced bool, dir string) (result, *stack, error) {
	key := keyFor(seed)
	res := result{Correct: true}
	count := func(ts ...tally) {
		for _, t := range ts {
			res.Attempted += len(t.syncLat) + len(t.queryLat)
			res.Failed += t.syncFailed + t.qryFailed
			fmt.Printf("# ops: sync attempted %d failed %d, query attempted %d failed %d\n",
				len(t.syncLat), t.syncFailed, len(t.queryLat), t.qryFailed)
		}
	}

	var setupTimes []float64
	var s *stack
	var plainRate float64
	nStacks := setups
	if traced {
		nStacks = 1
		// The untraced half: the same drive on a plain stack, whose rate
		// the traced half is compared with.
		plain, err := start(w, key, filepath.Join(dir, "plain"), seed, nil)
		if err != nil {
			return res, nil, err
		}
		ds := newDrivers(plain)
		if err := warmUp(ds); err != nil {
			return res, plain, err
		}
		t, elapsed, err := phase(ds, func(d *driver) { d.rounds(time.Now().Add(dur / 2)) })
		plain.stop()
		if err != nil {
			return res, nil, err
		}
		plainRate = headlineRate(w, t, elapsed)
		dur /= 2
	}
	for k := 0; k < nStacks; k++ {
		var sm *seams
		if traced {
			sm = &seams{}
		}
		sdir := filepath.Join(dir, fmt.Sprintf("stack%d", k))
		runtime.GC() // the torn-down stacks' garbage is not this set-up's cost
		begin := time.Now()
		st, err := start(w, key, sdir, seed, sm)
		if err != nil {
			return res, nil, err
		}
		setupTimes = append(setupTimes, time.Since(begin).Seconds())
		if k < nStacks-1 {
			st.stop()
			os.RemoveAll(sdir)
			continue
		}
		s = st
	}

	ds := newDrivers(s)
	if err := warmUp(ds); err != nil {
		return res, s, err
	}
	if w.durable {
		settle(s.dir)
	}
	// The heap is read here, after a warm-up of a fixed number of ticks,
	// so it holds the same work on every run of a seed however fast the
	// stack is. The warm-up's latency samples are dropped first.
	for _, d := range ds {
		d.t = tally{}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	// The drive is measured in windows: rates and CPU per operation are
	// medians over them, so a short disturbance moves one window only. On
	// the sync-only workloads every third window is a read window, so
	// their query figures span the whole drive, as their sync figures do.
	win := dur / driveWindows
	n, read := driveWindows, func(int) bool { return false }
	if w.queriesPerTick == 0 && !traced {
		n, read = driveWindows+readWindows, func(k int) bool { return k%3 == 2 }
	}
	p0 := takeProbe(s)
	drive, wins, cpu, driveT, driveErr := windowed(ds, n, win, func(d *driver) { d.windows(n, read) })
	p1 := takeProbe(s)
	count(drive)
	if driveErr != nil {
		return res, s, driveErr
	}
	var driveWins, readWins []tally
	var driveCPU []time.Duration
	for k, t := range wins {
		if read(k) {
			readWins = append(readWins, t)
			continue
		}
		driveWins = append(driveWins, t)
		driveCPU = append(driveCPU, cpu[k+1]-cpu[k])
	}
	if w.replica {
		if err := s.awaitFollower(); err != nil {
			return res, s, err
		}
	}
	pass, _, passErr := phase(ds, (*driver).answerPass)
	p2 := takeProbe(s)
	count(pass)
	if passErr != nil {
		return res, s, passErr
	}
	if w.replica {
		if err := checkCaughtUp(p1, p2); err != nil {
			return res, s, err
		}
	}
	if err := checkState(s, s.gw); err != nil {
		return res, s, err
	}
	var recovery time.Duration
	if w.durable && !w.replica {
		var err error
		if recovery, err = crashAndReopen(s); err != nil {
			return res, s, err
		}
	}
	if !traced {
		res.Metrics = fill(endToEnd, endToEndValues(w, setupTimes, driveWins, readWins, win, driveCPU, ms.HeapAlloc))
		return res, s, nil
	}
	var both tally
	both.merge(drive)
	both.merge(pass)
	v, err := perLayerValues(s, key, both, headlineRate(w, drive, driveT), plainRate, p0, p2, recovery)
	if err != nil {
		return res, s, err
	}
	res.Metrics = fill(perLayer, v)
	return res, s, nil
}

// headlineRate is the drive's syncs per second on sync-only workloads and
// its queries per second on read workloads.
func headlineRate(w workload, t tally, elapsed time.Duration) float64 {
	if w.queriesPerTick == 0 {
		return float64(len(t.syncLat)-t.syncFailed) / elapsed.Seconds()
	}
	return float64(len(t.queryLat)-t.qryFailed) / elapsed.Seconds()
}
