package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/edb"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// The traced run measures each layer only at a public seam, through the
// wrappers in this file: an edb.Database around each owner session, the
// client's dialer conns, the gateway's listener conns, and the backend
// constructor on the primary and the follower. The measuring run uses
// none of them.

// ctr names one traced counter.
type ctr int

const (
	cTickNs      ctr = iota // Owner.Tick wall time
	cTicks                  // Owner.Tick calls
	cSyncs                  // Setup/Update calls through the wrapper
	cSyncNs                 // their round-trip time (all of it inside ticks)
	cSyncRecs               // records (real and dummy) they carried
	cQueries                // Query calls through the wrapper
	cQueryNs                // their round-trip time
	cCliWrites              // Write calls on client conns
	cCliReads               // Read calls on client conns
	cCliBytesS              // client conn bytes while a sync was outstanding
	cCliBytesQ              // client conn bytes while a query was outstanding
	cGwWrites               // Write calls on gateway conns
	cGwReads                // Read calls on gateway conns
	cIngests                // sealed ingests on the primary backend
	cIngestNs               //   and their time
	cBackQ                  // backend queries (answer-cache misses) on the primary
	cBackQNs                //   and their time
	cFolIngestNs            // follower backend construction + ingest time (rebuilds)
	cFolQ                   // backend queries on the follower read plane
	cFolQNs                 //   and their time
	nCtr
)

type counters [nCtr]atomic.Int64

func (c *counters) add(k ctr, v int64) { c[k].Add(v) }

func (c *counters) snapshot() (s [nCtr]int64) {
	for i := range c {
		s[i] = c[i].Load()
	}
	return s
}

// seams holds the traced run's wrappers' shared state.
type seams struct {
	c counters
	// batches keeps the first maxCaptured sync batches for the seal replay.
	mu      sync.Mutex
	batches [][]record.Record
}

const maxCaptured = 4096

func (s *seams) capture(rs []record.Record) {
	s.mu.Lock()
	if len(s.batches) < maxCaptured {
		s.batches = append(s.batches, rs)
	}
	s.mu.Unlock()
}

// opMode tells a driver's conns which operation is outstanding, so their
// bytes can be attributed: a closed-loop driver has one at a time.
type opMode struct{ query atomic.Bool }

// tracedDB wraps one owner session.
type tracedDB struct {
	edb.Database
	s    *seams
	mode *opMode
}

func (t *tracedDB) sync(rs []record.Record, call func([]record.Record) error) error {
	t.s.capture(rs)
	t.mode.query.Store(false)
	start := time.Now()
	err := call(rs)
	ns := time.Since(start).Nanoseconds()
	t.s.c.add(cSyncNs, ns)
	t.s.c.add(cSyncs, 1)
	t.s.c.add(cSyncRecs, int64(len(rs)))
	return err
}

func (t *tracedDB) Setup(rs []record.Record) error  { return t.sync(rs, t.Database.Setup) }
func (t *tracedDB) Update(rs []record.Record) error { return t.sync(rs, t.Database.Update) }

func (t *tracedDB) Query(q query.Query) (query.Answer, edb.Cost, error) {
	t.mode.query.Store(true)
	start := time.Now()
	a, cost, err := t.Database.Query(q)
	t.s.c.add(cQueryNs, time.Since(start).Nanoseconds())
	t.s.c.add(cQueries, 1)
	return a, cost, err
}

// countingConn counts calls and bytes on one transport.
type countingConn struct {
	net.Conn
	c              *counters
	writes, reads  ctr
	mode           *opMode // client side only: attributes bytes to syncs or queries
	bytesS, bytesQ ctr
}

func (cc *countingConn) bytes(n int) {
	if cc.mode == nil || n <= 0 {
		return
	}
	if cc.mode.query.Load() {
		cc.c.add(cc.bytesQ, int64(n))
	} else {
		cc.c.add(cc.bytesS, int64(n))
	}
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.add(cc.writes, 1)
	cc.bytes(n)
	return n, err
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.add(cc.reads, 1)
	cc.bytes(n)
	return n, err
}

func (s *seams) dialer(mode *opMode) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, c: &s.c, writes: cCliWrites, reads: cCliReads,
			mode: mode, bytesS: cCliBytesS, bytesQ: cCliBytesQ}, nil
	}
}

// countingListener hands the gateway counting conns.
type countingListener struct {
	net.Listener
	c *counters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c, writes: cGwWrites, reads: cGwReads}, nil
}

// timedBackend delegates to ObliDB, sealed-ingest methods included (the
// gateway and the read plane pick the sealed path by method set), and
// times ingests and queries.
type timedBackend struct {
	*oblidb.DB
	c                 *counters
	ingests, ingestNs ctr
	queries, queryNs  ctr
	countIngests      bool
}

func (s *seams) backend(key []byte, follower bool) func(string) (edb.Database, error) {
	return func(string) (edb.Database, error) {
		start := time.Now()
		db, err := oblidb.NewWithKey(key)
		if err != nil {
			return nil, err
		}
		b := &timedBackend{DB: db, c: &s.c, ingests: cIngests, ingestNs: cIngestNs,
			queries: cBackQ, queryNs: cBackQNs, countIngests: true}
		if follower {
			b.ingestNs, b.queries, b.queryNs, b.countIngests = cFolIngestNs, cFolQ, cFolQNs, false
			s.c.add(cFolIngestNs, time.Since(start).Nanoseconds())
		}
		return b, nil
	}
}

func (b *timedBackend) ingest(cts []seal.Sealed, call func([]seal.Sealed) error) error {
	start := time.Now()
	err := call(cts)
	b.c.add(b.ingestNs, time.Since(start).Nanoseconds())
	if b.countIngests {
		b.c.add(b.ingests, 1)
	}
	return err
}

func (b *timedBackend) SetupSealed(cts []seal.Sealed) error  { return b.ingest(cts, b.DB.SetupSealed) }
func (b *timedBackend) UpdateSealed(cts []seal.Sealed) error { return b.ingest(cts, b.DB.UpdateSealed) }

func (b *timedBackend) Query(q query.Query) (query.Answer, edb.Cost, error) {
	start := time.Now()
	a, cost, err := b.DB.Query(q)
	b.c.add(b.queryNs, time.Since(start).Nanoseconds())
	b.c.add(b.queries, 1)
	return a, cost, err
}
