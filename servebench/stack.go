package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/cluster"
	"dpsync/internal/core"
	"dpsync/internal/gateway"
	"dpsync/internal/telemetry"
)

// Load shape: drivers closed-loop owner drivers over conns multiplexed
// client connections. Each driver waits for every reply before its next
// request, so at most drivers requests are outstanding.
const (
	drivers = 2
	conns   = 2
)

// stack is one serving stack with its owners set up on it.
type stack struct {
	w      workload
	key    []byte
	dir    string
	reg    *telemetry.Registry
	gwCfg  gateway.Config
	gw     *gateway.Gateway // the serving gateway (the primary's, in a cluster)
	nodes  []*cluster.Node  // replica-read: primary, follower
	conns  []*client.GatewayConn
	modes  []*opMode
	owners []*owner
	sm     *seams // nil in the measuring run
}

// gatewayConfig is the stack's serving configuration: what dpsync-server
// runs with by default (telemetry registry, tracer at default sampling,
// group commits flushed to the OS without fsync), plus the workload's
// store settings and, in the traced run, the seams.
func (s *stack) gatewayConfig(follower bool) (gateway.Config, error) {
	cfg := gateway.Config{
		Key:           s.key,
		Telemetry:     s.reg,
		Tracer:        telemetry.NewTracer(telemetry.TracerConfig{}),
		HistoryWindow: s.w.window,
		SyncEpsilon:   s.w.syncEps,
	}
	if s.w.durable && !s.w.replica {
		cfg.StoreDir = s.dir
	}
	if s.sm != nil {
		cfg.NewBackend = s.sm.backend(s.key, follower)
		if !s.w.replica {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return cfg, err
			}
			cfg.Listener = countingListener{Listener: lis, c: &s.sm.c}
		}
	}
	return cfg, nil
}

// start brings the stack up and sets every owner up on it: the span
// setup_s measures.
func start(w workload, key []byte, dir string, seed uint64, sm *seams) (*stack, error) {
	s := &stack{w: w, key: key, dir: dir, reg: telemetry.New(), sm: sm}
	if err := s.serve(); err != nil {
		s.stop()
		return nil, err
	}
	addr := s.gw.Addr()
	for i := 0; i < conns; i++ {
		mode := &opMode{}
		var opts []client.GatewayOption
		if sm != nil {
			opts = append(opts, client.WithDialer(sm.dialer(mode)))
		}
		if w.replica {
			opts = append(opts, client.WithReadReplica(s.nodes[1].Addr()))
		}
		c, err := client.DialGateway(addr, key, opts...)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.conns = append(s.conns, c)
		s.modes = append(s.modes, mode)
	}
	s.owners = make([]*owner, w.owners)
	for i := range s.owners {
		s.owners[i] = newOwner(i, seed)
	}
	if err := s.eachDriver(func(d int, o *owner) error { return s.setupOwner(d, o) }); err != nil {
		s.stop()
		return nil, err
	}
	if w.replica {
		if err := s.awaitFollower(); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// serve starts the gateway, or the two cluster nodes with the follower
// attached to the primary.
func (s *stack) serve() error {
	if !s.w.replica {
		cfg, err := s.gatewayConfig(false)
		if err != nil {
			return err
		}
		s.gwCfg = cfg
		gw, err := gateway.New("127.0.0.1:0", cfg)
		if err != nil {
			return err
		}
		s.gw = gw
		go func() { _ = gw.Serve() }()
		return nil
	}
	lease := cluster.NewMemLease(nil)
	for i, id := range []string{"a", "b"} {
		cfg, err := s.gatewayConfig(i == 1)
		if err != nil {
			return err
		}
		reg := s.reg
		if i == 1 {
			reg = telemetry.New()
		}
		n, err := cluster.Start(cluster.Config{Addr: "127.0.0.1:0", NodeID: id,
			StoreDir: filepath.Join(s.dir, id), Gateway: cfg, Lease: lease, Telemetry: reg})
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, n)
	}
	if s.nodes[0].Role() != cluster.RolePrimary || s.nodes[1].Role() != cluster.RoleFollower {
		return fmt.Errorf("cluster came up as %v/%v", s.nodes[0].Role(), s.nodes[1].Role())
	}
	s.gw = s.nodes[0].Gateway()
	return waitFor(func() bool { return s.nodes[0].Stats().Hub.Followers == 1 }, "follower attach")
}

func waitFor(cond func() bool, what string) error {
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// awaitFollower waits until the follower has applied every entry the
// primary committed.
func (s *stack) awaitFollower() error {
	return waitFor(func() bool {
		var committed int64
		for _, st := range s.gw.ShardStatuses() {
			committed += st.Committed
		}
		return int64(s.nodes[1].Stats().Follower.Applied) >= committed
	}, "follower catch-up")
}

// eachDriver runs fn for every owner on the owner's driver goroutine,
// drivers in parallel, and returns the first error.
func (s *stack) eachDriver(fn func(d int, o *owner) error) error {
	errs := make([]error, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := d; i < len(s.owners); i += drivers {
				if err := fn(d, s.owners[i]); err != nil {
					errs[d] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) setupOwner(d int, o *owner) error {
	strat, err := o.strategy()
	if err != nil {
		return err
	}
	c := d % conns
	o.db = s.conns[c].Owner(o.name)
	if s.sm != nil {
		o.db = &tracedDB{Database: o.db, s: s.sm, mode: s.modes[c]}
	}
	if o.core, err = core.New(core.Config{Strategy: strat, Database: o.db}); err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	d0 := o.initial(s.w.d0)
	o.records = append(o.records, d0...)
	o.cached = len(d0)
	if err := o.core.Setup(d0); err != nil {
		return fmt.Errorf("%s: setup: %w", o.name, err)
	}
	o.noteSyncs()
	return nil
}

// stop closes clients, then the servers (follower first, so closing the
// primary cannot promote it).
func (s *stack) stop() {
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.conns = nil
	if s.w.replica {
		for i := len(s.nodes) - 1; i >= 0; i-- {
			_ = s.nodes[i].Close()
		}
		s.nodes = nil
	} else if s.gw != nil {
		_ = s.gw.Close()
	}
	s.gw = nil
}
