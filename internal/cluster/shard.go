package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/persist"
)

// shard is one of a node's independent event loops, owning a disjoint
// slice of the keyspace (Node.shardFor). Everything below the channel
// fields is loop-owned: accessed only from this shard's loop goroutine,
// never locked, never shared with another shard — the per-object
// independence of the paper's protocol means replicas of different keys
// have nothing to say to each other, so the shards need no cross-shard
// synchronization on the hot path.
type shard struct {
	n   *Node
	idx int

	events  chan nodeEvent
	calls   chan func()
	rephase chan struct{} // restart the flush cadence; nil without batching

	// Loop-owned state (accessed only from this shard's event loop).
	replicas      map[string]*core.Replica
	busy          map[string]struct{} // keys with requests in flight: all a retransmit tick visits
	dirty         []string            // keys whose replica may hold outbox envelopes
	dirtySet      map[string]struct{} // membership of dirty (one entry per key per event)
	droppedFrames uint64              // inbound frames dropped before reaching a replica
	crashed       bool
	batchUpdates  map[string][]*updateOp
	batchQueries  map[string][]*queryOp
	savedVersion  map[string]uint64   // per-key StateVersion last durably persisted
	inflight      map[string]uint64   // per-key StateVersion submitted to the persister, not yet durable
	persistBroken map[string]struct{} // keys whose persistence pipeline failed; releases withheld until a save succeeds
	queued        map[string]int      // per-key requests handed to the persister and not yet through processReleases
	persistErrs   uint64              // failed snapshot writes (outbox + completions dropped)
	notify        []keyedNotify       // client completions deferred past persistence

	// Group-commit persistence pipeline; nil on volatile nodes (see
	// persister.go).
	persistq chan persistReq
	relMu    sync.Mutex
	rel      []persistDone
	relSig   chan struct{}
}

func newShard(n *Node, idx int) *shard {
	s := &shard{
		n:             n,
		idx:           idx,
		events:        make(chan nodeEvent, 8192),
		calls:         make(chan func()),
		replicas:      make(map[string]*core.Replica),
		busy:          make(map[string]struct{}),
		dirtySet:      make(map[string]struct{}),
		batchUpdates:  make(map[string][]*updateOp),
		batchQueries:  make(map[string][]*queryOp),
		savedVersion:  make(map[string]uint64),
		inflight:      make(map[string]uint64),
		persistBroken: make(map[string]struct{}),
		queued:        make(map[string]int),
	}
	if n.store != nil {
		s.persistq = make(chan persistReq, 1024)
		s.relSig = make(chan struct{}, 1)
	}
	if n.cfg.BatchInterval > 0 {
		s.rephase = make(chan struct{}, 1)
	}
	return s
}

// call runs fn on the shard's event loop and waits for it, for
// loop-synchronized inspection. Returns false if the node is stopped.
func (s *shard) call(fn func()) bool {
	done := make(chan struct{})
	select {
	case s.calls <- func() { fn(); close(done) }:
		select {
		case <-done:
			return true
		case <-s.n.quit:
			return false
		}
	case <-s.n.quit:
		return false
	}
}

func (s *shard) submit(ctx context.Context, ev nodeEvent) error {
	select {
	case s.events <- ev:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.n.quit:
		return ErrStopped
	}
}

func (s *shard) post(ev nodeEvent) {
	select {
	case s.events <- ev:
	case <-s.n.quit:
	}
}

// loop is the shard's one goroutine, and it owns the shard's two clocks:
// the retransmit ticker, which re-drives the requests of every key with
// some in flight (core.Replica.Tick), and, when batching, the flush timer.
// The flush keeps the §3.6 cadence: the first update flush at this node's
// slot in the window (flushOffset), then update and query flushes
// alternating every BatchInterval/2, restarted at the new slot when the
// member set changes (Node.noteConfig). The alternation is what batching
// is for: flushing both kinds at one instant would make every batched
// query collide with its own node's MERGE broadcast and forfeit the fast
// path.
func (s *shard) loop() {
	defer s.n.wg.Done()
	tick := time.NewTicker(s.n.cfg.RetransmitInterval)
	defer tick.Stop()
	slot := func() time.Duration {
		return flushOffset(s.n.currentConfig().Members, s.n.id, s.n.cfg.BatchInterval)
	}
	var flush *time.Timer
	var flushC <-chan time.Time // nil (blocks forever) without batching
	queries := false
	if s.n.cfg.BatchInterval > 0 {
		flush = time.NewTimer(slot())
		defer flush.Stop()
		flushC = flush.C
	}
	for {
		select {
		case <-s.n.quit:
			return
		case ev := <-s.events:
			s.handle(ev)
		case fn := <-s.calls:
			fn()
		case <-s.relSig: // nil (blocks forever) without a persister
			s.processReleases()
		case <-tick.C:
			for key := range s.busy {
				s.markDirty(key)
				s.replicas[key].Tick()
			}
		case <-flushC:
			if !s.crashed {
				s.flushBatches(queries)
			}
			queries = !queries
			flush.Reset(s.n.cfg.BatchInterval / 2)
		case <-s.rephase:
			queries = false
			flush.Reset(slot())
		}
		s.flushOutbox()
	}
}

// markDirty records that key's replica may hold outbox envelopes, once:
// one event can touch the same replica many times (deliver, retransmit,
// submit), and re-scanning the key's outbox and snapshot version per
// touch is pure waste.
func (s *shard) markDirty(key string) {
	if _, ok := s.dirtySet[key]; ok {
		return
	}
	s.dirtySet[key] = struct{}{}
	s.dirty = append(s.dirty, key)
}

// replicaFor returns the replica owning key, instantiating it on first
// touch. The key is marked dirty so its outbox is drained after the event.
//
// A fresh replica starts from the node's configuration view, not the
// boot-time Config.Members: after a reconfiguration, a lazily created key
// must address the current member set, not the group the node booted
// with.
func (s *shard) replicaFor(key string) (*core.Replica, error) {
	if rep, ok := s.replicas[key]; ok {
		s.markDirty(key)
		return rep, nil
	}
	s0, err := s.n.cfg.initialFor(key)
	if err != nil {
		return nil, err
	}
	rep, err := core.NewReplicaConfig(s.n.id, s.n.currentConfig(), s0, s.n.cfg.Options)
	if err != nil {
		return nil, err
	}
	s.replicas[key] = rep
	s.markDirty(key)
	return rep, nil
}

func (s *shard) handle(ev nodeEvent) {
	switch ev.kind {
	case evInbound:
		if s.crashed {
			return
		}
		rep, err := s.replicaFor(ev.key)
		if err != nil {
			// No agreed initial state for this key: drop, counted — a peer
			// whose configuration accepts the key would otherwise hang
			// against this node with no diagnostic trace here.
			s.droppedFrames++
			return
		}
		// A frame can carry a configuration this replica adopts (a
		// RECONFIG, or the anti-entropy repair after an epoch mismatch);
		// fold any adoption into the node view so later-instantiated keys
		// start from it.
		adoptions := rep.Counters().ConfigAdoptions
		rep.Deliver(ev.from, ev.payload)
		if rep.Counters().ConfigAdoptions != adoptions {
			s.n.noteConfig(rep.ConfigState())
		}
	case evUpdate:
		if s.crashed {
			ev.update.done <- updateResult{err: ErrUnavailable}
			return
		}
		if s.n.cfg.BatchInterval > 0 {
			s.batchUpdates[ev.key] = append(s.batchUpdates[ev.key], ev.update)
			return
		}
		s.startUpdate(ev.key, []*updateOp{ev.update})
	case evQuery:
		if s.crashed {
			ev.query.done <- queryResult{err: ErrUnavailable}
			return
		}
		if s.n.cfg.BatchInterval > 0 {
			s.batchQueries[ev.key] = append(s.batchQueries[ev.key], ev.query)
			return
		}
		s.startQuery(ev.key, []*queryOp{ev.query})
	case evReconfig:
		s.startReconfigure(ev.reconfig)
	case evSetCrashed:
		s.crashed = ev.crash
		if ev.crash {
			s.failEverything()
		}
		// Entering or leaving a crash invalidates every round lease this
		// node holds: while it was down (or from the instant it stops
		// serving), other proposers may move the quorum's rounds, and a
		// resumed lease would skip the prepare that detects that. Dropping
		// is purely conservative — the next quorum read re-earns it.
		for _, rep := range s.replicas {
			rep.DropLease()
		}
	case evRestartPrep:
		ev.restarted <- s.restartPrep()
	case evRestore:
		ev.restarted <- s.restore(ev.snaps)
	}
}

func (s *shard) startUpdate(key string, ops []*updateOp) {
	rep, err := s.replicaFor(key)
	if err != nil {
		for _, op := range ops {
			op.done <- updateResult{err: err}
		}
		return
	}
	combined := func(st crdt.State) (crdt.State, error) {
		var err error
		for _, op := range ops {
			st, err = op.fu(st)
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	// The completion is deferred to the flush's notify phase: on a
	// durable node the client must not observe success before the local
	// snapshot covering the update has hit disk.
	_, err = rep.SubmitUpdate(combined, func(stats core.UpdateStats, err error) {
		s.notify = append(s.notify, keyedNotify{key: key, fn: func() {
			for _, op := range ops {
				op.done <- updateResult{stats: stats, err: err}
			}
		}})
	})
	if err != nil {
		for _, op := range ops {
			op.done <- updateResult{err: err}
		}
	}
}

func (s *shard) startQuery(key string, ops []*queryOp) {
	rep, err := s.replicaFor(key)
	if err != nil {
		for _, op := range ops {
			op.done <- queryResult{err: err}
		}
		return
	}
	rep.SubmitQuery(func(st crdt.State, stats core.QueryStats, err error) {
		s.notify = append(s.notify, keyedNotify{key: key, fn: func() {
			for _, op := range ops {
				op.done <- queryResult{state: st, stats: stats, err: err}
			}
		}})
	})
}

// reconfigAgg aggregates one shard's per-key reconfiguration outcomes.
// It lives on the loop (callbacks fire from Deliver and Abort, both
// loop-run), so no locking: pending counts keys whose rounds are still
// gathering their joint quorum, and the shard's single result is sent
// when the last one settles — but never before submission finishes, so a
// key that commits synchronously (a single-member group) cannot conclude
// the shard while later keys are still being submitted.
type reconfigAgg struct {
	op        *reconfigOp
	pending   int
	submitted bool
	errs      []error
}

func (a *reconfigAgg) settle(err error) {
	if err != nil {
		a.errs = append(a.errs, err)
	}
	a.pending--
	a.maybeFinish()
}

func (a *reconfigAgg) maybeFinish() {
	if a.submitted && a.pending == 0 {
		a.op.done <- errors.Join(a.errs...)
	}
}

// startReconfigure submits the new member set to every key instantiated
// on this shard (or, on a behindOnly pass, to every key the node view has
// moved past), in sorted key order for determinism. Each key runs its own
// reconfiguration round (configuration is per-key state); the shard
// reports once, when all of them have committed or failed. Lost RECONFIGs
// are re-driven by the retransmit tick like any other request.
func (s *shard) startReconfigure(op *reconfigOp) {
	if s.crashed {
		op.done <- ErrUnavailable
		return
	}
	view := s.n.currentConfig()
	keys := make([]string, 0, len(s.replicas))
	for k, rep := range s.replicas {
		if !op.behindOnly || view.Supersedes(rep.ConfigState()) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	op.swept.Add(int64(len(keys)))
	agg := &reconfigAgg{op: op}
	for _, key := range keys {
		rep := s.replicas[key]
		s.markDirty(key)
		agg.pending++
		if _, err := rep.SubmitReconfigure(op.members, func(err error) {
			agg.settle(err)
		}); err != nil {
			agg.pending--
			agg.errs = append(agg.errs, fmt.Errorf("key %q: %w", key, err))
			continue
		}
		// The proposer self-adopts the candidate configuration on
		// submission; surface it to the node view right away so keys
		// instantiated during the round already use the new member set.
		s.n.noteConfig(rep.ConfigState())
	}
	agg.submitted = true
	agg.maybeFinish()
}

// flushBatches starts one protocol run per key holding buffered commands of
// the given kind — keys batch independently, so a hot key's protocol run
// does not serialize behind a cold key's.
func (s *shard) flushBatches(queries bool) {
	if queries {
		for key, ops := range s.batchQueries {
			delete(s.batchQueries, key)
			s.startQuery(key, ops)
		}
		return
	}
	for key, ops := range s.batchUpdates {
		delete(s.batchUpdates, key)
		s.startUpdate(key, ops)
	}
}

func (s *shard) clearDirty() {
	for _, key := range s.dirty {
		delete(s.dirtySet, key)
	}
	s.dirty = s.dirty[:0]
}

// failEverything aborts in-flight and batched requests upon crash; their
// callers receive ErrAborted / ErrUnavailable.
func (s *shard) failEverything() {
	for key := range s.busy {
		s.replicas[key].AbortAll()
		delete(s.busy, key)
	}
	for key, ops := range s.batchUpdates {
		delete(s.batchUpdates, key)
		for _, op := range ops {
			op.done <- updateResult{err: ErrUnavailable}
		}
	}
	for key, ops := range s.batchQueries {
		delete(s.batchQueries, key)
		for _, op := range ops {
			op.done <- queryResult{err: ErrUnavailable}
		}
	}
}

// installSnapshot rehydrates one persisted key: the replica is created
// from the configured initial state and the snapshot restored into it
// (Restore joins, so a snapshot can never regress below s0). A snapshot
// for a key the local configuration rejects fails the load — serving a
// keyspace the disk remembers but the config denies would be a silent
// split-brain between configuration and data. Called before the loop
// starts (NewNode) or on the loop (restore), never concurrently.
func (s *shard) installSnapshot(ks persist.KeySnapshot) error {
	rep, ok := s.replicas[ks.Key]
	if !ok {
		s0, err := s.n.cfg.initialFor(ks.Key)
		if err != nil {
			return fmt.Errorf("cluster: %s: snapshot for unconfigured key %q: %w", s.n.id, ks.Key, err)
		}
		rep, err = core.NewReplicaConfig(s.n.id, s.n.currentConfig(), s0, s.n.cfg.Options)
		if err != nil {
			return err
		}
		s.replicas[ks.Key] = rep
	}
	if err := rep.Restore(ks.Snap); err != nil {
		return fmt.Errorf("cluster: %s: restore %q: %w", s.n.id, ks.Key, err)
	}
	// The snapshot may carry a configuration newer than the node's view
	// (the common case at startup: the view is the boot-time member list,
	// the disk has what this key had actually adopted).
	if cfg := rep.ConfigState(); len(cfg.Members) > 0 {
		s.n.noteConfig(cfg)
	}
	s.savedVersion[ks.Key] = rep.StateVersion()
	return nil
}

// restartPrep is restart phase one, on the loop: quiesce the persister
// (pending group-commit batches land on disk and their surviving
// completions are delivered — they were promised before the restart),
// then drop every volatile structure and park crashed until restore.
// Only Node.Restart posts it, and only on a durable node: drainPersister
// sends on persistq, which a volatile node does not have.
func (s *shard) restartPrep() error {
	if err := s.drainPersister(); err != nil {
		return err
	}
	s.failEverything()
	// The aborts above carry errors, not acknowledgements — nothing about
	// them needs to be durable, so they bypass the (now empty) pipeline.
	for _, kn := range s.notify {
		kn.fn()
	}
	s.notify = s.notify[:0]
	s.replicas = make(map[string]*core.Replica)
	s.savedVersion = make(map[string]uint64)
	s.inflight = make(map[string]uint64)
	s.persistBroken = make(map[string]struct{})
	s.clearDirty()
	s.crashed = true
	return nil
}

// restore is restart phase two, on the loop: rehydrate this shard's keys
// from the snapshots the caller read and resume serving. On error the
// shard stays crashed — refusing to serve is the only safe answer when
// the disk cannot reproduce what was promised to the quorum.
func (s *shard) restore(snaps []persist.KeySnapshot) error {
	if s.n.shardFor(DefaultKey) == s.idx {
		rep, err := core.NewReplicaConfig(s.n.id, s.n.currentConfig(), s.n.cfg.Initial, s.n.cfg.Options)
		if err != nil {
			return err
		}
		s.replicas[DefaultKey] = rep
	}
	for _, ks := range snaps {
		if err := s.installSnapshot(ks); err != nil {
			return err
		}
	}
	s.crashed = false
	return nil
}
