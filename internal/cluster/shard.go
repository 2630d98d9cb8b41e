package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/persist"
)

// shard is one of a node's independent event loops, owning a disjoint
// slice of the keyspace (Node.shardFor). Its state is loop-owned: touched
// only by the node's driver running this shard's steps, one at a time,
// never locked, never shared with another shard — the per-object
// independence of the paper's protocol means replicas of different keys
// have nothing to say to each other, so the shards need no cross-shard
// synchronization on the hot path.
type shard struct {
	n   *Node
	idx int

	keys           map[string]*keyState // every instantiated key; the shard's only per-key map
	dirty          []*keyState          // keys whose replica may hold outbox envelopes or completions
	busy           []*keyState          // keys with requests in flight: all a retransmit tick visits
	batchedUpdates []*keyState          // keys with buffered updates, in enqueue order
	batchedQueries []*keyState          // keys with buffered queries, in enqueue order
	flushQueries   bool                 // the next batch flush starts queries, not updates
	droppedFrames  uint64               // inbound frames dropped before reaching a replica
	crashed        bool
	persistErrs    uint64 // failed snapshot writes (outbox + completions dropped)
	persisting     int    // requests in the group commit, over all keys
}

// keyState is everything a shard knows about one object key: the key's
// replica, which holds the paper's whole per-object state (payload and
// round), and the loop's bookkeeping around it. Dropping the record drops
// all of it.
type keyState struct {
	key string
	rep *core.Replica

	dirty   bool        // on shard.dirty
	busy    int         // 1 + index on shard.busy; 0 when not on it
	updates []*updateOp // §3.6 batch buffers, started by flushBatches
	queries []*queryOp
	notify  []func() // client completions deferred past persistence

	saved    uint64 // StateVersion last durably persisted
	inflight uint64 // StateVersion submitted to the persister, not yet durable; 0 when none
	queued   int    // requests handed to the persister and not yet through processDones
	broken   bool   // the persistence pipeline failed; releases withheld until a save succeeds
}

func newShard(n *Node, idx int) *shard {
	return &shard{n: n, idx: idx, keys: make(map[string]*keyState)}
}

// call runs fn as an event on the shard's loop and waits for it, for
// loop-synchronized inspection. Returns false if the node is stopped.
func (s *shard) call(fn func()) bool {
	done := make(chan struct{})
	ev := nodeEvent{kind: evCall, call: func() { fn(); close(done) }}
	return s.n.drv.submit(context.Background(), s, ev) == nil && s.n.drv.wait(context.Background(), done) == nil
}

// tick is the retransmit step and returns the delay to the next: it
// re-drives every key with requests in flight (core.Replica.Tick), in
// s.busy's order, so its messages leave in an order fixed by the events.
func (s *shard) tick() time.Duration {
	for _, ks := range s.busy {
		s.markDirty(ks)
		ks.rep.Tick()
	}
	return s.n.cfg.RetransmitInterval
}

// setBusy puts ks on s.busy or takes it off. Taking it off moves the last
// key into its slot: O(1), and the order stays a function of the events.
func (s *shard) setBusy(ks *keyState, busy bool) {
	switch {
	case busy && ks.busy == 0:
		s.busy = append(s.busy, ks)
		ks.busy = len(s.busy)
	case !busy && ks.busy > 0:
		last := s.busy[len(s.busy)-1]
		s.busy[ks.busy-1], last.busy = last, ks.busy
		s.busy[len(s.busy)-1] = nil
		s.busy = s.busy[:len(s.busy)-1]
		ks.busy = 0
	}
}

// flush is the batch-flush step and returns the delay to the next. The
// §3.6 cadence: the first update flush at this node's slot in the window
// (rephased, again whenever the member set changes), then update and
// query flushes alternating every BatchInterval/2. Flushing both kinds at
// once would make every batched query collide with its own node's MERGE
// broadcast and forfeit the fast path.
func (s *shard) flush() time.Duration {
	if !s.crashed {
		s.flushBatches(s.flushQueries)
	}
	s.flushQueries = !s.flushQueries
	return s.n.cfg.BatchInterval / 2
}

// rephased restarts the flush cadence at this node's slot and returns
// the delay to its first (update) flush.
func (s *shard) rephased() time.Duration {
	s.flushQueries = false
	return flushOffset(s.n.currentConfig().Members, s.n.id, s.n.cfg.BatchInterval)
}

// markDirty puts ks on the dirty list, once: one event can touch the same
// replica many times (deliver, retransmit, submit), and re-scanning the
// key's outbox and snapshot version per touch is pure waste.
func (s *shard) markDirty(ks *keyState) {
	if !ks.dirty {
		ks.dirty = true
		s.dirty = append(s.dirty, ks)
	}
}

// record returns key's record, instantiating it on first touch. The
// record is marked dirty so its outbox is drained after the event.
func (s *shard) record(key string) (*keyState, error) {
	ks, ok := s.keys[key]
	if !ok {
		var err error
		if ks, err = s.instantiate(key); err != nil {
			return nil, err
		}
	}
	s.markDirty(ks)
	return ks, nil
}

// command returns the record a client command on key runs against;
// a crashed shard serves none.
func (s *shard) command(key string) (*keyState, error) {
	if s.crashed {
		return nil, ErrUnavailable
	}
	return s.record(key)
}

// instantiate creates key's record around a fresh replica holding the
// key's configured initial state. The replica starts from the node's
// configuration view, not the boot-time Config.Members: after a
// reconfiguration, a lazily created key must address the current member
// set, not the group the node booted with.
func (s *shard) instantiate(key string) (*keyState, error) {
	s0, err := s.n.cfg.initialFor(key)
	if err != nil {
		return nil, err
	}
	rep, err := core.NewReplicaConfig(s.n.id, s.n.currentConfig(), s0, s.n.cfg.Options)
	if err != nil {
		return nil, err
	}
	return s.add(key, rep), nil
}

// add installs a record for key around rep.
func (s *shard) add(key string, rep *core.Replica) *keyState {
	ks := &keyState{key: key, rep: rep}
	s.keys[key] = ks
	return ks
}

// deferDone queues a client completion on ks; flushOutbox releases it
// once everything ordered before it for the key is durable.
func (s *shard) deferDone(ks *keyState, fn func()) {
	ks.notify = append(ks.notify, fn)
	s.markDirty(ks)
}

func (s *shard) handle(ev nodeEvent) {
	switch ev.kind {
	case evInbound:
		if s.crashed {
			return
		}
		ks, err := s.record(ev.key)
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
		adoptions := ks.rep.Counters().ConfigAdoptions
		ks.rep.Deliver(ev.from, ev.payload)
		if ks.rep.Counters().ConfigAdoptions != adoptions {
			s.n.noteConfig(ks.rep.ConfigState())
		}
	case evUpdate:
		ks, err := s.command(ev.key)
		switch {
		case err != nil:
			ev.update.done(core.UpdateStats{}, err)
		case s.n.cfg.BatchInterval == 0:
			s.startUpdate(ks, []*updateOp{ev.update})
		default:
			if len(ks.updates) == 0 {
				s.batchedUpdates = append(s.batchedUpdates, ks)
			}
			ks.updates = append(ks.updates, ev.update)
		}
	case evQuery:
		ks, err := s.command(ev.key)
		switch {
		case err != nil:
			ev.query.done(nil, core.QueryStats{}, err)
		case s.n.cfg.BatchInterval == 0:
			s.startQuery(ks, []*queryOp{ev.query})
		default:
			if len(ks.queries) == 0 {
				s.batchedQueries = append(s.batchedQueries, ks)
			}
			ks.queries = append(ks.queries, ev.query)
		}
	case evCall:
		ev.call()
	}
}

// setCrashed enters (failing everything in flight) or leaves a crash.
// Either way it invalidates every round lease this node holds: while it
// was down (or from the instant it stops serving), other proposers may
// move the quorum's rounds, and a resumed lease would skip the prepare
// that detects that. Dropping is purely conservative — the next quorum
// read re-earns it.
func (s *shard) setCrashed(crashed bool) {
	s.crashed = crashed
	if crashed {
		s.failEverything()
	}
	for _, ks := range s.keys {
		ks.rep.DropLease()
	}
}

func (s *shard) startUpdate(ks *keyState, ops []*updateOp) {
	s.markDirty(ks)
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
	// The completion is deferred to flushOutbox: on a durable node the
	// client must not observe success before the local snapshot covering
	// the update has hit disk.
	_, err := ks.rep.SubmitUpdate(combined, func(stats core.UpdateStats, err error) {
		s.deferDone(ks, func() {
			for _, op := range ops {
				op.done(stats, err)
			}
		})
	})
	if err != nil {
		for _, op := range ops {
			op.done(core.UpdateStats{}, err)
		}
	}
}

func (s *shard) startQuery(ks *keyState, ops []*queryOp) {
	s.markDirty(ks)
	ks.rep.SubmitQuery(func(st crdt.State, stats core.QueryStats, err error) {
		s.deferDone(ks, func() {
			for _, op := range ops {
				op.done(st, stats, err)
			}
		})
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
	report    func(error)
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
		a.report(errors.Join(a.errs...))
	}
}

// startReconfigure submits the new member set to every key instantiated
// on this shard (or, on a behindOnly pass, to every key the node view has
// moved past), in sorted key order for determinism. Each key runs its own
// reconfiguration round (configuration is per-key state); the shard
// reports once, when all of them have committed or failed. Lost RECONFIGs
// are re-driven by the retransmit tick like any other request.
func (s *shard) startReconfigure(op *reconfigOp, report func(error)) {
	if s.crashed {
		report(ErrUnavailable)
		return
	}
	view := s.n.currentConfig()
	var recs []*keyState
	for _, ks := range s.keys {
		if !op.behindOnly || view.Supersedes(ks.rep.ConfigState()) {
			recs = append(recs, ks)
		}
	}
	slices.SortFunc(recs, func(a, b *keyState) int { return strings.Compare(a.key, b.key) })
	op.swept.Add(int64(len(recs)))
	agg := &reconfigAgg{report: report}
	for _, ks := range recs {
		s.markDirty(ks)
		agg.pending++
		if _, err := ks.rep.SubmitReconfigure(op.members, func(err error) {
			agg.settle(err)
		}); err != nil {
			agg.pending--
			agg.errs = append(agg.errs, fmt.Errorf("key %q: %w", ks.key, err))
			continue
		}
		// The proposer self-adopts the candidate configuration on
		// submission; surface it to the node view right away so keys
		// instantiated during the round already use the new member set.
		s.n.noteConfig(ks.rep.ConfigState())
	}
	agg.submitted = true
	agg.maybeFinish()
}

// flushBatches starts one protocol run per key holding buffered commands of
// the given kind, in the order the keys were first buffered — keys batch
// independently, so a hot key's protocol run does not serialize behind a
// cold key's.
func (s *shard) flushBatches(queries bool) {
	if queries {
		batched := s.batchedQueries
		s.batchedQueries = nil
		for _, ks := range batched {
			ops := ks.queries
			ks.queries = nil
			s.startQuery(ks, ops)
		}
		return
	}
	batched := s.batchedUpdates
	s.batchedUpdates = nil
	for _, ks := range batched {
		ops := ks.updates
		ks.updates = nil
		s.startUpdate(ks, ops)
	}
}

// failEverything aborts in-flight and batched requests upon crash, in
// list order; their callers receive ErrAborted / ErrUnavailable.
func (s *shard) failEverything() {
	for _, ks := range s.busy {
		ks.rep.AbortAll()
		ks.busy = 0
	}
	// A command started since the last flushOutbox is not on s.busy yet:
	// an or-set remove's update, started by its observation's completion
	// while restartPrep drained the persister.
	for _, ks := range s.dirty {
		if ks.busy == 0 {
			ks.rep.AbortAll()
		}
	}
	for _, ks := range s.batchedUpdates {
		for _, op := range ks.updates {
			op.done(core.UpdateStats{}, ErrUnavailable)
		}
		ks.updates = nil
	}
	for _, ks := range s.batchedQueries {
		for _, op := range ks.queries {
			op.done(nil, core.QueryStats{}, ErrUnavailable)
		}
		ks.queries = nil
	}
	s.busy, s.batchedUpdates, s.batchedQueries = nil, nil, nil
}

// installSnapshot rehydrates one persisted key: the replica is created
// from the configured initial state and the snapshot restored into it
// (Restore joins, so a snapshot can never regress below s0). A snapshot
// for a key the local configuration rejects fails the load — serving a
// keyspace the disk remembers but the config denies would be a silent
// split-brain between configuration and data. Called before the loop
// starts (NewNode) or on the loop (restore), never concurrently.
func (s *shard) installSnapshot(snap persist.KeySnapshot) error {
	ks, ok := s.keys[snap.Key]
	if !ok {
		var err error
		if ks, err = s.instantiate(snap.Key); err != nil {
			return fmt.Errorf("cluster: %s: snapshot for key %q: %w", s.n.id, snap.Key, err)
		}
	}
	if err := ks.rep.Restore(snap.Snap); err != nil {
		return fmt.Errorf("cluster: %s: restore %q: %w", s.n.id, snap.Key, err)
	}
	// The snapshot may carry a configuration newer than the node's view
	// (the common case at startup: the view is the boot-time member list,
	// the disk has what this key had actually adopted).
	if cfg := ks.rep.ConfigState(); len(cfg.Members) > 0 {
		s.n.noteConfig(cfg)
	}
	ks.saved = ks.rep.StateVersion()
	return nil
}

// restartPrep is restart phase one, on the loop: quiesce the persister
// (pending group-commit batches land on disk and their surviving
// completions are delivered — they were promised before the restart),
// then drop every record and park crashed until restore.
func (s *shard) restartPrep() error {
	if err := s.n.drv.drain(s); err != nil {
		return err
	}
	s.failEverything()
	// The aborts above carry errors, not acknowledgements — nothing about
	// them needs to be durable, so they bypass the (now empty) pipeline.
	for _, ks := range s.dirty {
		for _, fn := range ks.notify {
			fn()
		}
	}
	s.keys, s.dirty = make(map[string]*keyState), nil
	s.crashed = true
	return nil
}

// restore is restart phase two, on the loop: rehydrate this shard's keys
// from the snapshots the caller read and resume serving. On error the
// shard stays crashed — refusing to serve is the only safe answer when
// the disk cannot reproduce what was promised to the quorum.
func (s *shard) restore(snaps []persist.KeySnapshot) error {
	if s.n.shardFor(DefaultKey) == s.idx {
		if _, err := s.instantiate(DefaultKey); err != nil {
			return err
		}
	}
	for _, ks := range snaps {
		if err := s.installSnapshot(ks); err != nil {
			return err
		}
	}
	s.crashed = false
	return nil
}
