package cluster

import (
	"crdtsmr/internal/persist"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// The group-commit persistence pipeline. The shard's event loop never
// writes a snapshot itself: after each event it packages the touched
// keys' snapshot records (on a durable node), outbound envelopes, and
// deferred client completions into persistReqs (flushOutbox). A request
// with something to wait for goes to this shard's persister goroutine,
// which drains its queue opportunistically — every request that arrives
// while the disk is busy joins the next batch — and commits a whole
// batch with persist.Store.SaveBatch: one frame appended to each key's
// file, the files flushed together. Each committed request is pushed onto
// the shard's release queue, and the loop (woken by relSig) releases its
// envelopes and completions.
//
// The persist-before-ack contract survives intact, per key: a request's
// envelopes and completions are released only after every snapshot write
// ordered before it (in the shard's FIFO pipeline) has landed, and a
// failed write marks its key broken — that key's releases are withheld,
// degrading it to a lossy link, until a later save succeeds — while every
// other key's releases proceed. A request with no record for a key with
// no request in the pipeline (s.queued) has nothing to wait for, so the
// loop releases it at once instead of queueing it behind other keys'
// batches: an update's completion at its proposer is the common case.
// On a volatile node every request is such a request, and there is no
// persister.
//
// The release queue is unbounded (mutex + slice) by design: the persister
// must never block on the loop, because the loop blocks sending to
// persistq when the queue fills — a bounded release path would deadlock
// the two against each other.

// outEnv is one packed wire frame awaiting release to a peer.
type outEnv struct {
	to    transport.NodeID
	frame []byte
}

// persistReq is one event's durability work for one key, in shard-FIFO
// order: an optional snapshot record to write, plus the envelopes and
// completions that must not be released before it (and everything queued
// ahead of it for this key) is durable.
type persistReq struct {
	key     string
	rec     *persist.Record // nil when the key's durable state did not advance
	version uint64          // StateVersion rec covers
	envs    []outEnv
	notify  []func()
	barrier chan struct{} // drain marker (restartPrep): closed once all prior requests committed
}

// persistDone is one committed (or failed) request on the release queue.
type persistDone struct {
	req persistReq
	ok  bool // the batch containing req's write committed (always true when req.rec == nil)
}

// enqueuePersist hands one request to the persister, blocking if the
// queue is full. Blocking here is safe: the persister never blocks on
// the loop (releases go through the unbounded release queue), so the
// queue always drains.
func (s *shard) enqueuePersist(req persistReq) {
	select {
	case s.persistq <- req:
	case <-s.n.quit:
	}
}

// flushOutbox runs after every loop iteration. It collects each dirty
// key's outbox, keeps the key in or out of the set the retransmit tick
// visits (s.busy) by whether it has requests in flight, takes a
// snapshot record when the node is durable and the key's durable state
// advanced, and attaches the event's deferred completions to their key's
// request. A request with nothing to wait for is released here; the rest
// go to the persister and are released by processReleases once the disk
// confirms. Only dirty keys are visited, so per-event cost is independent
// of the size of the keyspace.
func (s *shard) flushOutbox() {
	if len(s.dirty) == 0 && len(s.notify) == 0 {
		return
	}
	reqs := make([]persistReq, 0, len(s.dirty))
	reqIdx := make(map[string]int, len(s.dirty))
	for _, key := range s.dirty {
		rep, ok := s.replicas[key]
		if !ok {
			continue
		}
		out := rep.TakeOutbox()
		req := persistReq{key: key}
		if !s.crashed {
			if v := rep.StateVersion(); s.n.store != nil && v != s.savedVersion[key] && v != s.inflight[key] {
				rec, err := persist.FromSnapshot(key, rep.Snapshot())
				if err != nil {
					// Marshal failure is a persist failure: the key degrades
					// to a lossy link until a later snapshot encodes.
					s.persistErrs++
					s.persistBroken[key] = struct{}{}
				} else {
					req.rec = &rec
					req.version = v
					s.inflight[key] = v
				}
			}
			for _, e := range out {
				req.envs = append(req.envs, outEnv{to: e.To, frame: wire.PackEnvelope(key, e.Payload)})
			}
		}
		if rep.InFlight() > 0 {
			s.busy[key] = struct{}{}
		} else {
			delete(s.busy, key)
		}
		if req.rec != nil || len(req.envs) > 0 {
			reqIdx[key] = len(reqs)
			reqs = append(reqs, req)
		}
	}
	s.clearDirty()
	// Completions ride their key's request — or an empty one, so a
	// completion for a key with an earlier write still in flight waits
	// its turn in the FIFO.
	for _, kn := range s.notify {
		i, ok := reqIdx[kn.key]
		if !ok {
			i = len(reqs)
			reqIdx[kn.key] = i
			reqs = append(reqs, persistReq{key: kn.key})
		}
		reqs[i].notify = append(reqs[i].notify, kn.fn)
	}
	s.notify = s.notify[:0]
	for _, req := range reqs {
		// A request with nothing to write waits for no disk when its key has
		// nothing in the pipeline: every write ordered before it has landed.
		// This always holds on a volatile node, which must never reach
		// enqueuePersist: its persistq is nil, and a send on it would block
		// until Close.
		if _, broken := s.persistBroken[req.key]; req.rec == nil && s.queued[req.key] == 0 && !broken {
			s.release(req)
			continue
		}
		s.queued[req.key]++
		s.enqueuePersist(req)
	}
}

// persister runs as this shard's dedicated persistence goroutine: take
// everything currently queued, commit it as one batch, repeat. The
// batch size self-tunes to disk latency — the slower the device, the
// more requests accumulate per commit, which is the whole point of
// group commit.
func (s *shard) persister() {
	defer s.n.wg.Done()
	for {
		var batch []persistReq
		select {
		case <-s.n.quit:
			return
		case req := <-s.persistq:
			batch = append(batch, req)
		}
	drain:
		for {
			select {
			case req := <-s.persistq:
				batch = append(batch, req)
			default:
				break drain
			}
		}
		s.commitBatch(batch)
	}
}

// commitBatch writes the batch's snapshot records in one SaveBatch (which
// keeps each key's last record: a later record supersedes an earlier
// one), then pushes every request onto the release queue with the
// batch's verdict. A failed
// SaveBatch may have landed some keys' records but vouches for none, so
// a failure fails every request carrying a record in this batch (the
// torn-batch keys); record-less requests for other keys ride through
// unharmed, and the loop's persistBroken tracking withholds releases for
// any key whose disk state is behind.
func (s *shard) commitBatch(batch []persistReq) {
	var recs []persist.Record
	for _, req := range batch {
		if req.rec != nil {
			recs = append(recs, *req.rec)
		}
	}
	ok := true
	if len(recs) > 0 {
		ok = s.n.store.SaveBatch(recs) == nil
	}
	dones := make([]persistDone, 0, len(batch))
	for _, req := range batch {
		if req.barrier != nil {
			continue
		}
		dones = append(dones, persistDone{req: req, ok: ok})
	}
	s.pushReleases(dones)
	// Barriers close after their batch's releases are visible to the
	// loop, so a drain that observes the barrier has everything.
	for _, req := range batch {
		if req.barrier != nil {
			close(req.barrier)
		}
	}
}

func (s *shard) pushReleases(dones []persistDone) {
	if len(dones) == 0 {
		return
	}
	s.relMu.Lock()
	s.rel = append(s.rel, dones...)
	s.relMu.Unlock()
	select {
	case s.relSig <- struct{}{}:
	default:
	}
}

// processReleases runs on the loop: for each committed request, settle
// the key's durability bookkeeping, then release its envelopes and
// completions — unless the key is broken (its disk state is behind its
// promised state), in which case both are withheld: peers and clients
// see a lossy link, never an ack the disk cannot back.
func (s *shard) processReleases() {
	s.relMu.Lock()
	dones := s.rel
	s.rel = nil
	s.relMu.Unlock()
	for _, d := range dones {
		key := d.req.key
		if s.queued[key]--; s.queued[key] == 0 {
			delete(s.queued, key)
		}
		if d.req.rec != nil {
			if d.ok {
				s.savedVersion[key] = d.req.version
				if s.inflight[key] == d.req.version {
					delete(s.inflight, key)
				}
				delete(s.persistBroken, key)
			} else {
				s.persistErrs++
				delete(s.inflight, key)
				s.persistBroken[key] = struct{}{}
			}
		}
		if _, broken := s.persistBroken[key]; broken || (d.req.rec != nil && !d.ok) {
			continue
		}
		s.release(d.req)
	}
}

// release sends a request's envelopes and runs its completions.
func (s *shard) release(req persistReq) {
	if !s.crashed {
		for _, e := range req.envs {
			s.n.conn.Send(e.to, e.frame)
		}
	}
	for _, fn := range req.notify {
		fn()
	}
}

// drainPersister quiesces the pipeline: a barrier travels the queue
// behind every pending request, and the loop processes releases until
// the barrier reports all of them committed. Called on the loop
// (restartPrep); no new requests can be enqueued meanwhile because the
// loop is here.
func (s *shard) drainPersister() error {
	b := make(chan struct{})
	select {
	case s.persistq <- persistReq{key: "", barrier: b}:
	case <-s.n.quit:
		return ErrStopped
	}
	for {
		s.processReleases()
		select {
		case <-b:
			s.processReleases()
			return nil
		case <-s.relSig:
		case <-s.n.quit:
			return ErrStopped
		}
	}
}
