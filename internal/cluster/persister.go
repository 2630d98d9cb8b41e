package cluster

import (
	"crdtsmr/internal/core"
	"crdtsmr/internal/persist"
	"crdtsmr/internal/wire"
)

// The group-commit persistence pipeline. The shard's loop never writes a
// snapshot itself: after each step it packages the touched keys' snapshot
// records (on a durable node), outbound envelopes, and deferred client
// completions into persistReqs (flushOutbox). A request with something to
// wait for goes to the driver's group commit for this shard, which
// batches every request that arrives while the disk is busy and commits a
// whole batch with persist.Store.SaveBatch (commitBatch): one frame
// appended to each key's file, the files flushed together. The loop then
// releases each committed request's envelopes and completions
// (processDones).
//
// The persist-before-ack contract survives intact, per key: a request's
// envelopes and completions are released only after every snapshot write
// ordered before it (in the shard's FIFO pipeline) has landed, and a
// failed write marks its key broken — that key's releases are withheld,
// degrading it to a lossy link, until a later save succeeds — while every
// other key's releases proceed. A request with no record for a key with
// no request in the pipeline (keyState.queued) has nothing to wait for,
// so the loop releases it at once instead of queueing it behind other
// keys' batches: an update's completion at its proposer is the common
// case.
// On a volatile node every request is such a request, and the driver
// runs no group commit.

// persistReq is one event's durability work for one key, in shard-FIFO
// order: an optional snapshot record to write, plus the envelopes and
// completions that must not be released before it (and everything queued
// ahead of it for this key) is durable.
type persistReq struct {
	ks      *keyState
	rec     *persist.Record // nil when the key's durable state did not advance
	version uint64          // StateVersion rec covers
	envs    []core.Envelope // payloads packed in object envelopes
	notify  []func()
}

// persistDone is one committed (or failed) request on the release queue.
type persistDone struct {
	req persistReq
	ok  bool // the batch containing req's write committed (always true when req.rec == nil)
}

// flushOutbox runs after every loop iteration and visits each dirty key
// once. It collects the key's outbox, keeps the key on or off the list
// the retransmit tick visits (s.busy) by whether it has requests in
// flight, takes a snapshot record when the node is durable and the key's
// durable state advanced, and packs these with the key's deferred
// completions into one request. A request with nothing to wait for is
// released here; the rest go to the driver's group commit and are
// released by processDones once the disk confirms. Only dirty keys are
// visited, so per-event cost is independent of the size of the keyspace.
func (s *shard) flushOutbox() {
	// A completion released here can start a command on this loop (an
	// or-set remove's observation starts its update), which marks its key
	// dirty again: the walk runs to the list's current end.
	for i := 0; i < len(s.dirty); i++ {
		ks := s.dirty[i]
		s.dirty[i] = nil
		ks.dirty = false
		// Completions ride their key's request, even an otherwise empty
		// one, so a completion for a key with an earlier write still in
		// flight waits its turn in the FIFO.
		req := persistReq{ks: ks, notify: ks.notify}
		ks.notify = nil
		out := ks.rep.TakeOutbox()
		if !s.crashed {
			if v := ks.rep.StateVersion(); s.n.store != nil && v != ks.saved && v != ks.inflight {
				rec, err := persist.FromSnapshot(ks.key, ks.rep.Snapshot())
				if err != nil {
					// Marshal failure is a persist failure: the key degrades
					// to a lossy link until a later snapshot encodes.
					s.persistErrs++
					ks.broken = true
				} else {
					req.rec = &rec
					req.version = v
					ks.inflight = v
				}
			}
			for i := range out {
				out[i].Payload = wire.PackEnvelope(ks.key, out[i].Payload)
			}
			req.envs = out
		}
		s.setBusy(ks, ks.rep.InFlight() > 0)
		if req.rec == nil && len(req.envs) == 0 && len(req.notify) == 0 {
			continue
		}
		if req.rec == nil && ks.queued == 0 && !ks.broken {
			// Nothing to write and nothing in the key's pipeline: every
			// write ordered before it has landed, so it waits for no disk.
			// This always holds on a volatile node, which must never reach
			// the driver's group commit: it has none.
			s.release(req)
			continue
		}
		ks.queued++
		s.persisting++
		s.n.drv.persist(s, req)
	}
	s.dirty = s.dirty[:0]
}

// commitBatch writes the batch's snapshot records in one SaveBatch (which
// keeps each key's last record: a later record supersedes an earlier
// one) and returns every request with the batch's verdict, for
// processDones. A failed
// SaveBatch may have landed some keys' records but vouches for none, so
// a failure fails every request carrying a record in this batch (the
// torn-batch keys); record-less requests for other keys ride through
// unharmed, and keyState.broken withholds releases for any key whose
// disk state is behind.
func (s *shard) commitBatch(batch []persistReq) []persistDone {
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
	dones := make([]persistDone, len(batch))
	for i, req := range batch {
		dones[i] = persistDone{req: req, ok: ok}
	}
	return dones
}

// processDones runs on the loop: for each committed request, settle
// the key's durability bookkeeping, then release its envelopes and
// completions — unless the key is broken (its disk state is behind its
// promised state), in which case both are withheld: peers and clients
// see a lossy link, never an ack the disk cannot back.
func (s *shard) processDones(dones []persistDone) {
	for _, d := range dones {
		ks := d.req.ks
		ks.queued--
		s.persisting--
		if d.req.rec != nil {
			if d.ok {
				ks.saved = d.req.version
				if ks.inflight == d.req.version {
					ks.inflight = 0
				}
			} else {
				s.persistErrs++
				ks.inflight = 0
			}
			ks.broken = !d.ok
		}
		if !ks.broken {
			s.release(d.req)
		}
	}
}

// release sends a request's envelopes and runs its completions.
func (s *shard) release(req persistReq) {
	if !s.crashed {
		for _, e := range req.envs {
			s.n.conn.Send(e.To, e.Payload)
		}
	}
	for _, fn := range req.notify {
		fn()
	}
}
