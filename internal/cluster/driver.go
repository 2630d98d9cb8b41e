package cluster

import (
	"context"
	"sync"
	"time"
)

// A driver runs a node's shards: it carries events and group-commit
// requests to them, owns every clock they run on, and makes callers wait.
// A shard's steps (handle, tick, flush or processDones, each followed by
// flushOutbox) are the same under both: loopDriver runs every deployment
// on goroutines and the wall clock, stepDriver (NewSteppedNode) runs each
// step inline on a virtual Clock.
type driver interface {
	start(n *Node)
	now() time.Time                                           // the instant mutations stamp
	submit(ctx context.Context, s *shard, ev nodeEvent) error // hand ev to s, waiting for room
	offer(s *shard, ev nodeEvent) bool                        // hand ev to s unless its queue is full
	wait(ctx context.Context, done <-chan struct{}) error     // block until done is closed
	persist(s *shard, req persistReq)                         // queue req for s's next group commit
	drain(s *shard) error                                     // commit and release all s queued (on s's loop)
	rephase(s *shard)                                         // restart s's batch-flush cadence
	stop() bool                                               // stop every shard; false if already stopped
}

// loopDriver runs each shard on its own goroutine (loop) and, on a
// durable node, each shard's group commit on another (persister).
type loopDriver struct {
	lanes []*lane // by shard index
	quit  chan struct{}
	once  sync.Once // closes quit
	wg    sync.WaitGroup
}

// lane is the loop driver's plumbing into one shard.
type lane struct {
	events   chan nodeEvent
	rephase  chan struct{}   // restart the flush cadence; nil without batching
	persistq chan persistReq // nil on a volatile node
	// Committed requests return on an unbounded queue: the persister must
	// never block on the loop, which blocks on a full persistq (deadlock).
	relMu  sync.Mutex
	rel    []persistDone
	relSig chan struct{}
}

func newLoopDriver(n *Node) *loopDriver {
	d := &loopDriver{quit: make(chan struct{})}
	for range n.shards {
		l := &lane{events: make(chan nodeEvent, 8192)}
		if n.store != nil {
			l.persistq = make(chan persistReq, 1024)
			l.relSig = make(chan struct{}, 1)
		}
		if n.cfg.BatchInterval > 0 {
			l.rephase = make(chan struct{}, 1)
		}
		d.lanes = append(d.lanes, l)
	}
	return d
}

func (d *loopDriver) start(n *Node) {
	for _, s := range n.shards {
		l := d.lanes[s.idx]
		d.wg.Add(1)
		go d.loop(s, l)
		if l.persistq != nil {
			d.wg.Add(1)
			go d.persister(s, l)
		}
	}
}

func (d *loopDriver) now() time.Time { return time.Now() }

func (d *loopDriver) submit(ctx context.Context, s *shard, ev nodeEvent) error {
	select {
	case d.lanes[s.idx].events <- ev:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-d.quit:
		return ErrStopped
	}
}

func (d *loopDriver) offer(s *shard, ev nodeEvent) bool {
	select {
	case d.lanes[s.idx].events <- ev:
	case <-d.quit:
	default:
		return false
	}
	return true
}

func (d *loopDriver) wait(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-d.quit:
		return ErrStopped
	}
}

func (d *loopDriver) rephase(s *shard) {
	select {
	case d.lanes[s.idx].rephase <- struct{}{}: // nil without batching: never ready
	default: // a restart already requested absorbs this one
	}
}

func (d *loopDriver) stop() bool {
	first := false
	d.once.Do(func() { close(d.quit); first = true })
	d.wg.Wait()
	return first
}

// loop is a shard's one goroutine, and it owns the shard's two clocks: the
// retransmit ticker (shard.tick) and, when batching, the flush timer
// (shard.flush, restarted at the node's slot by shard.rephased).
func (d *loopDriver) loop(s *shard, l *lane) {
	defer d.wg.Done()
	tick := time.NewTicker(s.n.cfg.RetransmitInterval)
	defer tick.Stop()
	var flush *time.Timer
	var flushC <-chan time.Time // nil (blocks forever) without batching
	if s.n.cfg.BatchInterval > 0 {
		flush = time.NewTimer(s.rephased())
		defer flush.Stop()
		flushC = flush.C
	}
	for {
		select {
		case <-d.quit:
			return
		case ev := <-l.events:
			s.handle(ev)
		case <-l.relSig: // nil (blocks forever) without a persister
			s.processDones(l.released())
		case <-tick.C:
			s.tick()
		case <-flushC:
			flush.Reset(s.flush())
		case <-l.rephase:
			flush.Reset(s.rephased())
		}
		s.flushOutbox()
	}
}

// persist hands one request to the persister, blocking while the queue
// is full, which is safe: the persister never blocks on the loop.
func (d *loopDriver) persist(s *shard, req persistReq) {
	select {
	case d.lanes[s.idx].persistq <- req:
	case <-d.quit:
	}
}

// persister is a shard's persistence goroutine: take everything queued,
// commit it as one batch, hand it to the loop, repeat. The batch size
// self-tunes to disk latency — the slower the device, the more requests
// accumulate per commit, which is the whole point of group commit.
func (d *loopDriver) persister(s *shard, l *lane) {
	defer d.wg.Done()
	for {
		var batch []persistReq
		select {
		case <-d.quit:
			return
		case req := <-l.persistq:
			batch = append(batch, req)
		}
		for len(l.persistq) > 0 { // the persister is the queue's one reader
			batch = append(batch, <-l.persistq)
		}
		dones := s.commitBatch(batch)
		l.relMu.Lock()
		l.rel = append(l.rel, dones...)
		l.relMu.Unlock()
		select {
		case l.relSig <- struct{}{}:
		default:
		}
	}
}

// released takes every committed request queued for the loop.
func (l *lane) released() []persistDone {
	l.relMu.Lock()
	defer l.relMu.Unlock()
	dones := l.rel
	l.rel = nil
	return dones
}

// drain waits, on the loop (restartPrep, so nothing new is queued), until
// every request of the shard is committed and released: once it returns,
// no request refers to a record.
func (d *loopDriver) drain(s *shard) error {
	l := d.lanes[s.idx]
	for s.persisting > 0 {
		select {
		case <-l.relSig:
			s.processDones(l.released())
		case <-d.quit:
			return ErrStopped
		}
	}
	return nil
}
