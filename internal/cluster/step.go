package cluster

import (
	"context"
	"errors"
	"time"

	"crdtsmr/internal/transport"
)

// Clock is the virtual clock of a stepped node (NewSteppedNode), as a
// transport.Fabric keeps one. Its methods, and the node's, run on the
// simulation's one goroutine.
type Clock interface {
	Now() time.Duration
	// Schedule runs fn once, as a simulation event, d after Now; stop
	// cancels it.
	Schedule(d time.Duration, fn func()) (stop func())
	// RunUntil runs events until done reports true, and reports whether it
	// did. The node's blocking methods (UpdateKey, Reconfigure, ...) wait
	// with it, so only SubmitUpdate and SubmitQuery may run in an event.
	// Their contexts are polled between events, so a caller passes one with
	// no wall-clock deadline: the virtual clock bounds the wait instead.
	RunUntil(done func() bool) bool
}

// NewSteppedNode creates a node whose shards run as steps on clock, on the
// caller's goroutine: a group commit waits cfg.PersistWriteDelay of
// virtual time, and the node reads no wall clock. cfg.Shards must be set
// (its default follows the host), and join must deliver on the same
// goroutine, as a transport.Fabric does. New builds these on a Fabric.
func NewSteppedNode(id transport.NodeID, cfg Config, clock Clock, join func(transport.NodeID, transport.Handler) transport.Conn) (*Node, error) {
	if cfg.Shards <= 0 {
		return nil, errors.New("cluster: a stepped node needs an explicit Shards")
	}
	d := &stepDriver{clock: clock, delay: cfg.PersistWriteDelay, lanes: make([]stepLane, cfg.Shards)}
	cfg.PersistWriteDelay = 0
	return newNode(id, cfg, func(*Node) driver { return d }, join)
}

// stepDriver runs a node's shards on a Clock, one step at a time.
type stepDriver struct {
	clock   Clock
	delay   time.Duration // PersistWriteDelay
	lanes   []stepLane    // by shard index
	queued  []func()      // steps requested while one runs
	running bool
	stopped bool
}

// stepLane is one shard's flush timer and group commit; a generation
// retires a timer that a rephase replaced or a write a drain committed.
type stepLane struct {
	flushGen, writeGen uint64
	batch              []persistReq  // the write in progress; nil when idle
	begun              time.Duration // when it began
	queue              []persistReq  // requests for the next write
}

func (d *stepDriver) start(n *Node) {
	for _, s := range n.shards {
		d.every(s, new(uint64), s.n.cfg.RetransmitInterval, s.tick)
		d.rephase(s)
	}
}

func (d *stepDriver) now() time.Time { return time.Unix(0, 0).Add(d.clock.Now()) }

// step runs fn and then s.flushOutbox as one iteration of s's loop. A
// step requested while another runs (a completion submitting the next
// command) queues behind it, as an event would on a shard's channel.
func (d *stepDriver) step(s *shard, fn func()) {
	d.queued = append(d.queued, func() { fn(); s.flushOutbox() })
	if d.running {
		return
	}
	d.running = true
	for i := 0; i < len(d.queued) && !d.stopped; i++ {
		d.queued[i]()
	}
	clear(d.queued)
	d.queued, d.running = d.queued[:0], false
}

func (d *stepDriver) submit(_ context.Context, s *shard, ev nodeEvent) error {
	if d.stopped {
		return ErrStopped
	}
	d.step(s, func() { s.handle(ev) })
	return nil
}

func (d *stepDriver) offer(s *shard, ev nodeEvent) bool {
	_ = d.submit(context.Background(), s, ev)
	return true
}

func (d *stepDriver) wait(ctx context.Context, done <-chan struct{}) error {
	var err error
	ready := func() bool {
		select {
		case <-done:
			return true
		default:
		}
		if err = ctx.Err(); d.stopped {
			err = ErrStopped
		}
		return err != nil
	}
	if !d.clock.RunUntil(ready) {
		return context.DeadlineExceeded // the clock ran out first
	}
	return err
}

func (d *stepDriver) rephase(s *shard) {
	if s.n.cfg.BatchInterval > 0 {
		l := &d.lanes[s.idx]
		l.flushGen++
		d.every(s, &l.flushGen, s.rephased(), s.flush)
	}
}

// every runs fn as a step of s after the given delay, and again after
// each delay fn returns, until the node stops or *gen moves on.
func (d *stepDriver) every(s *shard, gen *uint64, after time.Duration, fn func() time.Duration) {
	want := *gen
	d.clock.Schedule(after, func() {
		if *gen == want && !d.stopped {
			d.step(s, func() { d.every(s, gen, fn(), fn) })
		}
	})
}

// persist batches as the persister goroutine does: a write begins when a
// request reaches an idle lane and takes every request queued at that
// instant; later ones wait for the next write, begun as this one lands.
func (d *stepDriver) persist(s *shard, req persistReq) {
	l := &d.lanes[s.idx]
	switch {
	case l.batch == nil:
		l.batch, l.begun = []persistReq{req}, d.clock.Now()
		gen := l.writeGen
		d.clock.Schedule(d.delay, func() {
			if gen == l.writeGen {
				batch, queue := l.batch, l.queue
				l.batch, l.queue = nil, nil
				for _, req := range queue {
					d.persist(s, req)
				}
				d.step(s, func() { s.processDones(s.commitBatch(batch)) })
			}
		})
	case l.begun == d.clock.Now():
		l.batch = append(l.batch, req)
	default:
		l.queue = append(l.queue, req)
	}
}

// drain commits everything queued for s at once.
func (d *stepDriver) drain(s *shard) error {
	l := &d.lanes[s.idx]
	batch := append(l.batch, l.queue...)
	l.batch, l.queue = nil, nil
	l.writeGen++
	s.processDones(s.commitBatch(batch))
	return nil
}

func (d *stepDriver) stop() bool {
	first := !d.stopped
	d.stopped = true
	return first
}
