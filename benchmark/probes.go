package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/persist"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// The peeled entry points: each layer's public functions, called
// directly on the workload's own data with nothing above them in the
// path. A layer's self time is its entry's time minus the entries below
// it (benchmark/README.md, "Reading the per-layer figures").

// timeOp calls fn in batches for about budget and returns the median
// per-call time in nanoseconds.
func timeOp(budget time.Duration, fn func()) float64 {
	start := time.Now()
	fn()
	one := time.Since(start)
	batch := 1
	if one < 200*time.Microsecond {
		batch = int(200*time.Microsecond/(one+1)) + 1
		if batch > 10000 {
			batch = 10000
		}
	}
	var samples []float64
	for deadline := time.Now().Add(budget); len(samples) < 5 || time.Now().Before(deadline); {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t))/float64(batch))
	}
	return median(samples)
}

// allocsPer is the mean number of heap allocations one call of fn makes.
// Nothing else runs while a probe does, so the process-wide count is fn's.
func allocsPer(fn func()) float64 {
	const runs = 200
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// sink keeps the compiler from discarding a probe's results.
var sink any

// representativeStates returns the state S a key of w holds in steady
// state and S plus one more update.
func representativeStates(w workload, template crdt.State) (s, s1 crdt.State) {
	if w.keyPrefix == crdt.TypeORSet {
		set := template.(*crdt.ORSet)
		return set, set.Add("one-more", "n1", 1)
	}
	c := crdt.NewGCounter().Inc("n1", 1000).Inc("n2", 1000).Inc("n3", 1000)
	return c, c.Inc("n1", 1)
}

// probeCRDT times the payload type's lattice and codec functions.
func probeCRDT(m metricSet, w workload, template crdt.State, budget time.Duration) error {
	s, s1 := representativeStates(w, template)
	raw, err := crdt.Marshal(s1)
	if err != nil {
		return err
	}
	ds, ok := s1.(crdt.DeltaState)
	if !ok {
		return fmt.Errorf("benchmark: %s has no delta support", s1.TypeName())
	}
	delta, err := ds.Delta(s)
	if err != nil {
		return err
	}
	rawDelta, err := crdt.Marshal(delta)
	if err != nil {
		return err
	}
	merge := func() { sink, _ = s.Merge(s1) }
	m.set("crdt.merge_us", timeOp(budget, merge)/1e3)
	m.set("crdt.merge_allocs", allocsPer(merge))
	m.set("crdt.marshal_us", timeOp(budget, func() { sink, _ = crdt.Marshal(s1) })/1e3)
	m.set("crdt.unmarshal_us", timeOp(budget, func() { sink, _ = crdt.Unmarshal(raw) })/1e3)
	m.set("crdt.digest_us", timeOp(budget, func() { sink, _ = crdt.DigestOf(s1) })/1e3)
	m.set("crdt.delta_us", timeOp(budget, func() { sink, _ = ds.Delta(s) })/1e3)
	m.set("crdt.state_bytes", float64(len(raw)))
	m.set("crdt.delta_bytes", float64(len(rawDelta)))
	return nil
}

// probeWire times the client-frame and replica-envelope codecs on the
// workload's own frames; request and response figures are weighted by
// the read share.
func probeWire(m metricSet, w workload, template crdt.State, envelopeBytes int, budget time.Duration) error {
	_, s1 := representativeStates(w, template)
	raw, err := crdt.Marshal(s1)
	if err != nil {
		return err
	}
	key := w.keyName(0)
	queryReq := &wire.Request{Op: wire.OpQuery, ID: 123456, Key: key}
	updateReq := &wire.Request{Op: wire.OpUpdate, ID: 123456, Key: key, CRDTType: crdt.TypeGCounter, Mutation: wire.MutInc, Args: [][]byte{binary.AppendUvarint(nil, 1)}}
	if w.keyPrefix == crdt.TypeORSet {
		updateReq.CRDTType, updateReq.Mutation, updateReq.Args = crdt.TypeORSet, wire.MutAdd, [][]byte{[]byte(elementName(123456))}
	}
	queryResp := &wire.Response{Op: wire.OpQuery | wire.RespBit, ID: 123456, Status: wire.StatusOK, RoundTrips: 1, Attempts: 1, Path: 1, State: raw}
	updateResp := &wire.Response{Op: wire.OpUpdate | wire.RespBit, ID: 123456, Status: wire.StatusOK, RoundTrips: 1}

	reads := float64(w.readShare) / 1000
	mix := func(read, update float64) float64 { return reads*read + (1-reads)*update }
	reqCycle := func(r *wire.Request) func() {
		return func() { sink, _ = wire.DecodeRequest(r.Encode()) }
	}
	respCycle := func(r *wire.Response) func() {
		return func() { sink, _ = wire.DecodeResponse(r.Encode()) }
	}
	m.set("wire.request_codec_ns", mix(timeOp(budget, reqCycle(queryReq)), timeOp(budget, reqCycle(updateReq))))
	m.set("wire.response_codec_ns", mix(timeOp(budget, respCycle(queryResp)), timeOp(budget, respCycle(updateResp))))
	m.set("wire.request_bytes", mix(float64(len(queryReq.Encode())), float64(len(updateReq.Encode()))))
	m.set("wire.response_bytes", mix(float64(len(queryResp.Encode())), float64(len(updateResp.Encode()))))
	m.set("wire.codec_allocs", mix(
		allocsPer(reqCycle(queryReq))+allocsPer(respCycle(queryResp)),
		allocsPer(reqCycle(updateReq))+allocsPer(respCycle(updateResp))))

	payload := make([]byte, envelopeBytes)
	m.set("wire.envelope_codec_ns", timeOp(budget, func() {
		_, sink, _ = wire.UnpackEnvelope(wire.PackEnvelope(key, payload))
	}))
	return nil
}

// stepper drives three core.Replicas per key in one goroutine, with no
// transport: submit a command, hand every outbox envelope to its
// addressee in FIFO order until none is left. Order is deterministic,
// so its message and byte counts repeat exactly.
type stepper struct {
	w        workload
	ids      []transport.NodeID
	initial  func(key string) crdt.State
	template crdt.State
	groups   map[int][]*core.Replica
	seq      uint64
}

type stepTotals struct {
	ops, msgs, bytes uint64
	elapsed          time.Duration
}

func newStepper(w workload, template crdt.State) *stepper {
	return &stepper{
		w:        w,
		ids:      []transport.NodeID{"n1", "n2", "n3"},
		initial:  server.TypedKeyInitial(crdt.TypeGCounter),
		template: template,
		groups:   map[int][]*core.Replica{},
	}
}

// group returns key's three replicas, created (and, for or-sets,
// preloaded) on first use.
func (s *stepper) group(key int) ([]*core.Replica, error) {
	if g, ok := s.groups[key]; ok {
		return g, nil
	}
	var g []*core.Replica
	for _, id := range s.ids {
		r, err := core.NewReplica(id, s.ids, s.initial(s.w.keyName(key)), core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		g = append(g, r)
	}
	s.groups[key] = g
	if s.template != nil {
		var t stepTotals
		if err := s.update(g, 0, func(st crdt.State) (crdt.State, error) { return st.Merge(s.template) }, &t); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// pump delivers every pending envelope, and those the deliveries
// produce, until the group is quiet.
func (s *stepper) pump(g []*core.Replica, t *stepTotals) {
	type hop struct {
		from, to int
		payload  []byte
	}
	var queue []hop
	collect := func(from int) {
		for _, e := range g[from].TakeOutbox() {
			to := 0
			for i, id := range s.ids {
				if id == e.To {
					to = i
				}
			}
			queue = append(queue, hop{from: from, to: to, payload: e.Payload})
		}
	}
	for i := range g {
		collect(i)
	}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		t.msgs++
		t.bytes += uint64(len(h.payload))
		g[h.to].Deliver(s.ids[h.from], h.payload)
		collect(h.to)
	}
}

func (s *stepper) update(g []*core.Replica, proposer int, fu crdt.Update, t *stepTotals) error {
	var result error = fmt.Errorf("benchmark: stepped update never completed")
	start := time.Now()
	if _, err := g[proposer].SubmitUpdate(fu, func(_ core.UpdateStats, err error) { result = err }); err != nil {
		return err
	}
	s.pump(g, t)
	t.elapsed += time.Since(start)
	t.ops++
	return result
}

func (s *stepper) query(g []*core.Replica, proposer int, t *stepTotals) error {
	var result error = fmt.Errorf("benchmark: stepped query never completed")
	start := time.Now()
	g[proposer].SubmitQuery(func(_ crdt.State, _ core.QueryStats, err error) { result = err })
	s.pump(g, t)
	t.elapsed += time.Since(start)
	t.ops++
	return result
}

// run steps the first n ops of the seed's stream, proposers rotating
// over the three replicas, and returns the totals per op kind.
func (s *stepper) run(seed uint64, n int) (updates, queries stepTotals, err error) {
	for i := uint64(0); i < uint64(n); i++ {
		o := s.w.opAt(seed, i)
		g, err := s.group(o.key)
		if err != nil {
			return updates, queries, err
		}
		proposer := int(i % 3)
		if o.kind == opRead {
			err = s.query(g, proposer, &queries)
		} else {
			slot := string(s.ids[proposer])
			fu := func(st crdt.State) (crdt.State, error) { return st.(*crdt.GCounter).Inc(slot, 1), nil }
			if s.w.keyPrefix == crdt.TypeORSet {
				s.seq++
				elem, seq := elementName(i), s.seq
				fu = func(st crdt.State) (crdt.State, error) { return st.(*crdt.ORSet).Add(elem, slot, seq), nil }
			}
			err = s.update(g, proposer, fu, &updates)
		}
		if err != nil {
			return updates, queries, fmt.Errorf("step %d: %w", i, err)
		}
	}
	return updates, queries, nil
}

// stepOps is how many ops of the stream the core probe steps: a fixed
// count, so the per-op message and byte counts are exact and repeat.
func stepOps(w workload) int {
	if w.keyPrefix == crdt.TypeORSet {
		return 300
	}
	return 3000
}

// probeCore steps the protocol with no network and reports one step's
// time and exact message and byte counts per command.
func probeCore(m metricSet, w workload, seed uint64, template crdt.State) (*stepper, error) {
	s := newStepper(w, template)
	updates, queries, err := s.run(seed, stepOps(w))
	if err != nil {
		return nil, err
	}
	if updates.ops == 0 || queries.ops == 0 {
		return nil, fmt.Errorf("benchmark: %s stepped %d updates and %d queries; need both", w.name, updates.ops, queries.ops)
	}
	m.set("core.update_step_us", us(updates.elapsed)/float64(updates.ops))
	m.set("core.query_step_us", us(queries.elapsed)/float64(queries.ops))
	m.set("core.msgs_per_update", float64(updates.msgs)/float64(updates.ops))
	m.set("core.msgs_per_query", float64(queries.msgs)/float64(queries.ops))
	m.set("core.bytes_per_update", float64(updates.bytes)/float64(updates.ops))
	m.set("core.bytes_per_query", float64(queries.bytes)/float64(queries.ops))
	return s, nil
}

// probeTCPHop times one loopback transport.TCP hop, Send to handler
// entry, at the workload's median envelope size.
func probeTCPHop(m metricSet, envelopeBytes int, budget time.Duration) error {
	arrived := make(chan struct{}, 1)
	recv, err := transport.NewTCP("b", "127.0.0.1:0", nil, func(transport.NodeID, []byte) { arrived <- struct{}{} })
	if err != nil {
		return err
	}
	defer recv.Close()
	send, err := transport.NewTCP("a", "127.0.0.1:0", map[transport.NodeID]string{"b": recv.Addr()}, func(transport.NodeID, []byte) {})
	if err != nil {
		return err
	}
	defer send.Close()
	payload := make([]byte, envelopeBytes)
	hop := func() error {
		send.Send("b", payload)
		select {
		case <-arrived:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("benchmark: loopback TCP hop never arrived")
		}
	}
	if err := hop(); err != nil { // dials the connection
		return err
	}
	var samples []float64
	for deadline := time.Now().Add(budget); len(samples) < 50 || time.Now().Before(deadline); {
		start := time.Now()
		if err := hop(); err != nil {
			return err
		}
		samples = append(samples, us(time.Since(start)))
	}
	m.set("transport.tcp_hop_us", median(samples))
	return nil
}

// probePersist times snapshot saves, group commits and recovery on
// records taken from the stepped replicas. The store syncs nothing
// (persist.SyncNone): the figures are the code path's, not a device's.
func probePersist(m metricSet, w workload, s *stepper, scratch string, budget time.Duration) error {
	// One record per key of the workload; keys the stepped stream did not
	// reach reuse a record of one it did, under their own name.
	var keys []int
	for key := range s.groups {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	recs := make([]persist.Record, w.totalKeys())
	for i := range recs {
		rec, err := persist.FromSnapshot(w.keyName(i), s.groups[keys[i%len(keys)]][0].Snapshot())
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	batch := func(n int) []persist.Record {
		out := make([]persist.Record, n)
		for i := range out {
			out[i] = recs[i%len(recs)]
			out[i].Key = fmt.Sprintf("%s#%d", out[i].Key, i) // distinct files within one batch
		}
		return out
	}

	dir, err := scratchDir(scratch, w.name+"-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := persist.Open(dir, persist.Options{Sync: persist.SyncNone})
	if err != nil {
		return err
	}
	var saveErr error
	keep := func(err error) {
		if err != nil && saveErr == nil {
			saveErr = err
		}
	}
	m.set("persist.save_us", timeOp(budget, func() { keep(store.Save(recs[0])) })/1e3)
	b8, b64 := batch(8), batch(64)
	m.set("persist.batch8_us_per_rec", timeOp(budget, func() { keep(store.SaveBatch(b8)) })/1e3/8)
	m.set("persist.batch64_us_per_rec", timeOp(budget, func() { keep(store.SaveBatch(b64)) })/1e3/64)
	if saveErr != nil {
		return saveErr
	}
	m.set("persist.record_bytes", float64(len(persist.EncodeRecord(recs[0]))))

	// Recovery: a directory holding exactly the workload's key set.
	recoverDir, err := scratchDir(scratch, w.name+"-recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(recoverDir)
	recoverStore, err := persist.Open(recoverDir, persist.Options{Sync: persist.SyncNone})
	if err != nil {
		return err
	}
	for i := 0; i < len(recs); i += 64 {
		if err := recoverStore.SaveBatch(recs[i:min(i+64, len(recs))]); err != nil {
			return err
		}
	}
	var loads []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		snaps, _, err := recoverStore.LoadAll(persist.RecoverStrict)
		if err != nil {
			return err
		}
		if len(snaps) != len(recs) {
			return fmt.Errorf("benchmark: recovered %d of %d snapshots", len(snaps), len(recs))
		}
		loads = append(loads, ms(time.Since(start)))
	}
	m.set("persist.load_all_ms", median(loads))
	return nil
}
