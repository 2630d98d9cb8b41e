package shootout

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"crdtsmr/internal/checker"
	"crdtsmr/internal/core"
	"crdtsmr/internal/transport"
)

// TestSimTimersInterleaveWithMessages pins the event-loop contract: timers
// and deliveries pop in deadline order, with timers winning ties, and the
// virtual clock is monotone through both.
func TestSimTimersInterleaveWithMessages(t *testing.T) {
	sim := NewSim(1, Net{MinDelay: time.Millisecond, MaxDelay: time.Millisecond})
	var log []string
	conn := sim.Fab.Join("a", func(from transport.NodeID, p []byte) {})
	sim.Fab.Join("b", func(from transport.NodeID, p []byte) {
		log = append(log, fmt.Sprintf("msg@%v", sim.Now()))
	})
	sim.After(500*time.Microsecond, func() { log = append(log, fmt.Sprintf("t1@%v", sim.Now())) })
	sim.After(time.Millisecond, func() { log = append(log, fmt.Sprintf("t2@%v", sim.Now())) })
	conn.Send("b", []byte{1}) // delivers at 1ms, after t1, tied with t2 (timer wins)
	sim.RunUntil(10 * time.Millisecond)
	want := []string{"t1@500µs", "t2@1ms", "msg@1ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if sim.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v after RunUntil(10ms)", sim.Now())
	}
}

// TestSimDeterministic pins that two sims with the same seed produce the
// same timer/message interleaving and clock readings.
func TestSimDeterministic(t *testing.T) {
	run := func() []string {
		sim := NewSim(99, LAN())
		var log []string
		var conns [3]*transport.FabricConn
		for i := 0; i < 3; i++ {
			i := i
			conns[i] = sim.Fab.Join(transport.NodeID(fmt.Sprintf("n%d", i+1)), func(from transport.NodeID, p []byte) {
				log = append(log, fmt.Sprintf("%d<-%s@%v", i, from, sim.Now()))
			})
		}
		for i := 0; i < 10; i++ {
			conns[i%3].Send(transport.NodeID(fmt.Sprintf("n%d", (i+1)%3+1)), []byte{byte(i)})
		}
		sim.After(2*time.Millisecond, func() { log = append(log, fmt.Sprintf("t@%v", sim.Now())) })
		sim.RunUntil(20 * time.Millisecond)
		return log
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
}

// TestAllBackendsServeWorkload smoke-runs every raced configuration on a
// small mixed workload over a clean network and checks basic sanity.
func TestAllBackendsServeWorkload(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			st, err := MixedWorkload(spec, 3, LAN(), 7, Workload{Clients: 6, Keys: 4, Ops: 60, ReadFrac: 0.8, Sets: true})
			if err != nil {
				t.Fatal(err)
			}
			if st.Failed != 0 {
				t.Fatalf("%d failed ops on a clean network: %+v", st.Failed, st)
			}
			if st.Completed < 60 {
				t.Fatalf("completed %d < 60", st.Completed)
			}
			if st.Throughput <= 0 || st.ReadP50 <= 0 || st.UpdateP50 <= 0 {
				t.Fatalf("degenerate stats: %+v", st)
			}
		})
	}
}

// TestMixedWorkloadDeterministic: the whole figure pipeline is a pure
// function of the seed, for every backend.
func TestMixedWorkloadDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			a, err := MixedWorkload(spec, 3, LAN(), 21, Workload{Clients: 6, Keys: 4, Ops: 40, ReadFrac: 0.8, Sets: true})
			if err != nil {
				t.Fatal(err)
			}
			b, err := MixedWorkload(spec, 3, LAN(), 21, Workload{Clients: 6, Keys: 4, Ops: 40, ReadFrac: 0.8, Sets: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestReadAfterWriteLatencyOrdering pins the paper's qualitative claim in
// virtual time: the log-free protocol's hot-key read-after-write session,
// seen from the median replica, beats both log-based RSMs (whose follower
// replicas pay leader forwarding). This is the same property the CI
// regression guard enforces through the bench figure.
func TestReadAfterWriteLatencyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	get := func(name string) SessionStats {
		sp, err := SpecNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ReadAfterWrite(sp, 3, LAN(), 5, 20, 4)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	crdt := get("crdtsmr")
	paxos := get("paxos")
	raft := get("raft")
	t.Logf("session p50 medians: crdtsmr=%v paxos=%v raft=%v", crdt.Median, paxos.Median, raft.Median)
	t.Logf("per-replica: crdtsmr=%v paxos=%v raft=%v", crdt.PerReplica, paxos.PerReplica, raft.PerReplica)
	if crdt.Median >= paxos.Median {
		t.Errorf("crdtsmr median %v not below paxos %v", crdt.Median, paxos.Median)
	}
	if crdt.Median >= raft.Median {
		t.Errorf("crdtsmr median %v not below raft %v", crdt.Median, raft.Median)
	}
}

// TestConformAllProtocols drives every protocol through seeded loss and
// duplication on one counter and asserts the resulting history is
// linearizable, plus quiescent convergence of final reads.
func TestConformAllProtocols(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, seed := range seeds {
				net := LAN()
				net.Loss, net.Dup = 0.1, 0.1
				res, err := Conform(spec, ConformConfig{
					Seed:     seed,
					Replicas: 3,
					Ops:      80,
					Net:      net,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := checker.CheckCounterLinearizable(res.Ops); err != nil {
					t.Fatalf("seed %d: history not linearizable: %v", seed, err)
				}
				// Final reads are sequential, so the checker's condition (B)
				// already forces them non-decreasing; also pin bounds.
				last := res.FinalReads[len(res.FinalReads)-1]
				if last < int64(res.Incs) || last > int64(res.Incs+res.Abandoned) {
					t.Fatalf("seed %d: final read %d outside [%d, %d]",
						seed, last, res.Incs, res.Incs+res.Abandoned)
				}
				if res.Reads == 0 || res.Incs == 0 {
					t.Fatalf("seed %d: degenerate run %+v", seed, res)
				}
				t.Logf("seed %d: incs=%d abandoned=%d reads=%d failedReads=%d final=%v",
					seed, res.Incs, res.Abandoned, res.Reads, res.FailedRds, res.FinalReads)
			}
		})
	}
}

// TestConformWithPartitions adds minority-partition episodes on top of
// loss for the two protocols with leader failover (the interesting case)
// and the paper's protocol.
func TestConformWithPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"crdtsmr", "paxos", "raft"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := SpecNamed(name)
			if err != nil {
				t.Fatal(err)
			}
			net := LAN()
			net.Loss = 0.05
			res, err := Conform(spec, ConformConfig{
				Seed:       11,
				Replicas:   3,
				Ops:        100,
				Net:        net,
				Partitions: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := checker.CheckCounterLinearizable(res.Ops); err != nil {
				t.Fatalf("history not linearizable: %v", err)
			}
			t.Logf("incs=%d abandoned=%d reads=%d failedReads=%d final=%v",
				res.Incs, res.Abandoned, res.Reads, res.FailedRds, res.FinalReads)
		})
	}
}

// TestLeaderFailover kills the leader of each log-based baseline: once a
// survivor leads, a survivor commits an increment and reads both.
func TestLeaderFailover(t *testing.T) {
	for _, name := range []string{"paxos", "raft"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := SpecNamed(name)
			if err != nil {
				t.Fatal(err)
			}
			sim := NewSim(1, LAN())
			backend, err := spec.New(sim, 3)
			if err != nil {
				t.Fatal(err)
			}
			b := backend.(*logBackend)
			do := func(replica int, read bool) int64 {
				t.Helper()
				settled := false
				var val int64
				var opErr error
				if read {
					b.Read(replica, "c0", func(v int64, err error) { settled, val, opErr = true, v, err })
				} else {
					b.Inc(replica, "c0", func(err error) { settled, opErr = true, err })
				}
				if !sim.RunUntilDone(virtualCap, func() bool { return settled }) {
					t.Fatal("op stalled")
				}
				if opErr != nil {
					t.Fatal(opErr)
				}
				return val
			}
			sim.RunUntil(settleTime)
			do(0, false)
			leader := -1
			for i, node := range b.nodes {
				if node.rep.IsLeader() {
					leader = i
				}
			}
			if leader < 0 {
				t.Fatal("no leader after the first commit")
			}
			b.Crash(leader)
			if !sim.RunUntilDone(virtualCap, func() bool {
				for i, node := range b.nodes {
					if i != leader && node.rep.IsLeader() {
						return true
					}
				}
				return false
			}) {
				t.Fatal("no survivor took over")
			}
			survivor := (leader + 1) % 3
			do(survivor, false)
			if v := do(survivor, true); v != 2 {
				t.Fatalf("read %d after fail-over, want 2", v)
			}
		})
	}
}

// TestBatchedReadsShareOneQuery pins the crdtsmr backend's §3.6 batching,
// as TestBatchQueriesShareOneProtocolRun does for cluster.Node: reads
// queued at one replica within one window share one protocol query, so
// sixteen of them leave the same schedule as one.
func TestBatchedReadsShareOneQuery(t *testing.T) {
	type outcome struct {
		queries uint64
		at      time.Duration
		sent    uint64
	}
	run := func(reads int) outcome {
		sim := NewSim(3, LAN())
		backend, err := CRDTSpec(core.DefaultOptions(), 5*time.Millisecond).New(sim, 3)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(settleTime)
		done := 0
		for i := 0; i < reads; i++ {
			backend.Read(0, "c0", func(_ int64, err error) {
				if err != nil {
					t.Error(err)
				}
				done++
			})
		}
		if !sim.RunUntilDone(virtualCap, func() bool { return done == reads }) {
			t.Fatalf("%d/%d reads completed", done, reads)
		}
		return outcome{backend.(*crdtBackend).Counters().Queries, sim.Now(), sim.Fab.Stats().Sent}
	}
	one, many := run(1), run(16)
	if one.queries != 1 || many != one {
		t.Fatalf("16 batched reads: %+v; one read: %+v; want one query and the same schedule", many, one)
	}
}

// TestCrashMovesClients crashes a replica of the paper's protocol mid-run:
// each client bound to it fails one op and moves on, and every later span
// of the timeline still completes ops.
func TestCrashMovesClients(t *testing.T) {
	const clients, ops = 9, 900
	st, err := MixedWorkload(CRDTSpec(core.DefaultOptions(), 0), 3, LAN(), 4, Workload{
		Clients: clients, Keys: 1, Ops: ops, ReadFrac: 0.9, CrashAfter: ops / 2, Intervals: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != clients/3 || st.Completed+st.Failed != ops {
		t.Fatalf("completed %d, failed %d: want %d failed of %d", st.Completed, st.Failed, clients/3, ops)
	}
	crashed := -1
	for i, iv := range st.Timeline {
		if iv.Crash {
			crashed = i
		}
		if crashed >= 0 && iv.Ops == 0 {
			t.Fatalf("span %d completed no ops after the crash: %+v", i, st.Timeline)
		}
	}
	if crashed < 0 {
		t.Fatalf("no span holds the crash: %+v", st.Timeline)
	}
}
