package bench

import (
	"io"
	"testing"
	"time"
)

func protocolsScale(seed int64) Scale {
	return Scale{
		Duration: 800 * time.Millisecond, // virtual scaling knob: 32 sessions, 800 mixed ops
		Replicas: 3,
		Seed:     seed, // zero Net is below the floor: FigureProtocols substitutes the LAN profile
	}
}

// TestFigureProtocolsLatencyGuard is the CI regression floor for the
// paper's headline property: on the hot-key read-after-write session, the
// log-free protocol's median-replica p50 must beat both log-based RSM
// baselines by at least 25%. The measurement is virtual-time (hop delays
// dominate, CPU speed cancels out), so the assertion is latency-bound and
// holds on a single-CPU runner.
func TestFigureProtocolsLatencyGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full shootout figure")
	}
	fig, err := FigureProtocols(io.Discard, protocolsScale(1))
	if err != nil {
		t.Fatal(err)
	}
	if fig.Schema != FigureSchema || fig.Figure != "protocols" {
		t.Fatalf("figure header = %+v", fig)
	}
	AssertProtocolsGuard(t, fig)
}

// AssertProtocolsGuard checks the latency-bound regression floor on a
// protocols figure record. Shared with the CI bench-smoke step, which
// re-checks the record it just generated.
func AssertProtocolsGuard(t *testing.T, fig *FigureJSON) {
	t.Helper()
	sess := fig.SeriesNamed("session p50 median")
	if sess == nil {
		t.Fatalf("missing 'session p50 median' series: %+v", fig.Series)
	}
	get := func(name string) float64 {
		i := ProtocolIndex(fig, name)
		if i < 0 || i >= len(sess.Y) {
			t.Fatalf("protocol %q not in figure (protocols=%v, %d points)", name, fig.Params["protocols"], len(sess.Y))
		}
		return sess.Y[i]
	}
	crdt := get("crdtsmr")
	paxos := get("paxos")
	raft := get("raft")
	if crdt <= 0 || paxos <= 0 || raft <= 0 {
		t.Fatalf("degenerate session p50s: crdt=%v paxos=%v raft=%v", crdt, paxos, raft)
	}
	const floor = 1.25
	if paxos < crdt*floor {
		t.Errorf("crdtsmr advantage over paxos below floor: %0.f µs vs %0.f µs (want ≥ %.2fx)",
			crdt, paxos, floor)
	}
	if raft < crdt*floor {
		t.Errorf("crdtsmr advantage over raft below floor: %0.f µs vs %0.f µs (want ≥ %.2fx)",
			crdt, raft, floor)
	}
}
