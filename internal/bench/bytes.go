package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// The bytes figure measures the axis the state-transfer refactor moves:
// replica-wire payload bytes per operation, as a function of object size,
// for the three -state-transfer modes. Unlike the throughput figures it
// runs a fixed operation count and reads transport.Stats byte counters,
// so the result is wall-clock independent — the right methodology on a
// small box, and the honest one for a bandwidth claim.

// BytesPoint is one (mode, object size) measurement of the bytes sweep.
type BytesPoint struct {
	Mode     core.StateTransfer
	Elements int // OR-set size the cluster is converged on
	StateLen int // marshaled size of that state, for context

	// Replica-wire payload bytes per operation (all messages of the
	// protocol run: PREPARE/ACK for reads, MERGE/MERGED for updates),
	// measured via the mesh's byte counters over Ops operations.
	ReadBytes float64 // linearizable read on the converged state
	AddBytes  float64 // add of a fresh element (state grows)
	NoopBytes float64 // add-if-absent of a present element (state unchanged)

	Ops int
}

// Reduction returns how many times fewer read bytes p uses than base.
func (p BytesPoint) Reduction(base BytesPoint) float64 {
	if p.ReadBytes == 0 {
		return 0
	}
	return base.ReadBytes / p.ReadBytes
}

// RunBytesSweep measures replica-wire bytes per operation on a converged
// or-set cluster for every state-transfer mode at every object size.
func RunBytesSweep(replicas int, sizes []int, ops int) ([]BytesPoint, error) {
	modes := []core.StateTransfer{core.TransferFull, core.TransferDigest, core.TransferDelta}
	points := make([]BytesPoint, 0, len(sizes)*len(modes))
	for _, size := range sizes {
		for _, mode := range modes {
			p, err := runBytesPoint(replicas, size, ops, mode)
			if err != nil {
				return nil, fmt.Errorf("bench: bytes point %d/%v: %w", size, mode, err)
			}
			points = append(points, p)
		}
	}
	return points, nil
}

func runBytesPoint(replicas, size, ops int, mode core.StateTransfer) (BytesPoint, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Zero-delay mesh: delay shapes latency, not bytes.
	mesh := transport.NewMesh(transport.WithSeed(1))
	defer mesh.Close()
	ids := members(replicas)
	opts := core.DefaultOptions()
	opts.Transfer = mode
	clust, err := cluster.New(mesh, cluster.Config{
		Members:            ids,
		Initial:            crdt.NewORSet(),
		Options:            opts,
		RetransmitInterval: time.Second,
	})
	if err != nil {
		return BytesPoint{}, err
	}
	defer clust.Close()

	// Converge the cluster on a size-element set: one populating update,
	// then a no-op sync update per node so every replica both holds the
	// full state and has acknowledged a MERGE (establishing the digest
	// views the cheap frames need).
	full := crdt.NewORSet()
	for i := 0; i < size; i++ {
		full = full.Add(fmt.Sprintf("elem-%06d", i), "seed", uint64(i))
	}
	raw, err := crdt.Marshal(full)
	if err != nil {
		return BytesPoint{}, err
	}
	p := BytesPoint{Mode: mode, Elements: size, StateLen: len(raw), Ops: ops}

	n0 := clust.Node(ids[0])
	if _, err := n0.Update(ctx, func(s crdt.State) (crdt.State, error) {
		return s.Merge(full)
	}); err != nil {
		return BytesPoint{}, err
	}
	sync := func() error {
		for _, id := range ids {
			if _, err := clust.Node(id).Update(ctx, func(s crdt.State) (crdt.State, error) {
				return s, nil
			}); err != nil {
				return err
			}
		}
		return waitQuiescent(ctx, mesh)
	}
	if err := sync(); err != nil {
		return BytesPoint{}, err
	}

	measure := func(op func(i int) error) (float64, error) {
		before := mesh.Stats().BytesSent
		for i := 0; i < ops; i++ {
			if err := op(i); err != nil {
				return 0, err
			}
			// An op answers at quorum. Let the third replica's reply land
			// before the next op starts, or a replica that stays one op
			// behind never re-establishes its delta baseline and the figure
			// reports the scheduler's full-state fallbacks, not the mode's.
			if err := waitQuiescent(ctx, mesh); err != nil {
				return 0, err
			}
		}
		return float64(mesh.Stats().BytesSent-before) / float64(ops), nil
	}

	// Converged reads, spread across the replicas.
	p.ReadBytes, err = measure(func(i int) error {
		_, _, err := clust.Node(ids[i%len(ids)]).Query(ctx)
		return err
	})
	if err != nil {
		return BytesPoint{}, err
	}

	// No-op adds: the element is already present, the state is unchanged.
	p.NoopBytes, err = measure(func(i int) error {
		_, err := n0.Update(ctx, func(s crdt.State) (crdt.State, error) {
			set := s.(*crdt.ORSet)
			if set.Contains("elem-000000") {
				return set, nil
			}
			return set.Add("elem-000000", "w", uint64(i)), nil
		})
		return err
	})
	if err != nil {
		return BytesPoint{}, err
	}

	// Fresh adds: the state grows by one element per op.
	p.AddBytes, err = measure(func(i int) error {
		_, err := n0.Update(ctx, func(s crdt.State) (crdt.State, error) {
			return s.(*crdt.ORSet).Add(fmt.Sprintf("new-%06d", i), "w", uint64(size+i)), nil
		})
		return err
	})
	if err != nil {
		return BytesPoint{}, err
	}
	return p, nil
}

// waitQuiescent blocks until the mesh has resolved every submitted
// message (delivered or dropped) and the count is stable, so byte
// snapshots don't bleed between measurement windows.
func waitQuiescent(ctx context.Context, mesh *transport.Mesh) error {
	stable := 0
	var last uint64
	for {
		st := mesh.Stats()
		if st.Sent == st.Delivered+st.Dropped && st.Sent == last {
			stable++
			if stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		last = st.Sent
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// FigureBytes reports the bytes sweep: replica-wire payload bytes per
// operation against a converged or-set cluster, by object size and
// state-transfer mode, plus the read-path reduction factor vs full-state
// transfer. This is the refactor's headline: on a converged keyspace the
// wire cost of a read is O(digest), not O(state).
func FigureBytes(w io.Writer, replicas int, sizes []int, ops int) error {
	points, err := RunBytesSweep(replicas, sizes, ops)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure B: replica-wire bytes/op on a converged or-set (%d replicas, %d ops/point)\n", replicas, ops)
	fmt.Fprintf(w, "\n  %8s %10s %8s %12s %12s %14s %10s\n",
		"elements", "state B", "mode", "read B/op", "add B/op", "noop-add B/op", "read ×less")
	var base BytesPoint
	for _, p := range points {
		if p.Mode == core.TransferFull {
			base = p
		}
		reduction := "—"
		if p.Mode != core.TransferFull {
			reduction = fmt.Sprintf("%.1fx", p.Reduction(base))
		}
		fmt.Fprintf(w, "  %8d %10d %8s %12.0f %12.0f %14.0f %10s\n",
			p.Elements, p.StateLen, p.Mode, p.ReadBytes, p.AddBytes, p.NoopBytes, reduction)
	}
	return nil
}
