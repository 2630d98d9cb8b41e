package checker

import (
	"fmt"
	"math/rand"
	"sort"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// maxSteps is Explore's safety bound on message deliveries, per phase.
const maxSteps = 200000

// ExploreConfig parameterizes one randomized protocol exploration.
type ExploreConfig struct {
	Seed        int64
	Replicas    int
	Ops         int     // client commands to inject
	ReadRatio   float64 // fraction of commands that are reads
	Options     core.Options
	InjectEvery int // inject a command roughly every k scheduler actions (default 2)

	// Initial is every replica's initial payload, joiners and restarted
	// replicas included; nil is the empty counter. Every value the checks
	// and the result report is net of Initial's value, so a padded counter
	// (PaddedCounter) runs the same workload above the replica wire's
	// digest/delta size switch.
	Initial *crdt.GCounter

	// Loss drops each delivered message with the given probability;
	// Duplication re-enqueues it for a second delivery. Under either,
	// the exploration stands in for the runtime's retransmit timers:
	// whenever the network goes quiescent with requests still in flight,
	// every replica ticks (Tick) before the drain continues; a request
	// younger than the last tick is re-driven at the next quiescent step.
	Loss        float64
	Duplication float64

	// Crashes injects that many crash/restart events, spread across the
	// injection phase at seeded points: a replica (chosen by a dedicated
	// RNG, so the injection schedule stays identical to a crash-free run
	// of the same seed) is replaced by a fresh one rehydrated from its
	// latest snapshot — the in-memory model of cluster.Restart with a
	// -data-dir. Snapshots are maintained after every state-changing
	// action, mirroring the runtime's persist-before-send rule. The
	// crashed replica's in-flight updates are recorded as fate-unknown
	// (History.Abandon) and its in-flight queries discarded.
	Crashes int

	// Reconfigs injects that many reconfiguration rounds at seeded points
	// across the injection phase, alternately growing the group by a fresh
	// joiner (j1, j2, …) and shrinking it back to the original member set —
	// single-member steps, the deployment contract of docs/PROTOCOL.md §6.
	// Commands keep flowing throughout and may land on a joiner before it
	// adopted the config that admits it, or on a replica a shrink just
	// removed; those fail with ErrNotMember, modeling a client that must
	// refresh its member list, and are settled in the history accordingly
	// (submit-time refusals vanish, mid-flight removals become
	// fate-unknown). The checker's conditions are then enforced over the
	// members of the final configuration.
	Reconfigs int
}

// QueryObs is one completed query: its real-time interval and learned state.
type QueryObs struct {
	Invoke, Return int64
	State          crdt.State
	Stats          core.QueryStats
}

// ExploreResult reports what an exploration observed.
type ExploreResult struct {
	Delivered   int
	UpdatesDone int
	QueriesDone int
	Queries     []QueryObs // in completion order
	History     []Op
	MaxAttempts int // worst query retry count observed

	UpdatesSubmitted int           // increments accepted for submission (the convergence ceiling)
	FinalValue       uint64        // converged counter value after the drain
	Retransmits      int           // quiescent-with-in-flight retransmit rounds
	Counters         core.Counters // summed protocol counters of all replicas
	Restarts         int           // crash/restart events injected
	Abandoned        int           // in-flight updates whose fate a crash or removal made unknown

	Reconfigs        int                // reconfiguration rounds committed
	ReconfigFailures int                // reconfiguration rounds refused or superseded
	FinalMembers     []transport.NodeID // members of the greatest adopted configuration
	FinalEpoch       uint64             // epoch of that configuration
}

// PaddedCounter returns a g-counter of value slots, about 10 encoded bytes
// each: an initial payload that puts replicas above the replica wire's
// digest/delta size switch (1 KiB, docs/PROTOCOL.md §3) from 128 slots.
func PaddedCounter(slots int) *crdt.GCounter {
	c := crdt.NewGCounter()
	for i := 0; i < slots; i++ {
		c = c.Inc(fmt.Sprintf("pad/%03d", i), 1)
	}
	return c
}

// Explore runs a cluster of core replicas over a deterministic fabric,
// injecting increments and reads at random replicas while delivering
// messages in seeded-random order, then drains the network and checks:
//
//   - Validity (Thm 3.1): every learned counter value is at most the number
//     of submitted updates.
//   - Stability (Thm 3.5): for queries where q1 completes before q2 is
//     submitted, s1 ⊑ s2. (Overlapping queries are only constrained by
//     Consistency.)
//   - Consistency (Thm 3.8): all learned states are pairwise comparable.
//   - Update Visibility / Update Stability (Thms 3.9, 3.10) via
//     linearizability of the full increment/read history.
//   - Convergence: after draining, every replica stores the full state.
//
// It returns the observations, or an error describing the first violated
// condition.
func Explore(cfg ExploreConfig) (*ExploreResult, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.InjectEvery <= 0 {
		cfg.InjectEvery = 2
	}
	initial := cfg.Initial
	if initial == nil {
		initial = crdt.NewGCounter()
	}
	offset := initial.Value()
	value := func(s crdt.State) uint64 { return s.(*crdt.GCounter).Value() - offset }
	rng := rand.New(rand.NewSource(cfg.Seed))
	fabric := transport.NewFabric(cfg.Seed + 1)
	fabric.SetLoss(cfg.Loss)
	fabric.SetDuplication(cfg.Duplication)

	// members is the CURRENT member list (it changes when Reconfigs > 0);
	// base is the boot-time set it grows from and shrinks back to; all is
	// every replica ever started, joiners included, for the bookkeeping
	// that must outlive membership (snapshots, retransmit rounds).
	members := make([]transport.NodeID, cfg.Replicas)
	for i := range members {
		members[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	base := append([]transport.NodeID(nil), members...)
	all := append([]transport.NodeID(nil), members...)
	replicas := make(map[transport.NodeID]*core.Replica, cfg.Replicas)
	conns := make(map[transport.NodeID]transport.Conn, cfg.Replicas)

	flush := func(id transport.NodeID) {
		for _, e := range replicas[id].TakeOutbox() {
			conns[id].Send(e.To, e.Payload)
		}
	}
	join := func(id transport.NodeID) {
		conns[id] = fabric.Join(id, func(from transport.NodeID, payload []byte) {
			replicas[id].Deliver(from, payload)
			flush(id)
		})
	}
	for _, id := range members {
		rep, err := core.NewReplica(id, members, initial, cfg.Options)
		if err != nil {
			return nil, err
		}
		replicas[id] = rep
		join(id)
	}

	res := &ExploreResult{}
	hist := NewHistory()
	updatesSubmitted := 0

	// Per-replica open operations: a crash (or a removal failing requests
	// mid-flight) must settle the history ops it kills (updates become
	// fate-unknown, reads vanish).
	openOps := make(map[transport.NodeID]map[int]OpKind, len(members))
	for _, id := range members {
		openOps[id] = make(map[int]OpKind)
	}

	inject := func() {
		id := members[rng.Intn(len(members))]
		rep := replicas[id]
		open := openOps[id]
		if rng.Float64() < cfg.ReadRatio {
			opID := hist.Begin(OpRead)
			open[opID] = OpRead
			invoke := hist.Clock()
			rep.SubmitQuery(func(s crdt.State, stats core.QueryStats, err error) {
				delete(open, opID)
				if err != nil {
					hist.Discard(opID)
					return
				}
				if stats.Attempts > res.MaxAttempts {
					res.MaxAttempts = stats.Attempts
				}
				res.QueriesDone++
				hist.End(opID, value(s))
				res.Queries = append(res.Queries, QueryObs{
					Invoke: invoke,
					Return: hist.Clock(),
					State:  s,
					Stats:  stats,
				})
			})
		} else {
			opID := hist.Begin(OpInc)
			open[opID] = OpInc
			updatesSubmitted++
			slot := string(id)
			_, err := rep.SubmitUpdate(func(s crdt.State) (crdt.State, error) {
				return s.(*crdt.GCounter).Inc(slot, 1), nil
			}, func(stats core.UpdateStats, err error) {
				delete(open, opID)
				if err != nil {
					// Failed mid-flight (a reconfiguration removed the
					// proposer): the increment is in the proposer's durable
					// payload but may or may not ever reach the group —
					// fate-unknown, exactly like a crash-killed update.
					hist.Abandon(opID)
					res.Abandoned++
					return
				}
				res.UpdatesDone++
				hist.End(opID, 0)
			})
			if err != nil {
				// Refused at submission (replica not a member): provably
				// never applied anywhere, so it neither enters the history
				// nor counts toward the convergence target.
				delete(open, opID)
				hist.Discard(opID)
				updatesSubmitted--
			}
		}
		flush(id)
	}

	// Snapshot maintenance, modeling the runtime's persist-on-transition
	// rule: after every scheduler action, any replica whose durable state
	// advanced gets its in-memory snapshot refreshed — so a crash always
	// restores exactly the state the replica held, including every update
	// it applied locally (which is what makes convergence to the full
	// submitted count survive crashes even under message loss).
	snaps := make(map[transport.NodeID]core.Snapshot, len(members))
	savedVersion := make(map[transport.NodeID]uint64, len(members))
	persistAll := func() {
		for _, id := range all {
			if v := replicas[id].StateVersion(); v != savedVersion[id] || snaps[id].State == nil {
				snaps[id] = replicas[id].Snapshot()
				savedVersion[id] = v
			}
		}
	}
	persistAll()

	// Crash scheduling: a dedicated RNG and injected-op-count thresholds
	// keep the command schedule (and therefore UpdatesSubmitted) exactly
	// identical to a crash-free run of the same seed. The thresholds are
	// a sorted queue (clamped to ≥1, duplicates kept) so exactly
	// cfg.Crashes events fire even when integer division collides — e.g.
	// Crashes close to or exceeding Ops.
	// Reconfiguration rounds are serialized like a real admin would: the
	// next round fires only after the previous one settled (committed,
	// superseded, or lost with its crashed proposer) — the single-admin
	// contract of docs/PROTOCOL.md §6. These are declared before crash()
	// because a crash of the round's proposer is one of the settling events:
	// proposer-side round state is volatile, so the callback can never fire.
	recfgPending := false
	var recfgProposer transport.NodeID

	crashRng := rand.New(rand.NewSource(cfg.Seed + 2))
	crashQueue := make([]int, 0, cfg.Crashes)
	for i := 1; i <= cfg.Crashes; i++ {
		pos := cfg.Ops * i / (cfg.Crashes + 1)
		if pos < 1 {
			pos = 1
		}
		crashQueue = append(crashQueue, pos)
	}
	crash := func() {
		id := members[crashRng.Intn(len(members))]
		// Settle the history: killed updates have unknown fate (their
		// local effect is durable, but without a proposer to retransmit,
		// reaching a quorum is not guaranteed); killed reads have none.
		opIDs := make([]int, 0, len(openOps[id]))
		for opID := range openOps[id] {
			opIDs = append(opIDs, opID)
		}
		sort.Ints(opIDs) // map order would make the history nondeterministic
		for _, opID := range opIDs {
			if openOps[id][opID] == OpInc {
				hist.Abandon(opID)
				res.Abandoned++
			} else {
				hist.Discard(opID)
			}
		}
		openOps[id] = make(map[int]OpKind)
		if recfgPending && id == recfgProposer {
			// The pending round died with its proposer: the minted config is
			// durable (and may still spread through anti-entropy), but no
			// commit can ever be reported for it.
			recfgPending = false
			res.ReconfigFailures++
		}
		// Reconstruct at the snapshot's own configuration: Restore only
		// adopts a config that strictly supersedes the replica's, so a
		// snapshot taken at the epoch the replica booted with must be
		// seeded through the constructor, not the restore path.
		rep, err := core.NewReplicaConfig(id, snaps[id].Config, initial, cfg.Options)
		if err != nil {
			panic(err) // a replica with this id was constructed before
		}
		if err := rep.Restore(snaps[id]); err != nil {
			panic(err) // snapshot came from an identically configured replica
		}
		replicas[id] = rep
		savedVersion[id] = rep.StateVersion()
		snaps[id] = rep.Snapshot()
		res.Restarts++
	}

	// Reconfiguration scheduling, built like crash scheduling: a dedicated
	// RNG and injected-op-count thresholds. Rounds alternate between growing
	// the group by a fresh joiner and proposing the original set back —
	// single-member deltas either way, the deployment contract that keeps
	// every acked update's quorum overlapping the surviving members
	// (docs/PROTOCOL.md §6). The proposer is always drawn from the base set,
	// which is a member of every configuration this schedule proposes.
	recfgRng := rand.New(rand.NewSource(cfg.Seed + 3))
	recfgQueue := make([]int, 0, cfg.Reconfigs)
	if cfg.Ops > 0 {
		for i := 1; i <= cfg.Reconfigs; i++ {
			pos := cfg.Ops * i / (cfg.Reconfigs + 1)
			if pos < 1 {
				pos = 1
			}
			recfgQueue = append(recfgQueue, pos)
		}
	}
	joiners := 0
	reconfig := func() {
		var target []transport.NodeID
		if len(members) == len(base) {
			// Grow: start a fresh non-member replica (empty boot config —
			// it refuses commands and waits for the config push that the
			// reconfiguration round itself delivers, payload included).
			joiners++
			jid := transport.NodeID(fmt.Sprintf("j%d", joiners))
			rep, err := core.NewReplicaConfig(jid, core.Config{}, initial, cfg.Options)
			if err != nil {
				panic(err) // fresh id, empty config: cannot fail
			}
			replicas[jid] = rep
			join(jid)
			openOps[jid] = make(map[int]OpKind)
			all = append(all, jid)
			snaps[jid] = rep.Snapshot()
			savedVersion[jid] = rep.StateVersion()
			target = append(append([]transport.NodeID(nil), members...), jid)
		} else {
			target = append([]transport.NodeID(nil), base...)
		}
		proposer := base[recfgRng.Intn(len(base))]
		// Mark pending before submitting: with a single-replica group the
		// commit (and so the callback clearing the mark) is synchronous.
		recfgPending = true
		recfgProposer = proposer
		_, err := replicas[proposer].SubmitReconfigure(target, func(err error) {
			recfgPending = false
			if err != nil {
				res.ReconfigFailures++ // superseded by a competing config
				return
			}
			res.Reconfigs++
		})
		if err != nil {
			// Refused at submission (the proposer lags behind a config that
			// removed it, or its crash-lost round is still formally open).
			// The member list the checker tracks stays put; a later round
			// re-proposes from wherever the group actually converged.
			recfgPending = false
			res.ReconfigFailures++
			return
		}
		// The proposer self-adopted before broadcasting, so its view — the
		// one the checker now injects against — really is the new set.
		// Laggards refusing commands until the config reaches them is part
		// of the model being checked.
		members = target
		flush(proposer)
	}

	inFlight := func() int {
		n := 0
		for _, rep := range replicas {
			n += rep.InFlight()
		}
		return n
	}

	// Interleave injections with deliveries, then drain. Under loss the
	// drain can go quiescent with requests still in flight; the runtime's
	// retransmit timers are modeled by re-driving every in-flight request
	// (in member order, for determinism) and continuing.
	injected := 0
	steps := 0
	for steps < maxSteps && (injected < cfg.Ops || fabric.Pending() > 0 || inFlight() > 0 || len(recfgQueue) > 0) {
		if injected < cfg.Ops && (fabric.Pending() == 0 || steps%cfg.InjectEvery == 0) {
			inject()
			injected++
			persistAll() // snapshot before a crash can interleave
			for len(crashQueue) > 0 && injected >= crashQueue[0] {
				crashQueue = crashQueue[1:]
				crash()
			}
		}
		// Serialized reconfiguration rounds: a due round waits for the
		// previous one to settle, so late rounds can fire during the drain
		// (which keeps retransmitting the pending round to settlement).
		if len(recfgQueue) > 0 && injected >= recfgQueue[0] && !recfgPending {
			recfgQueue = recfgQueue[1:]
			reconfig()
		}
		if fabric.Step() {
			res.Delivered++
		} else if injected >= cfg.Ops && inFlight() > 0 {
			res.Retransmits++
			for _, id := range all {
				replicas[id].Tick()
				flush(id)
			}
		}
		persistAll()
		steps++
	}
	if fabric.Pending() > 0 {
		return res, fmt.Errorf("checker: network not quiescent after %d steps", maxSteps)
	}
	// Eventual liveness (§3.5): updates are finite and every lost message
	// is eventually retransmitted, so after the drain no request may
	// remain in flight.
	for id, rep := range replicas {
		if rep.InFlight() != 0 {
			return res, fmt.Errorf("checker: %s still has %d requests in flight after drain", id, rep.InFlight())
		}
	}

	// The final configuration is the lattice maximum over every replica ever
	// started (the drain retransmitted any pending reconfiguration to
	// completion, so at least its proposer and joint quorum hold it).
	// Conditions are enforced over its members that have actually adopted a
	// configuration admitting them — a joiner the commit outran may still
	// sit at its empty boot config, which the sync round's anti-entropy
	// repairs, but only if traffic reaches it.
	final := replicas[all[0]].ConfigState()
	for _, id := range all[1:] {
		if c := replicas[id].ConfigState(); c.Supersedes(final) {
			final = c
		}
	}
	syncMembers := make([]transport.NodeID, 0, len(final.Members))
	for _, id := range final.Members {
		if rep := replicas[id]; rep != nil && rep.IsMember() {
			syncMembers = append(syncMembers, id)
		}
	}
	if len(syncMembers) == 0 {
		return res, fmt.Errorf("checker: no member of the final config %v adopted a config admitting it", final.Members)
	}

	// Under loss or duplication the drain can leave laggards: a completed
	// update's MERGE to a non-quorum peer may have been lost with nothing
	// in flight to retransmit it. Convergence is an eventual-delivery
	// property, so model "eventually": one lossless no-op sync update per
	// member re-ships every payload (or, for a large one, its digest —
	// either way the receiver ends up dominating it). Crashes
	// need the same treatment: an abandoned update is durable in its
	// submitter's restored payload but has no proposer left to retransmit
	// its MERGEs, so only the sync round provably spreads it. Reconfigured
	// runs need it twice over — the sync MERGEs are what push the final
	// config (EPOCH-NACK, then config push) to members that lag behind it,
	// so the loop keeps the retransmit fallback: a sync update can go
	// quiescent mid-migration when its quorum recomputes under an adoption.
	if cfg.Loss > 0 || cfg.Duplication > 0 || cfg.Crashes > 0 || cfg.Reconfigs > 0 {
		fabric.SetLoss(0)
		fabric.SetDuplication(0)
		for _, id := range syncMembers {
			if _, err := replicas[id].SubmitUpdate(func(s crdt.State) (crdt.State, error) { return s, nil }, nil); err != nil {
				return res, fmt.Errorf("checker: sync update at %s: %w", id, err)
			}
			flush(id)
		}
		for n := 0; n < maxSteps && (fabric.Pending() > 0 || inFlight() > 0); n++ {
			if fabric.Step() {
				res.Delivered++
			} else if inFlight() > 0 {
				res.Retransmits++
				for _, id := range all {
					replicas[id].Tick()
					flush(id)
				}
			}
		}
		if fabric.Pending() > 0 {
			return res, fmt.Errorf("checker: network not quiescent after %d lossless sync steps", maxSteps)
		}
		for id, rep := range replicas {
			if rep.InFlight() != 0 {
				return res, fmt.Errorf("checker: %s still has %d requests in flight after lossless sync", id, rep.InFlight())
			}
		}
	}
	for _, rep := range replicas {
		res.Counters.Add(rep.Counters())
	}

	res.UpdatesSubmitted = updatesSubmitted
	res.FinalEpoch = final.Epoch
	res.FinalMembers = append([]transport.NodeID(nil), final.Members...)
	// Report the value a replica actually converged to (not the expected
	// count — the convergence check below compares the two).
	res.FinalValue = value(replicas[syncMembers[0]].LocalState())
	if err := checkConditions(res, updatesSubmitted, value); err != nil {
		return res, err
	}
	if cfg.Reconfigs == 0 {
		// Convergence: every replica's local payload holds every update.
		for id, rep := range replicas {
			if v := value(rep.LocalState()); v != uint64(updatesSubmitted) {
				return res, fmt.Errorf("checker: %s converged to %d, want %d", id, v, updatesSubmitted)
			}
		}
	} else {
		// With reconfigurations the exact count is unattainable: an update
		// abandoned by its proposer's removal is durable only in a payload
		// the group no longer syncs from. What must still hold: the final
		// members agree on one value, every COMPLETED update is in it
		// (single-member steps guarantee a surviving holder, the sync round
		// spreads it), and it never exceeds the submissions.
		for _, id := range syncMembers {
			if v := value(replicas[id].LocalState()); v != res.FinalValue {
				return res, fmt.Errorf("checker: final members diverge: %s at %d, %s at %d", id, v, syncMembers[0], res.FinalValue)
			}
		}
		if res.FinalValue < uint64(res.UpdatesDone) || res.FinalValue > uint64(updatesSubmitted) {
			return res, fmt.Errorf("checker: final value %d outside [completed %d, submitted %d]", res.FinalValue, res.UpdatesDone, updatesSubmitted)
		}
	}
	res.History = hist.Ops()
	if err := CheckCounterLinearizable(res.History); err != nil {
		return res, err
	}
	return res, nil
}

func checkConditions(res *ExploreResult, updatesSubmitted int, value func(crdt.State) uint64) error {
	// Validity: no learned value exceeds the submitted updates.
	for i, q := range res.Queries {
		if v := value(q.State); v > uint64(updatesSubmitted) {
			return fmt.Errorf("checker: validity: query %d learned %d with only %d updates submitted", i, v, updatesSubmitted)
		}
	}
	// Stability: non-overlapping queries learn monotone states.
	for i, q1 := range res.Queries {
		for j, q2 := range res.Queries {
			if q1.Return >= q2.Invoke {
				continue
			}
			le, err := q1.State.Compare(q2.State)
			if err != nil {
				return err
			}
			if !le {
				return fmt.Errorf("checker: stability: query %d (done %d) !⊑ query %d (begun %d)", i, q1.Return, j, q2.Invoke)
			}
		}
	}
	// Consistency: pairwise comparable.
	for i := range res.Queries {
		for j := i + 1; j < len(res.Queries); j++ {
			ok, err := crdt.Comparable(res.Queries[i].State, res.Queries[j].State)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("checker: consistency: states of queries %d and %d incomparable", i, j)
			}
		}
	}
	return nil
}
