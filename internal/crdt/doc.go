// Package crdt implements state-based conflict-free replicated data types
// (CRDTs) as join semilattices, following Shapiro et al. (SSS 2011) and the
// formulation in Skrzypczak et al. (PODC 2019), §2.2.
//
// Every payload type implements State. A State is a point in a join
// semilattice: Merge computes the least upper bound (⊔) and Compare the
// partial order (⊑). States are immutable values: Merge and all mutators
// never modify their operands, so states can be shared freely between
// replicas, protocol goroutines, and histories. A result is not necessarily
// a private copy — it may share memory with its operands, or be one of them
// (see ORSet) — which is safe for exactly as long as nobody writes to a
// State after building it.
//
// The package ships exactly the four types the server serves: the G-Counter
// of the paper's Algorithm 1, the PN-Counter, the OR-Set and the
// LWW-Register. A type is registered only if a served mutation can change
// it. The counters and the OR-Set also implement join decomposition
// (DeltaState, after Almeida et al., NETYS 2015) for delta state transfer.
package crdt
