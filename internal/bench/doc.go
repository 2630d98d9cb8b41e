// Package bench regenerates the evaluation figures: the paper's Figures
// 1–4 (§4: closed-loop clients spread evenly over the replicas, each
// waiting for its reply before the next request, against the Raft and
// Multi-Paxos baselines), the round lease, and the protocols race.
//
// Every figure runs in virtual time on a transport.Fabric, so its numbers
// are a pure function of the seed and the scale. The fabric has no CPU
// model and no scheduler jitter; what those change, and the served path
// as a whole (TCP clients, keyed store, durability, overload), is
// measured by benchmark/ instead. Figures is the table of what cmd/bench runs.
package bench
