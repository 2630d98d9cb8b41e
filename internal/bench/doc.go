// Package bench is the evaluation harness: a closed-loop load generator
// equivalent to the paper's Basho Bench setup (§4: each client submits a
// request to one of the three replicas and waits for the reply before
// submitting the next; clients are spread evenly over replicas; throughput
// is aggregated in 1 s intervals and reported as the median), plus the
// drivers that regenerate every figure of the evaluation section.
//
// Two System implementations start replicas: CRDTSystem (the paper's
// protocol over a cluster.Cluster, one replicated counter) and LogSystem
// (Raft or Multi-Paxos replicas on rsm.Node). Figures is the table of
// what cmd/bench runs; the served path (TCP clients, keyed store,
// durability, overload) is measured by benchmark/ instead.
package bench
