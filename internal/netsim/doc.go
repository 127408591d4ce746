// Package netsim models the packet-level network substrate the MAFIC
// evaluation runs on: addresses, packets, simplex links with drop-tail
// queues, routers with attachable per-packet filters (the role NS-2
// Connectors play in the original paper), and end hosts.
//
// # Packet ownership and pooling
//
// Packets obtained from Network.NewPacket are pooled: the network recycles
// them once they reach a terminal point — delivery to a host, a queue or
// filter drop, or an unroutable destination. Ownership transfers to the
// network the moment a packet is handed to Host.Send, Network.SendFrom,
// Router.Inject, Link.Send or a Deliver method; after that the producer must
// not touch it again. Observation hooks (Hooks, Filter.Handle, PacketHandler)
// may read a packet only for the duration of the callback and must not retain
// the pointer — the slot is reused for a future packet as soon as the
// callback returns. Packets built directly with &Packet{} are never pooled
// and remain valid indefinitely; releasing one is a no-op.
//
// # Adjacency representation
//
// The node/link graph answers two per-hop questions on the forwarding fast
// path: LinkBetween (is there a direct link from a to b, and which one) and
// AppendNeighbors (a's neighbours in ascending ID order, the order BFS route
// computation depends on). Both are served by one sorted row of
// (neighbour, link) entries per node, carved from a shared slab. LinkBetween
// is a binary search over the row — simulated degrees are single digits, so
// the search is two or three probes — and total adjacency state is
// O(nodes + links). A 50000-router domain's adjacency fits in a few
// megabytes.
//
// # Reservation and slab carving
//
// Reserve(nodes) sizes the internal spines and slabs for a known domain size
// so construction is O(1) allocations per chunk instead of per node. The
// reservation is a hint, not a cap: nodes added past it stay correct and keep
// carving from the slabs, whose chunk sizes never trust the hint below the
// live node count.
//
// # Link and router failure
//
// Links and routers carry runtime up/down state for fault injection
// (Link.SetDown, Network.FailRouter / RestoreRouter). A down link admits no
// packets and kills packets already in flight on it at their arrival instant;
// a crashed router drops everything addressed through it without running its
// filter chain. Every such drop is accounted (Hooks.OnFaultDrop, the
// FaultDropped counters) and the packet is recycled through the pool like any
// other terminal point. Each state flip bumps TopoVersion and invalidates the
// memoized next-hop columns, and AppendNeighbors skips down links and links
// into crashed routers while any fault is active — so demand-driven routing
// re-converges around the fault. With every link and router up, none of this
// exists on the hot path: AppendNeighbors takes the historical loop, no RNG
// is consulted, nothing allocates, and simulations are bit-identical to
// builds without the fault layer.
package netsim
