// Package graph provides the static undirected graph representation shared by
// every subsystem in this repository: the CONGEST simulator, the expander
// decomposition, the sequential solvers, and the experiment harness.
//
// # Representation
//
// Graphs are immutable once built and stored in compressed sparse row (CSR)
// form: three flat arrays (row offsets, neighbor IDs, undirected edge
// indices) hold every adjacency, with each row sorted by ascending neighbor
// ID. Construction goes through Builder, which deduplicates parallel edges,
// rejects self-loops, and assigns canonical (sorted) edge indices that are
// stable across insertion orders. Every construction path — Builder, the
// text parser, the streaming generators and Overlay.Compact — lays out the
// rows through one two-pass assembly, StreamingBuilder, so equal edge sets
// give bit-identical graphs whichever path built them. Edge weights (for maximum weight matching)
// and edge signs (for correlation clustering) are optional per-edge
// annotations carried by parallel arrays indexed by edge index. Aggregate
// quantities that would otherwise need a scan — MaxDegree, MaxWeight,
// TotalWeight — are computed once at build time and served in O(1).
//
// # Views
//
// The recursive algorithms in this repository (expander decomposition,
// cluster verification) repeatedly restrict a graph to a vertex subset.
// Materializing each restriction as a new *Graph would cost a full
// Builder pass per recursion level. The View type avoids that: Induce and
// InduceFiltered build a zero-copy subgraph view that shares the backing
// graph's edge list, weights and signs, adding only a small local adjacency
// index. Both *Graph and *View satisfy the read-only G interface, and the
// package-level helpers (BFSOf, ComponentsOf, DiameterOf, ...) run on
// either. View.Materialize converts a view into the equivalent standalone
// *Graph when an independent copy is genuinely needed (for example to hand
// to a solver that outlives the base graph); views are the package's only
// subgraph mechanism. See DESIGN.md §3.11 for the aliasing and ownership
// contract.
//
// # Input and output
//
// Graphs move between memory and disk through three load paths, all
// producing the same canonical CSR:
//
//   - Text edge lists (ReadEdgeList / WriteEdgeList): one "u v [w] [s]" pair
//     per line. The parser streams bytes directly into a StreamingBuilder —
//     no token-size limits, line-numbered errors, overflow checks — so
//     multi-gigabyte lists parse in two passes with no intermediate edge
//     buffer.
//   - Binary CSR (ReadBinary / WriteBinary): the in-memory arrays verbatim
//     behind a versioned, crc32c-checksummed 64-byte header. Round trips are
//     bit-identical, including the cached aggregate stats, and loads are a
//     few sequential reads.
//   - Memory mapping (OpenMapped): maps a binary file read-only and aliases
//     the CSR arrays in place on little-endian 64-bit hosts
//     (MapIsZeroCopy reports availability). Opening validates only the
//     header — O(1) in the edge count — and the heap stays empty; the
//     returned Mapped owns the mapping and Close unmaps it. Platforms or
//     hosts without the fast path degrade to a copying read behind the same
//     call.
//
// LoadFile sniffs the format by magic and dispatches. For generating large
// inputs, ErdosRenyiStream draws its rows in parallel from per-row
// splitmix64 streams, and RandomMaximalPlanarStream and RandomPlanarStream
// sort their packed edges in parallel; every worker count builds the same
// graph, and RandomMaximalPlanar and RandomPlanar are their one-worker
// calls. See DESIGN.md §3.13 for the on-disk layout and the aliasing rules.
//
// # Mutation
//
// The CSR arrays never change, but graphs can still evolve: Overlay layers
// edge and vertex inserts/deletes (Op, Apply, ApplyAll) over an immutable
// base while satisfying the full G interface — degrees, canonical-order
// neighbor iteration, edge indices, weights and signs all answer as if the
// mutated graph had been built from scratch, which FuzzOverlayEquivalence
// pins against a from-scratch Builder on random op sequences. Base edge
// indices stay stable under mutation (deletions tombstone, insertions index
// past the base), so per-edge state held by callers survives a batch.
// Vertex deletion isolates the ID rather than renumbering — vertex IDs stay
// dense, the invariant every downstream array relies on. Compact
// materializes the overlay through StreamingBuilder into a canonical
// *Graph, byte-identical through the binary codec; the server compacts
// after every mutation batch. Deterministic mutation streams come from GenerateChurn. See DESIGN.md
// §3.16 for the delta layout and how the expander package consumes overlays
// incrementally.
package graph
