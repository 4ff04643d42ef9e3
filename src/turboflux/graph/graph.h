#ifndef TURBOFLUX_GRAPH_GRAPH_H_
#define TURBOFLUX_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "turboflux/common/adj_pool.h"
#include "turboflux/common/flat_table.h"
#include "turboflux/common/label_set.h"
#include "turboflux/common/serialize.h"
#include "turboflux/common/status.h"
#include "turboflux/common/types.h"

namespace turboflux {

/// An adjacency entry: the neighbouring vertex and the edge label.
/// For out-adjacency `other` is the edge target; for in-adjacency it is the
/// edge source.
struct AdjEntry {
  VertexId other;
  EdgeLabel label;

  friend bool operator==(const AdjEntry& a, const AdjEntry& b) {
    return a.other == b.other && a.label == b.label;
  }
};

/// A dynamic, directed, labeled graph: the data-graph substrate shared by
/// TurboFlux and all baselines.
///
/// * vertices carry label *sets* (L(v)); a query vertex u matches v when
///   L(u) is a subset of L(v);
/// * edges carry exactly one label; at most one edge per
///   (source, label, target) triple (parallel edges with distinct labels
///   are allowed);
/// * edge insertion is O(1) amortized, deletion O(deg), existence O(1)
///   expected (one flat-table probe);
/// * both out- and in-adjacency are maintained, since query-tree edges may
///   be traversed against their direction.
///
/// Memory layout (DESIGN.md §3.11): adjacency lives in two contiguous
/// AdjPool slabs (CSR-style spans with epoch-based compaction), and the
/// (from, to) -> labels index is a flat open-addressing FlatPairTable —
/// both bounded under delete-heavy streams. Observable behavior (entry
/// orders, serialized bytes) is identical to the node-based layout the
/// pools replaced, which `legacy::NodeGraph` preserves as the
/// differential-test oracle.
///
/// Read-API lifetime rule: the spans returned by OutEdges/InEdges/
/// EdgeLabelsBetween are invalidated by ANY graph mutation (growth can
/// relocate a list; compaction moves all of them). The engine honors this
/// for free — the data graph is only mutated at update-op boundaries,
/// never during an evaluation that holds a view.
class Graph {
 public:
  /// Read-only view of one vertex's adjacency; see the lifetime rule above.
  using AdjView = Span<AdjEntry>;
  /// Read-only view of one pair's parallel-edge labels.
  using LabelView = Span<EdgeLabel>;

  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Adds a vertex with the given label set; returns its id. Ids are dense,
  /// starting at 0.
  VertexId AddVertex(LabelSet labels);

  /// Adds a directed edge. Returns false (and leaves the graph unchanged)
  /// if either endpoint does not exist or the identical (from, label, to)
  /// edge is already present.
  bool AddEdge(VertexId from, EdgeLabel label, VertexId to);

  /// Removes a directed edge. Returns false if it was not present.
  bool RemoveEdge(VertexId from, EdgeLabel label, VertexId to);

  /// O(1) expected edge-existence probe.
  bool HasEdge(VertexId from, EdgeLabel label, VertexId to) const;

  size_t VertexCount() const { return vertex_labels_.size(); }
  size_t EdgeCount() const { return edge_count_; }

  bool IsValidVertex(VertexId v) const { return v < vertex_labels_.size(); }

  const LabelSet& labels(VertexId v) const { return vertex_labels_[v]; }

  AdjView OutEdges(VertexId v) const { return out_adj_.View(v); }
  AdjView InEdges(VertexId v) const { return in_adj_.View(v); }

  size_t OutDegree(VertexId v) const { return out_adj_.Size(v); }
  size_t InDegree(VertexId v) const { return in_adj_.Size(v); }
  size_t Degree(VertexId v) const { return OutDegree(v) + InDegree(v); }

  /// All labels of edges from `from` to `to`, in insertion order (minus
  /// order-preserving erases). Empty view when there is no such pair.
  LabelView EdgeLabelsBetween(VertexId from, VertexId to) const {
    return pair_index_.Find(FlatPairTable::MakeKey(from, to));
  }

  /// Appends a binary encoding of the graph to `out`. The encoding
  /// preserves the exact order of both adjacency lists (observable through
  /// OutEdges/InEdges and hence through match enumeration order), so a
  /// deserialized graph is behaviorally byte-identical, not merely
  /// isomorphic. Used by the engine checkpoint (DESIGN.md §3.7). The
  /// bytes are independent of slab/table geometry — layout is rebuilt on
  /// Deserialize — so snapshots cross memory-layout generations.
  void Serialize(std::string& out) const;

  /// Rebuilds the graph from `in` (replacing all current state). Every id
  /// is bounds-checked, duplicate out-edges are rejected while the pair
  /// index is built, and the in-adjacency is checked to mirror it, so
  /// corrupted input yields a kCorruption status (with the graph left
  /// empty), never a crash or an inconsistent graph.
  Status Deserialize(bin::Reader& in);

  /// Exhaustive internal-consistency check: the in-adjacency mirrors the
  /// out-adjacency edge-for-edge, the (from, to) -> labels index matches
  /// both, edge_count_ equals a recount, and the pool/table internals
  /// self-validate. Returns an empty string when consistent, else a
  /// description of the first violation. O(|E| log d) for largest degree
  /// d, with one reused scratch buffer (DESIGN.md §3.7 lists the
  /// invariants); meant for tests and snapshot validation.
  std::string CheckConsistency() const;

  /// Memory introspection for the engine's graph gauges (DESIGN.md §3.11):
  /// heap bytes held by the adjacency slabs and the pair table, slab slots
  /// not holding a live entry, and how many compactions/rehashes have run.
  size_t AdjacencyMemoryBytes() const {
    return out_adj_.MemoryBytes() + in_adj_.MemoryBytes();
  }
  size_t AdjacencyDeadSlots() const {
    return out_adj_.DeadSlots() + in_adj_.DeadSlots();
  }
  size_t PairTableMemoryBytes() const { return pair_index_.MemoryBytes(); }
  uint64_t CompactionEpochs() const {
    return out_adj_.Epoch() + in_adj_.Epoch();
  }
  uint64_t PairTableRehashes() const { return pair_index_.RehashCount(); }

 private:
  /// The in-adjacency half of CheckConsistency: every in-entry mirrors a
  /// distinct out-edge of the pair index and the totals agree. All that
  /// Deserialize checks after its out-adjacency build.
  std::string CheckInMirrors() const;

  std::vector<LabelSet> vertex_labels_;
  AdjPool<AdjEntry> out_adj_;
  AdjPool<AdjEntry> in_adj_;
  // (from, to) -> labels of parallel edges between them. Supports the O(1)
  // HasEdge probe and duplicate-insert detection.
  FlatPairTable pair_index_;
  size_t edge_count_ = 0;
};

}  // namespace turboflux

#endif  // TURBOFLUX_GRAPH_GRAPH_H_
