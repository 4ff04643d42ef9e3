#ifndef TURBOFLUX_CORE_DCG_H_
#define TURBOFLUX_CORE_DCG_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "turboflux/common/serialize.h"
#include "turboflux/common/status.h"
#include "turboflux/common/types.h"
#include "turboflux/obs/engine_stats.h"
#include "turboflux/query/query_tree.h"

namespace turboflux {

/// State of a DCG edge (Section 3.1). NULL edges are hypothetical and never
/// stored; a stored edge is IMPLICIT or EXPLICIT.
enum class DcgState : uint8_t {
  kNull = 0,
  kImplicit = 1,
  kExplicit = 2,
};

char DcgStateChar(DcgState s);

/// The data-centric graph (DCG): the paper's concise representation of
/// intermediate results. A DCG edge (v, u', v') records the candidate query
/// vertex u' for data vertex v' reached from parent data vertex v:
///
///  * IMPLICIT — a data path v_s ~> v.v' matches u_s ~> P(u').u', but some
///    subtree of u' is not yet matched under v' (Definition 5);
///  * EXPLICIT — additionally every subtree of u' matches under v'
///    (Definition 4).
///
/// Stored per data vertex (lazily allocated) as incoming and outgoing
/// adjacency keyed by the query vertex label, plus bitmaps that make
/// MatchAllChildren (Algorithm 4) a single mask test. The artificial start
/// vertex v_s* appears only as kArtificialVertex in the in-lists of start
/// vertices.
///
/// All mutations go through SetState, which keeps the in/out mirrors,
/// counters, and bitmaps consistent.
class Dcg {
 public:
  struct InEdge {
    VertexId from;
    DcgState state;
  };
  struct OutEdge {
    VertexId to;
    DcgState state;
  };

  /// One stored DCG edge, used for snapshots and tests.
  using EdgeTuple = std::tuple<VertexId, QVertexId, VertexId, DcgState>;

  Dcg() = default;

  /// Clears all state and binds the DCG to a query tree and a data-vertex
  /// universe of the given size.
  void Reset(size_t num_data_vertices, const QueryTree& tree);

  /// Current state of the DCG edge (from, u, to); kNull if not stored.
  DcgState GetState(VertexId from, QVertexId u, VertexId to) const;

  /// Transitions edge (from, u, to) to `next`. kNull removes the edge;
  /// transitioning an absent edge to kNull is a no-op. Asserts that the
  /// transition is one of the legal ones in the edge transition diagram
  /// (Figure 5).
  void SetState(VertexId from, QVertexId u, VertexId to, DcgState next);

  /// Incoming DCG edges of v labeled u (both IMPLICIT and EXPLICIT) —
  /// GetImplAndExplEdges(v, u, in) in the paper's pseudocode.
  const std::vector<InEdge>& InEdgesOf(VertexId v, QVertexId u) const;

  /// Outgoing DCG edges of v labeled u (both states).
  const std::vector<OutEdge>& OutEdgesOf(VertexId v, QVertexId u) const;

  size_t InCount(VertexId v, QVertexId u) const {
    return InEdgesOf(v, u).size();
  }

  /// Number of outgoing EXPLICIT edges of v labeled u —
  /// |GetExplEdges(v, u, out)|.
  size_t ExplicitOutCount(VertexId v, QVertexId u) const;

  /// True iff v has any incoming (IMPLICIT or EXPLICIT) edge labeled u.
  bool HasInEdge(VertexId v, QVertexId u) const;

  /// O(1) MatchAllChildren(v, u) (Algorithm 4): v has at least one
  /// outgoing EXPLICIT edge for every child of u in the query tree.
  bool MatchAllChildren(VertexId v, QVertexId u) const;

  /// Total stored edges (IMPLICIT + EXPLICIT, including artificial start
  /// edges) — the paper's intermediate-result size for TurboFlux.
  size_t EdgeCount() const { return edge_count_; }
  size_t ExplicitEdgeCount() const { return explicit_count_; }

  /// Number of EXPLICIT edges labeled u, maintained incrementally; used by
  /// AdjustMatchingOrder's drift detection.
  uint64_t ExplicitCountFor(QVertexId u) const {
    return explicit_per_qv_[u];
  }

  /// Sorted list of every stored edge; equality of snapshots is the
  /// "incrementally maintained DCG == rebuilt-from-scratch DCG" oracle.
  std::vector<EdgeTuple> Snapshot() const;

  /// Appends a binary encoding of the DCG to `out`. The per-node in/out
  /// adjacency *orders* are preserved exactly (they determine match
  /// enumeration order), so a deserialized DCG reproduces the original's
  /// subsequent match stream byte-for-byte, not just its edge set.
  void Serialize(std::string& out) const;

  /// Rebuilds the DCG from `in`, bound to `tree` over a data-vertex
  /// universe of `num_data_vertices`. Bitmaps and counters are recomputed
  /// from the decoded lists and the result is cross-checked with
  /// Validate(), so corrupted input yields a kCorruption status (with the
  /// DCG left empty), never a crash or an inconsistent structure.
  Status Deserialize(bin::Reader& in, size_t num_data_vertices,
                     const QueryTree& tree);

  /// Exhaustive internal-consistency check: the in/out mirrors agree
  /// edge-for-edge and state-for-state, every bitmap bit reflects its
  /// list, and every counter equals a recount. Returns an empty string
  /// when consistent, else a description of the first violation. O(size
  /// of the DCG); meant for tests and debug assertions.
  std::string Validate() const;

  std::string ToString() const;

  /// Binds transition counters bumped by SetState (nullptr detaches). The
  /// binding is an observer, not state: Reset/Deserialize leave
  /// it untouched, and Deserialize's direct list rebuild is not counted —
  /// the counters track logical transitions only.
  void set_stats(obs::DcgStats* stats) { stats_ = stats; }

  /// Number of data vertices that ever had a node allocated (a node is
  /// never freed once allocated, even when all its edges are removed —
  /// the populated set is part of the serialized format).
  size_t PopulatedNodeCount() const { return pool_.size(); }

 private:
  struct Node {
    explicit Node(size_t nq)
        : in(nq), out(nq), explicit_out(nq, 0) {}

    std::vector<std::vector<InEdge>> in;
    std::vector<std::vector<OutEdge>> out;
    std::vector<uint32_t> explicit_out;
    uint64_t in_bits = 0;            // bit u: in[u] non-empty
    uint64_t explicit_out_bits = 0;  // bit u: explicit_out[u] > 0
  };

  // Nodes live in one contiguous pool (DESIGN.md §3.11), indexed through
  // slot_of_ (kNoSlot = not populated), replacing a unique_ptr per vertex:
  // the lookup is an index load instead of a pointer chase, and nodes
  // touched together sit near each other. Slot assignment order is an
  // allocation detail — Serialize/Snapshot/Validate iterate by vertex id
  // (PopulatedIds) — so it is not observable.
  //
  // Lifetime rule: pool growth (EnsureSlot) moves Node objects, so Node
  // references must be re-taken after any EnsureSlot call. Iterators into
  // a node's INNER lists survive growth (vector move keeps heap buffers),
  // but plain `Node&`/`Node*` do not.
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  Node* GetNode(VertexId v) const {
    if (v >= slot_of_.size() || slot_of_[v] == kNoSlot) return nullptr;
    return const_cast<Node*>(&pool_[slot_of_[v]]);
  }
  uint32_t EnsureSlot(VertexId v);
  /// Populated vertex ids in ascending order: a sorted copy of
  /// vertex_of_slot_, so whole-DCG walks cost the populated nodes, not
  /// the data-vertex universe.
  std::vector<VertexId> PopulatedIds() const;

  const QueryTree* tree_ = nullptr;
  size_t num_qv_ = 0;
  std::vector<uint32_t> slot_of_;
  std::vector<Node> pool_;
  size_t edge_count_ = 0;
  size_t explicit_count_ = 0;
  std::vector<uint64_t> explicit_per_qv_;
  obs::DcgStats* stats_ = nullptr;  // not owned; see set_stats
  // Inverse of slot_of_. Last, so the hot counters above keep their
  // offsets: placed after pool_ it cost BM_InsertEdgeAndEval ~12%.
  std::vector<VertexId> vertex_of_slot_;
};

}  // namespace turboflux

#endif  // TURBOFLUX_CORE_DCG_H_
