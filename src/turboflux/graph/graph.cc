#include "turboflux/graph/graph.h"

#include <algorithm>
#include <utility>

namespace turboflux {

VertexId Graph::AddVertex(LabelSet labels) {
  VertexId id = static_cast<VertexId>(vertex_labels_.size());
  vertex_labels_.push_back(std::move(labels));
  out_adj_.AddList();
  in_adj_.AddList();
  return id;
}

bool Graph::AddEdge(VertexId from, EdgeLabel label, VertexId to) {
  if (!IsValidVertex(from) || !IsValidVertex(to)) return false;
  if (!pair_index_.Add(FlatPairTable::MakeKey(from, to), label)) return false;
  out_adj_.PushBack(from, {to, label});
  in_adj_.PushBack(to, {from, label});
  ++edge_count_;
  return true;
}

bool Graph::RemoveEdge(VertexId from, EdgeLabel label, VertexId to) {
  if (!IsValidVertex(from) || !IsValidVertex(to)) return false;
  if (!pair_index_.Remove(FlatPairTable::MakeKey(from, to), label)) {
    return false;
  }
  // Swap-with-last, exactly the old RemoveAdjEntry semantics (entry order
  // after deletion is observable through Serialize).
  out_adj_.SwapRemove(from, [&](const AdjEntry& e) {
    return e.other == to && e.label == label;
  });
  in_adj_.SwapRemove(to, [&](const AdjEntry& e) {
    return e.other == from && e.label == label;
  });
  --edge_count_;
  return true;
}

bool Graph::HasEdge(VertexId from, EdgeLabel label, VertexId to) const {
  if (!IsValidVertex(from) || !IsValidVertex(to)) return false;
  return pair_index_.Contains(FlatPairTable::MakeKey(from, to), label);
}

namespace {

size_t AdjacencyBytes(const AdjPool<AdjEntry>& adj) {
  size_t bytes = 4 * adj.ListCount();
  for (size_t v = 0; v < adj.ListCount(); ++v) bytes += 8 * adj.Size(v);
  return bytes;
}

char* SerializeAdjacency(const AdjPool<AdjEntry>& adj, char* p) {
  for (size_t v = 0; v < adj.ListCount(); ++v) {
    Span<AdjEntry> entries = adj.View(v);
    p = bin::StoreU32(p, static_cast<uint32_t>(entries.size()));
    for (const AdjEntry& e : entries) {
      p = bin::StoreU32(p, e.other);
      p = bin::StoreU32(p, e.label);
    }
  }
  return p;
}

/// True when `list` holds some (other, label) entry twice. A (from,
/// label, to) triple's repeats can only sit in one list (its source's
/// out-list, its target's in-list), so sorting a copy of each list in one
/// reused `scratch` buffer finds duplicates without a per-edge map.
bool HasDuplicate(Graph::AdjView list, std::vector<AdjEntry>& scratch) {
  if (list.size() < 2) return false;
  scratch.assign(list.begin(), list.end());
  auto less = [](const AdjEntry& a, const AdjEntry& b) {
    return a.other != b.other ? a.other < b.other : a.label < b.label;
  };
  std::sort(scratch.begin(), scratch.end(), less);
  return std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end();
}

}  // namespace

void Graph::Serialize(std::string& out) const {
  // Sized from the same lists the loops below write, then filled in place.
  size_t bytes = 8 + AdjacencyBytes(out_adj_) + AdjacencyBytes(in_adj_);
  for (const LabelSet& ls : vertex_labels_) bytes += 4 + 4 * ls.size();
  const size_t start = out.size();
  out.resize(start + bytes);
  char* p = bin::StoreU64(out.data() + start, vertex_labels_.size());
  for (const LabelSet& ls : vertex_labels_) {
    p = bin::StoreU32(p, static_cast<uint32_t>(ls.size()));
    for (Label l : ls.labels()) p = bin::StoreU32(p, l);
  }
  p = SerializeAdjacency(out_adj_, p);
  SerializeAdjacency(in_adj_, p);
}

Status Graph::Deserialize(bin::Reader& in) {
  *this = Graph();
  uint64_t nv = 0;
  if (!in.GetU64(&nv) || nv >= kNullVertex) {
    return Status::Corruption("graph: bad vertex count");
  }
  vertex_labels_.reserve(nv);
  for (uint64_t v = 0; v < nv; ++v) {
    uint32_t nl = 0;
    if (!in.GetLength(&nl, in.remaining() / 4)) {
      *this = Graph();
      return Status::Corruption("graph: bad label count");
    }
    const char* p = in.Take(size_t{4} * nl);
    if (p == nullptr) {
      *this = Graph();
      return Status::Corruption("graph: truncated vertex labels");
    }
    std::vector<Label> labels(nl);
    for (uint32_t i = 0; i < nl; ++i) labels[i] = bin::LoadU32(p + 4 * i);
    vertex_labels_.emplace_back(std::move(labels));
  }
  // Both adjacency directions are stored verbatim; out-adjacency also
  // rebuilds the (from, to) -> labels index and the edge count.
  auto read_adj = [&](AdjPool<AdjEntry>& adj) -> Status {
    adj.Clear();
    for (uint64_t v = 0; v < nv; ++v) adj.AddList();
    for (uint64_t v = 0; v < nv; ++v) {
      uint32_t deg = 0;
      if (!in.GetLength(&deg, in.remaining() / 8)) {
        return Status::Corruption("graph: bad adjacency length");
      }
      const char* p = in.Take(size_t{8} * deg);
      if (p == nullptr) {
        return Status::Corruption("graph: truncated adjacency entry");
      }
      for (uint32_t i = 0; i < deg; ++i, p += 8) {
        const AdjEntry e{bin::LoadU32(p), bin::LoadU32(p + 4)};
        if (e.other >= nv) {
          return Status::Corruption("graph: adjacency vertex out of range");
        }
        adj.PushBack(v, e);
      }
    }
    return Status::Ok();
  };
  Status s = read_adj(out_adj_);
  if (!s.ok()) {
    *this = Graph();
    return s;
  }
  s = read_adj(in_adj_);
  if (!s.ok()) {
    *this = Graph();
    return s;
  }
  for (VertexId v = 0; v < vertex_labels_.size(); ++v) {
    for (const AdjEntry& e : out_adj_.View(v)) {
      if (!pair_index_.Add(FlatPairTable::MakeKey(v, e.other), e.label)) {
        *this = Graph();
        return Status::Corruption("graph: duplicate edge in out-adjacency");
      }
      ++edge_count_;
    }
  }
  // The build above proves the out-side invariants: lists sized to the
  // vertex count, ids in range, no duplicate out-edge, pair index and
  // edge count equal to the out-adjacency. What is left is that the
  // in-adjacency mirrors it.
  std::string violation = CheckInMirrors();
  if (!violation.empty()) {
    *this = Graph();
    return Status::Corruption("graph: " + violation);
  }
  return Status::Ok();
}

std::string Graph::CheckInMirrors() const {
  // Every in-entry must mirror a distinct out-edge: each one is in the
  // pair index, none repeats, and the totals agree — so an in-list
  // holding one edge twice and another not at all is rejected.
  std::vector<AdjEntry> scratch;
  size_t in_total = 0;
  for (VertexId v = 0; v < in_adj_.ListCount(); ++v) {
    AdjView list = in_adj_.View(v);
    if (HasDuplicate(list, scratch)) return "duplicate in-adjacency entry";
    for (const AdjEntry& e : list) {
      if (!pair_index_.Contains(FlatPairTable::MakeKey(e.other, v),
                                e.label)) {
        return "in-adjacency entry without out mirror";
      }
    }
    in_total += list.size();
  }
  if (in_total != edge_count_) return "in/out adjacency totals differ";
  return "";
}

std::string Graph::CheckConsistency() const {
  if (out_adj_.ListCount() != vertex_labels_.size() ||
      in_adj_.ListCount() != vertex_labels_.size()) {
    return "adjacency/vertex size mismatch";
  }
  std::string pool = out_adj_.CheckConsistency();
  if (pool.empty()) pool = in_adj_.CheckConsistency();
  if (pool.empty()) pool = pair_index_.CheckConsistency();
  if (!pool.empty()) return pool;
  // Every out-entry is probed in the pair index; with no duplicate
  // out-entries, the label count at the end proves the index holds
  // nothing else.
  std::vector<AdjEntry> scratch;
  size_t out_total = 0;
  for (VertexId v = 0; v < out_adj_.ListCount(); ++v) {
    AdjView list = out_adj_.View(v);
    if (HasDuplicate(list, scratch)) return "duplicate (from,label,to) edge";
    for (const AdjEntry& e : list) {
      if (!pair_index_.Contains(FlatPairTable::MakeKey(v, e.other),
                                e.label)) {
        return "out-adjacency edge missing from pair index";
      }
    }
    out_total += list.size();
  }
  if (out_total != edge_count_) return "edge_count_ mismatch";
  std::string in_violation = CheckInMirrors();
  if (!in_violation.empty()) return in_violation;
  size_t indexed = 0;
  std::string index_violation;
  pair_index_.ForEach([&](uint64_t key, FlatPairTable::LabelView labels) {
    if (!index_violation.empty()) return;
    if (FlatPairTable::KeyFrom(key) >= out_adj_.ListCount() ||
        FlatPairTable::KeyTo(key) >= out_adj_.ListCount()) {
      index_violation = "pair index key out of range";
      return;
    }
    if (labels.empty()) {
      index_violation = "empty label list in pair index";
      return;
    }
    indexed += labels.size();
  });
  if (!index_violation.empty()) return index_violation;
  if (indexed != out_total) return "pair index size mismatch";
  return "";
}

}  // namespace turboflux
