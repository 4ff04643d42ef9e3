#include "turboflux/core/dcg.h"

#include <algorithm>
#include <cassert>

namespace turboflux {

namespace {
const std::vector<Dcg::InEdge> kNoInEdges;
const std::vector<Dcg::OutEdge> kNoOutEdges;
}  // namespace

char DcgStateChar(DcgState s) {
  switch (s) {
    case DcgState::kNull:
      return 'N';
    case DcgState::kImplicit:
      return 'I';
    case DcgState::kExplicit:
      return 'E';
  }
  return '?';
}

void Dcg::Reset(size_t num_data_vertices, const QueryTree& tree) {
  tree_ = &tree;
  num_qv_ = tree.VertexCount();
  slot_of_.assign(num_data_vertices, kNoSlot);
  pool_.clear();
  vertex_of_slot_.clear();
  edge_count_ = 0;
  explicit_count_ = 0;
  explicit_per_qv_.assign(num_qv_, 0);
}

uint32_t Dcg::EnsureSlot(VertexId v) {
  assert(v < slot_of_.size());
  if (slot_of_[v] == kNoSlot) {
    slot_of_[v] = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back(num_qv_);
    vertex_of_slot_.push_back(v);
  }
  return slot_of_[v];
}

std::vector<VertexId> Dcg::PopulatedIds() const {
  std::vector<VertexId> ids = vertex_of_slot_;
  std::sort(ids.begin(), ids.end());
  return ids;
}

DcgState Dcg::GetState(VertexId from, QVertexId u, VertexId to) const {
  const Node* node = GetNode(to);
  if (node == nullptr) return DcgState::kNull;
  for (const InEdge& e : node->in[u]) {
    if (e.from == from) return e.state;
  }
  return DcgState::kNull;
}

const std::vector<Dcg::InEdge>& Dcg::InEdgesOf(VertexId v, QVertexId u) const {
  const Node* node = GetNode(v);
  return node == nullptr ? kNoInEdges : node->in[u];
}

const std::vector<Dcg::OutEdge>& Dcg::OutEdgesOf(VertexId v,
                                                 QVertexId u) const {
  const Node* node = GetNode(v);
  return node == nullptr ? kNoOutEdges : node->out[u];
}

size_t Dcg::ExplicitOutCount(VertexId v, QVertexId u) const {
  const Node* node = GetNode(v);
  return node == nullptr ? 0 : node->explicit_out[u];
}

bool Dcg::HasInEdge(VertexId v, QVertexId u) const {
  const Node* node = GetNode(v);
  return node != nullptr && (node->in_bits >> u) & 1;
}

bool Dcg::MatchAllChildren(VertexId v, QVertexId u) const {
  uint64_t mask = tree_->ChildrenMask(u);
  if (mask == 0) return true;  // u is a leaf of the query tree
  const Node* node = GetNode(v);
  if (node == nullptr) return false;
  return (node->explicit_out_bits & mask) == mask;
}

void Dcg::SetState(VertexId from, QVertexId u, VertexId to, DcgState next) {
  const uint32_t to_slot = EnsureSlot(to);
  // Look up the edge by index, not reference: EnsureSlot(from) below can
  // grow the pool and move every Node, which would dangle a held
  // reference to to's in-list (the vector object moves with its Node).
  size_t in_idx;
  DcgState prev = DcgState::kNull;
  {
    const std::vector<InEdge>& in = pool_[to_slot].in[u];
    in_idx = in.size();
    for (size_t i = 0; i < in.size(); ++i) {
      if (in[i].from == from) {
        in_idx = i;
        prev = in[i].state;
        break;
      }
    }
  }
  if (prev == next) {
    assert(prev == DcgState::kNull);  // only NULL->NULL is an idempotent call
    return;
  }
  // Legal transitions (Figure 5): 1: N->I, 2: I->E, 3: E->N, 4: E->I,
  // 5: I->N.
  assert(prev != DcgState::kNull || next == DcgState::kImplicit);

  if (stats_ != nullptr) {
    stats_->transitions.Inc();
    if (prev == DcgState::kNull) {
      stats_->null_to_implicit.Inc();
    } else if (prev == DcgState::kImplicit) {
      (next == DcgState::kExplicit ? stats_->implicit_to_explicit
                                   : stats_->implicit_to_null)
          .Inc();
    } else {
      (next == DcgState::kImplicit ? stats_->explicit_to_implicit
                                   : stats_->explicit_to_null)
          .Inc();
    }
  }

  const bool has_out_mirror = from != kArtificialVertex;
  // Ensure the mirror's slot BEFORE taking any Node reference: this is
  // the only call left that can grow the pool and move nodes. It stays
  // behind the early NULL->NULL return above — a no-op call must not
  // newly populate `from`'s node (the populated set is serialized).
  const uint32_t from_slot = has_out_mirror ? EnsureSlot(from) : kNoSlot;
  Node& to_node = pool_[to_slot];
  std::vector<InEdge>& in = to_node.in[u];

  // Maintain the in-list.
  if (prev == DcgState::kNull) {
    in.push_back({from, next});
    to_node.in_bits |= (uint64_t{1} << u);
    ++edge_count_;
  } else if (next == DcgState::kNull) {
    in[in_idx] = in.back();
    in.pop_back();
    if (in.empty()) to_node.in_bits &= ~(uint64_t{1} << u);
    --edge_count_;
  } else {
    in[in_idx].state = next;
  }

  // Maintain the out-mirror.
  if (has_out_mirror) {
    Node& from_node = pool_[from_slot];
    std::vector<OutEdge>& out = from_node.out[u];
    if (prev == DcgState::kNull) {
      out.push_back({to, next});
    } else {
      auto out_it =
          std::find_if(out.begin(), out.end(),
                       [&](const OutEdge& e) { return e.to == to; });
      assert(out_it != out.end());
      if (next == DcgState::kNull) {
        *out_it = out.back();
        out.pop_back();
      } else {
        out_it->state = next;
      }
    }
    // Maintain explicit-out counters and the MatchAllChildren bitmap.
    if (next == DcgState::kExplicit) {
      if (++from_node.explicit_out[u] == 1) {
        from_node.explicit_out_bits |= (uint64_t{1} << u);
      }
    } else if (prev == DcgState::kExplicit) {
      assert(from_node.explicit_out[u] > 0);
      if (--from_node.explicit_out[u] == 0) {
        from_node.explicit_out_bits &= ~(uint64_t{1} << u);
      }
    }
  }

  // Maintain global explicit counters (artificial edges included).
  if (next == DcgState::kExplicit) {
    ++explicit_count_;
    ++explicit_per_qv_[u];
  } else if (prev == DcgState::kExplicit) {
    --explicit_count_;
    --explicit_per_qv_[u];
  }
}

void Dcg::Serialize(std::string& out) const {
  // Upper bound on the encoded size, so the appends never reallocate:
  // header, per populated node its id and two list lengths per query
  // vertex, and 5 bytes per in- or out-entry (edge_count_ counts
  // in-entries; out-entries are at most as many, since artificial-root
  // in-edges have no out mirror).
  out.reserve(out.size() + 20 + pool_.size() * (4 + 8 * num_qv_) +
              10 * edge_count_);
  bin::PutU64(out, slot_of_.size());
  bin::PutU32(out, static_cast<uint32_t>(num_qv_));
  bin::PutU64(out, pool_.size());
  // Iteration is by vertex id, not slot order, so the bytes are
  // independent of pool allocation order.
  for (VertexId v : PopulatedIds()) {
    const Node* node = GetNode(v);
    bin::PutU32(out, v);
    for (QVertexId u = 0; u < num_qv_; ++u) {
      bin::PutU32(out, static_cast<uint32_t>(node->in[u].size()));
      for (const InEdge& e : node->in[u]) {
        bin::PutU32(out, e.from);
        bin::PutU8(out, static_cast<uint8_t>(e.state));
      }
      bin::PutU32(out, static_cast<uint32_t>(node->out[u].size()));
      for (const OutEdge& e : node->out[u]) {
        bin::PutU32(out, e.to);
        bin::PutU8(out, static_cast<uint8_t>(e.state));
      }
    }
  }
}

Status Dcg::Deserialize(bin::Reader& in, size_t num_data_vertices,
                        const QueryTree& tree) {
  Reset(num_data_vertices, tree);
  auto fail = [this](const std::string& what) {
    slot_of_.clear();
    pool_.clear();
    vertex_of_slot_.clear();
    edge_count_ = 0;
    explicit_count_ = 0;
    explicit_per_qv_.assign(num_qv_, 0);
    return Status::Corruption("dcg: " + what);
  };
  uint64_t nv = 0;
  uint32_t nq = 0;
  uint64_t populated = 0;
  if (!in.GetU64(&nv) || !in.GetU32(&nq) || !in.GetU64(&populated)) {
    return fail("truncated header");
  }
  if (nv != num_data_vertices || nq != num_qv_ || populated > nv) {
    return fail("header disagrees with bound universe");
  }
  auto decode_state = [](uint8_t raw, DcgState* out_state) {
    if (raw != static_cast<uint8_t>(DcgState::kImplicit) &&
        raw != static_cast<uint8_t>(DcgState::kExplicit)) {
      return false;  // stored edges are never NULL
    }
    *out_state = static_cast<DcgState>(raw);
    return true;
  };
  for (uint64_t i = 0; i < populated; ++i) {
    uint32_t v = 0;
    if (!in.GetU32(&v) || v >= slot_of_.size()) return fail("bad node id");
    if (slot_of_[v] != kNoSlot) return fail("duplicate node");
    // Safe to hold across the body: EnsureSlot is not called again until
    // the next loop iteration re-takes the reference.
    Node& node = pool_[EnsureSlot(v)];
    for (QVertexId u = 0; u < num_qv_; ++u) {
      uint32_t n_in = 0;
      if (!in.GetLength(&n_in, in.remaining() / 5)) {
        return fail("bad in-list length");
      }
      const char* p = in.Take(size_t{5} * n_in);
      if (p == nullptr) return fail("bad in-list length");
      node.in[u].resize(n_in);
      for (uint32_t k = 0; k < n_in; ++k, p += 5) {
        InEdge& e = node.in[u][k];
        e.from = bin::LoadU32(p);
        if (!decode_state(static_cast<uint8_t>(p[4]), &e.state)) {
          return fail("bad in edge");
        }
        if (e.from != kArtificialVertex && e.from >= slot_of_.size()) {
          return fail("in edge source out of range");
        }
        ++edge_count_;
        if (e.state == DcgState::kExplicit) {
          ++explicit_count_;
          ++explicit_per_qv_[u];
        }
      }
      if (n_in > 0) node.in_bits |= (uint64_t{1} << u);
      uint32_t n_out = 0;
      if (!in.GetLength(&n_out, in.remaining() / 5)) {
        return fail("bad out-list length");
      }
      p = in.Take(size_t{5} * n_out);
      if (p == nullptr) return fail("bad out-list length");
      node.out[u].resize(n_out);
      for (uint32_t k = 0; k < n_out; ++k, p += 5) {
        OutEdge& e = node.out[u][k];
        e.to = bin::LoadU32(p);
        if (!decode_state(static_cast<uint8_t>(p[4]), &e.state)) {
          return fail("bad out edge");
        }
        if (e.to >= slot_of_.size()) {
          return fail("out edge target out of range");
        }
        if (e.state == DcgState::kExplicit) {
          if (++node.explicit_out[u] == 1) {
            node.explicit_out_bits |= (uint64_t{1} << u);
          }
        }
      }
    }
  }
  // The decoded lists must form a mutually consistent DCG (in/out mirrors
  // agree edge-for-edge); Validate also recounts every counter.
  std::string violation = Validate();
  if (!violation.empty()) return fail(violation);
  return Status::Ok();
}

std::vector<Dcg::EdgeTuple> Dcg::Snapshot() const {
  std::vector<EdgeTuple> edges;
  edges.reserve(edge_count_);
  for (VertexId v : PopulatedIds()) {
    const Node* node = GetNode(v);
    for (QVertexId u = 0; u < num_qv_; ++u) {
      for (const InEdge& e : node->in[u]) {
        edges.emplace_back(e.from, u, v, e.state);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::string Dcg::Validate() const {
  auto describe = [](VertexId from, QVertexId u, VertexId to) {
    std::string s = "edge (";
    if (from == kArtificialVertex) {
      s += "v*";
    } else {
      s += "v";
      s += std::to_string(from);
    }
    s += ",u";
    s += std::to_string(u);
    s += ",v";
    s += std::to_string(to);
    s += ")";
    return s;
  };

  size_t edges = 0;
  size_t explicit_edges = 0;
  std::vector<uint64_t> explicit_per_qv(num_qv_, 0);

  for (VertexId v : PopulatedIds()) {
    const Node* node = GetNode(v);
    for (QVertexId u = 0; u < num_qv_; ++u) {
      // in_bits bit u <=> in[u] non-empty.
      bool bit = (node->in_bits >> u) & 1;
      if (bit != !node->in[u].empty()) {
        {
          std::string msg = "in_bits bit ";
          msg += std::to_string(u);
          msg += " wrong at v";
          msg += std::to_string(v);
          return msg;
        }
      }
      for (const InEdge& e : node->in[u]) {
        if (e.state == DcgState::kNull) {
          return describe(e.from, u, v) + " stored with NULL state";
        }
        ++edges;
        if (e.state == DcgState::kExplicit) {
          ++explicit_edges;
          ++explicit_per_qv[u];
        }
        // The out mirror must hold the same edge with the same state.
        if (e.from != kArtificialVertex) {
          const Node* from_node = GetNode(e.from);
          if (from_node == nullptr) {
            return describe(e.from, u, v) + " missing source node";
          }
          bool found = false;
          for (const OutEdge& o : from_node->out[u]) {
            if (o.to == v) {
              if (o.state != e.state) {
                return describe(e.from, u, v) + " state mismatch in mirror";
              }
              found = true;
              break;
            }
          }
          if (!found) return describe(e.from, u, v) + " missing out mirror";
        }
      }
      // Explicit-out counter and bitmap.
      uint32_t explicit_out = 0;
      for (const OutEdge& o : node->out[u]) {
        // Every out edge must have an in mirror.
        const Node* to_node = GetNode(o.to);
        bool found = false;
        if (to_node != nullptr) {
          for (const InEdge& e : to_node->in[u]) {
            if (e.from == v) {
              found = e.state == o.state;
              break;
            }
          }
        }
        if (!found) return describe(v, u, o.to) + " missing in mirror";
        if (o.state == DcgState::kExplicit) ++explicit_out;
      }
      if (node->explicit_out[u] != explicit_out) {
        std::string msg = "explicit_out count wrong at v";
        msg += std::to_string(v);
        msg += " u";
        msg += std::to_string(u);
        return msg;
      }
      bool ebit = (node->explicit_out_bits >> u) & 1;
      if (ebit != (explicit_out > 0)) {
        std::string msg = "explicit_out_bits wrong at v";
        msg += std::to_string(v);
        msg += " u";
        msg += std::to_string(u);
        return msg;
      }
    }
  }
  if (edges != edge_count_) return "edge_count_ mismatch";
  if (explicit_edges != explicit_count_) return "explicit_count_ mismatch";
  for (QVertexId u = 0; u < num_qv_; ++u) {
    if (explicit_per_qv[u] != explicit_per_qv_[u]) {
      std::string msg = "explicit_per_qv_ mismatch at u";
      msg += std::to_string(u);
      return msg;
    }
  }
  return "";
}

std::string Dcg::ToString() const {
  std::string out;
  for (const EdgeTuple& e : Snapshot()) {
    VertexId from = std::get<0>(e);
    out += "(";
    if (from == kArtificialVertex) {
      out += "v*";
    } else {
      out += "v";
      out += std::to_string(from);
    }
    out += ",u";
    out += std::to_string(std::get<1>(e));
    out += ",v";
    out += std::to_string(std::get<2>(e));
    out += ")=";
    out += DcgStateChar(std::get<3>(e));
    out += " ";
  }
  return out;
}

}  // namespace turboflux
