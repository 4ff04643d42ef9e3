#include "turboflux/graph/graph.h"

#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"

namespace turboflux {
namespace {

Graph ThreeVertexGraph() {
  Graph g;
  g.AddVertex(LabelSet{0});
  g.AddVertex(LabelSet{1});
  g.AddVertex(LabelSet{0, 2});
  return g;
}

TEST(Graph, AddVertexAssignsDenseIds) {
  Graph g;
  EXPECT_EQ(g.AddVertex(LabelSet{0}), 0u);
  EXPECT_EQ(g.AddVertex(LabelSet{1}), 1u);
  EXPECT_EQ(g.VertexCount(), 2u);
  EXPECT_EQ(g.labels(1), LabelSet{1});
}

TEST(Graph, AddEdgeAndProbe) {
  Graph g = ThreeVertexGraph();
  EXPECT_TRUE(g.AddEdge(0, 5, 1));
  EXPECT_TRUE(g.HasEdge(0, 5, 1));
  EXPECT_FALSE(g.HasEdge(1, 5, 0));  // directed
  EXPECT_FALSE(g.HasEdge(0, 6, 1));  // label matters
  EXPECT_EQ(g.EdgeCount(), 1u);
}

TEST(Graph, DuplicateEdgeRejected) {
  Graph g = ThreeVertexGraph();
  EXPECT_TRUE(g.AddEdge(0, 5, 1));
  EXPECT_FALSE(g.AddEdge(0, 5, 1));
  EXPECT_EQ(g.EdgeCount(), 1u);
}

TEST(Graph, ParallelEdgesWithDistinctLabels) {
  Graph g = ThreeVertexGraph();
  EXPECT_TRUE(g.AddEdge(0, 1, 1));
  EXPECT_TRUE(g.AddEdge(0, 2, 1));
  EXPECT_EQ(g.EdgeCount(), 2u);
  EXPECT_EQ(g.EdgeLabelsBetween(0, 1).size(), 2u);
}

TEST(Graph, InvalidVertexRejected) {
  Graph g = ThreeVertexGraph();
  EXPECT_FALSE(g.AddEdge(0, 1, 99));
  EXPECT_FALSE(g.AddEdge(99, 1, 0));
  EXPECT_FALSE(g.HasEdge(99, 1, 0));
  EXPECT_EQ(g.EdgeCount(), 0u);
}

TEST(Graph, SelfLoop) {
  Graph g = ThreeVertexGraph();
  EXPECT_TRUE(g.AddEdge(1, 3, 1));
  EXPECT_TRUE(g.HasEdge(1, 3, 1));
  EXPECT_EQ(g.OutDegree(1), 1u);
  EXPECT_EQ(g.InDegree(1), 1u);
}

TEST(Graph, RemoveEdge) {
  Graph g = ThreeVertexGraph();
  g.AddEdge(0, 5, 1);
  g.AddEdge(0, 5, 2);
  EXPECT_TRUE(g.RemoveEdge(0, 5, 1));
  EXPECT_FALSE(g.HasEdge(0, 5, 1));
  EXPECT_TRUE(g.HasEdge(0, 5, 2));
  EXPECT_EQ(g.EdgeCount(), 1u);
  EXPECT_FALSE(g.RemoveEdge(0, 5, 1));  // already gone
}

TEST(Graph, RemoveNonexistentEdgeIsNoop) {
  Graph g = ThreeVertexGraph();
  EXPECT_FALSE(g.RemoveEdge(0, 5, 1));
  EXPECT_EQ(g.EdgeCount(), 0u);
}

TEST(Graph, AdjacencyMirrors) {
  Graph g = ThreeVertexGraph();
  g.AddEdge(0, 5, 1);
  g.AddEdge(2, 5, 1);
  ASSERT_EQ(g.OutEdges(0).size(), 1u);
  EXPECT_EQ(g.OutEdges(0)[0].other, 1u);
  EXPECT_EQ(g.OutEdges(0)[0].label, 5u);
  ASSERT_EQ(g.InEdges(1).size(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.InDegree(0), 0u);
}

TEST(Graph, RemovePreservesOtherAdjacency) {
  Graph g = ThreeVertexGraph();
  g.AddEdge(0, 1, 1);
  g.AddEdge(0, 2, 1);
  g.AddEdge(0, 1, 2);
  g.RemoveEdge(0, 1, 1);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_TRUE(g.HasEdge(0, 2, 1));
  EXPECT_TRUE(g.HasEdge(0, 1, 2));
}

TEST(Graph, ReinsertAfterRemove) {
  Graph g = ThreeVertexGraph();
  g.AddEdge(0, 1, 1);
  g.RemoveEdge(0, 1, 1);
  EXPECT_TRUE(g.AddEdge(0, 1, 1));
  EXPECT_TRUE(g.HasEdge(0, 1, 1));
}

TEST(Graph, CopyIsIndependent) {
  Graph g = ThreeVertexGraph();
  g.AddEdge(0, 1, 1);
  Graph copy = g;
  copy.RemoveEdge(0, 1, 1);
  copy.AddEdge(1, 2, 2);
  EXPECT_TRUE(g.HasEdge(0, 1, 1));
  EXPECT_FALSE(g.HasEdge(1, 2, 2));
}

TEST(Graph, EdgeLabelsBetweenEmptyForNoPair) {
  Graph g = ThreeVertexGraph();
  EXPECT_TRUE(g.EdgeLabelsBetween(0, 1).empty());
}

TEST(Graph, DanglingDeleteLeavesGraphConsistent) {
  Graph g = ThreeVertexGraph();
  g.AddEdge(0, 1, 1);
  // Absent label, absent pair, reversed direction, self-loop: all no-ops.
  EXPECT_FALSE(g.RemoveEdge(0, 2, 1));
  EXPECT_FALSE(g.RemoveEdge(1, 1, 2));
  EXPECT_FALSE(g.RemoveEdge(1, 1, 0));
  EXPECT_FALSE(g.RemoveEdge(0, 1, 0));
  EXPECT_TRUE(g.HasEdge(0, 1, 1));
  EXPECT_EQ(g.EdgeCount(), 1u);
  EXPECT_TRUE(g.CheckConsistency().empty());
  // Deleting the real edge still works afterwards.
  EXPECT_TRUE(g.RemoveEdge(0, 1, 1));
  EXPECT_TRUE(g.CheckConsistency().empty());
}

TEST(Graph, SerializeRoundTripPreservesAdjacencyOrder) {
  Graph g = ThreeVertexGraph();
  g.AddEdge(0, 1, 1);
  g.AddEdge(0, 2, 2);
  g.AddEdge(1, 3, 2);
  g.AddEdge(2, 1, 0);
  // Force swap-removal so adjacency order diverges from insertion order —
  // the part of the state a naive re-insert-based encoding would lose.
  g.RemoveEdge(0, 1, 1);
  g.AddEdge(0, 1, 1);

  std::string bytes;
  g.Serialize(bytes);
  bin::Reader r{std::string_view(bytes)};
  Graph back;
  Status st = back.Deserialize(r);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(back.CheckConsistency().empty());
  ASSERT_EQ(back.VertexCount(), g.VertexCount());
  ASSERT_EQ(back.EdgeCount(), g.EdgeCount());
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    EXPECT_EQ(back.labels(v).labels(), g.labels(v).labels()) << "vertex " << v;
    EXPECT_EQ(back.OutEdges(v), g.OutEdges(v)) << "vertex " << v;
    EXPECT_EQ(back.InEdges(v), g.InEdges(v)) << "vertex " << v;
  }
  // Same bytes again: the encoding is deterministic.
  std::string bytes2;
  back.Serialize(bytes2);
  EXPECT_EQ(bytes2, bytes);
}

TEST(Graph, DeserializeRejectsCorruptBytes) {
  Graph g = ThreeVertexGraph();
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 2);
  std::string bytes;
  g.Serialize(bytes);
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::string bad = bytes;
    bad[off] = static_cast<char>(bad[off] ^ 0x20);
    bin::Reader r{std::string_view(bad)};
    Graph back;
    Status st = back.Deserialize(r);
    if (!st.ok()) {
      // Failure must leave the graph empty, not half-built.
      EXPECT_EQ(back.VertexCount(), 0u) << "offset " << off;
    } else {
      // Graph::Deserialize has no checksum of its own (the checkpoint
      // section CRC provides that); a flip that happens to decode must
      // still yield a self-consistent graph.
      EXPECT_TRUE(back.CheckConsistency().empty()) << "offset " << off;
    }
  }
}

// Hand-built Graph::Serialize bytes: `nv` unlabeled vertices, then the
// out-lists and in-lists verbatim as (other, label) pairs — so a test can
// state adjacency that no sequence of AddEdge calls produces.
using AdjLists = std::vector<std::vector<AdjEntry>>;

std::string EncodeGraph(uint32_t nv, const AdjLists& out,
                        const AdjLists& in) {
  std::string bytes;
  bin::PutU64(bytes, nv);
  for (uint32_t v = 0; v < nv; ++v) bin::PutU32(bytes, 0);
  for (const AdjLists* lists : {&out, &in}) {
    for (uint32_t v = 0; v < nv; ++v) {
      bin::PutU32(bytes, static_cast<uint32_t>((*lists)[v].size()));
      for (const AdjEntry& e : (*lists)[v]) {
        bin::PutU32(bytes, e.other);
        bin::PutU32(bytes, e.label);
      }
    }
  }
  return bytes;
}

Status DecodeGraph(const std::string& bytes, Graph* g) {
  bin::Reader r{std::string_view(bytes)};
  return g->Deserialize(r);
}

TEST(Graph, DeserializeAcceptsHandBuiltMirroredAdjacency) {
  // Edges (0,1,1) and (2,1,1): the baseline the rejection cases bend.
  Graph g;
  Status st = DecodeGraph(
      EncodeGraph(3, {{{1, 1}}, {}, {{1, 1}}}, {{}, {{0, 1}, {2, 1}}, {}}),
      &g);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(g.EdgeCount(), 2u);
  EXPECT_TRUE(g.HasEdge(2, 1, 1));
  EXPECT_TRUE(g.CheckConsistency().empty());
}

TEST(Graph, DeserializeRejectsInconsistentAdjacency) {
  struct Case {
    const char* what;
    AdjLists out;
    AdjLists in;
  };
  const Case cases[] = {
      // Equal totals, but vertex 1's in-list holds (0,1,1) twice and
      // (2,1,1) not at all.
      {"in-list with one edge twice and one missing",
       {{{1, 1}}, {}, {{1, 1}}},
       {{}, {{0, 1}, {0, 1}}, {}}},
      {"duplicate out-entry",
       {{{1, 1}, {1, 1}}, {}, {}},
       {{}, {{0, 1}, {0, 1}}, {}}},
      // The in-list is a consistent mirror of the edge; only the pair-index
      // build sees the repeat.
      {"duplicate out-entry, single in-entry",
       {{{1, 1}, {1, 1}}, {}, {}},
       {{}, {{0, 1}}, {}}},
      {"in-entry missing", {{{1, 1}}, {}, {}}, {{}, {}, {}}},
      // Equal totals; the in-entry sits at vertex 2, where no edge ends.
      {"in-entry with no out mirror", {{{1, 1}}, {}, {}}, {{}, {}, {{0, 1}}}},
      {"label flipped in the in-list only",
       {{{1, 1}}, {}, {}},
       {{}, {{0, 2}}, {}}},
      {"label flipped in the out-list only",
       {{{1, 2}}, {}, {}},
       {{}, {{0, 1}}, {}}},
  };
  for (const Case& c : cases) {
    Graph g;
    Status st = DecodeGraph(EncodeGraph(3, c.out, c.in), &g);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << c.what;
    EXPECT_EQ(g.VertexCount(), 0u) << c.what;
  }
}

}  // namespace
}  // namespace turboflux
