#include "turboflux/core/dcg.h"

#include "gtest/gtest.h"
#include "turboflux/query/query_stats.h"

namespace turboflux {
namespace {

// Query path u0 -0-> u1 -1-> u2 used for most DCG unit tests.
struct PathFixture {
  QueryGraph q;
  QueryTree tree;

  PathFixture() {
    QVertexId u0 = q.AddVertex(LabelSet{0});
    QVertexId u1 = q.AddVertex(LabelSet{1});
    QVertexId u2 = q.AddVertex(LabelSet{2});
    q.AddEdge(u0, 0, u1);
    q.AddEdge(u1, 1, u2);
    QueryStats stats;
    stats.edge_matches.assign(q.EdgeCount(), 1);
    stats.vertex_matches.assign(q.VertexCount(), 1);
    tree = QueryTree::Build(q, u0, stats);
  }
};

TEST(Dcg, EmptyAfterReset) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  EXPECT_EQ(dcg.EdgeCount(), 0u);
  EXPECT_EQ(dcg.ExplicitEdgeCount(), 0u);
  EXPECT_EQ(dcg.GetState(0, 1, 2), DcgState::kNull);
  EXPECT_FALSE(dcg.HasInEdge(2, 1));
  EXPECT_TRUE(dcg.Snapshot().empty());
}

TEST(Dcg, InsertImplicitEdge) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(0, 1, 2, DcgState::kImplicit);
  EXPECT_EQ(dcg.GetState(0, 1, 2), DcgState::kImplicit);
  EXPECT_EQ(dcg.EdgeCount(), 1u);
  EXPECT_EQ(dcg.ExplicitEdgeCount(), 0u);
  EXPECT_TRUE(dcg.HasInEdge(2, 1));
  EXPECT_EQ(dcg.InCount(2, 1), 1u);
  EXPECT_EQ(dcg.ExplicitOutCount(0, 1), 0u);
  ASSERT_EQ(dcg.OutEdgesOf(0, 1).size(), 1u);
  EXPECT_EQ(dcg.OutEdgesOf(0, 1)[0].to, 2u);
}

TEST(Dcg, PromoteToExplicit) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(0, 1, 2, DcgState::kImplicit);
  dcg.SetState(0, 1, 2, DcgState::kExplicit);
  EXPECT_EQ(dcg.GetState(0, 1, 2), DcgState::kExplicit);
  EXPECT_EQ(dcg.ExplicitEdgeCount(), 1u);
  EXPECT_EQ(dcg.ExplicitOutCount(0, 1), 1u);
  EXPECT_EQ(dcg.ExplicitCountFor(1), 1u);
  // The in/out mirrors must agree.
  EXPECT_EQ(dcg.InEdgesOf(2, 1)[0].state, DcgState::kExplicit);
  EXPECT_EQ(dcg.OutEdgesOf(0, 1)[0].state, DcgState::kExplicit);
}

TEST(Dcg, DemoteToImplicit) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(0, 1, 2, DcgState::kImplicit);
  dcg.SetState(0, 1, 2, DcgState::kExplicit);
  dcg.SetState(0, 1, 2, DcgState::kImplicit);  // Transition 4
  EXPECT_EQ(dcg.GetState(0, 1, 2), DcgState::kImplicit);
  EXPECT_EQ(dcg.ExplicitEdgeCount(), 0u);
  EXPECT_EQ(dcg.ExplicitOutCount(0, 1), 0u);
  EXPECT_EQ(dcg.EdgeCount(), 1u);
}

TEST(Dcg, RemoveEdge) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(0, 1, 2, DcgState::kImplicit);
  dcg.SetState(0, 1, 2, DcgState::kExplicit);
  dcg.SetState(0, 1, 2, DcgState::kNull);  // Transition 3
  EXPECT_EQ(dcg.GetState(0, 1, 2), DcgState::kNull);
  EXPECT_EQ(dcg.EdgeCount(), 0u);
  EXPECT_EQ(dcg.ExplicitEdgeCount(), 0u);
  EXPECT_FALSE(dcg.HasInEdge(2, 1));
  EXPECT_TRUE(dcg.OutEdgesOf(0, 1).empty());
}

TEST(Dcg, RemovingAbsentEdgeIsNoop) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(0, 1, 2, DcgState::kNull);
  EXPECT_EQ(dcg.EdgeCount(), 0u);
}

TEST(Dcg, MultipleParentsSameChild) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(0, 1, 2, DcgState::kImplicit);
  dcg.SetState(1, 1, 2, DcgState::kImplicit);
  EXPECT_EQ(dcg.InCount(2, 1), 2u);
  dcg.SetState(0, 1, 2, DcgState::kNull);
  EXPECT_EQ(dcg.InCount(2, 1), 1u);
  EXPECT_TRUE(dcg.HasInEdge(2, 1));  // (1,1,2) remains
  EXPECT_EQ(dcg.GetState(1, 1, 2), DcgState::kImplicit);
}

TEST(Dcg, ArtificialVertexEdges) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(kArtificialVertex, 0, 3, DcgState::kImplicit);
  EXPECT_EQ(dcg.GetState(kArtificialVertex, 0, 3), DcgState::kImplicit);
  EXPECT_TRUE(dcg.HasInEdge(3, 0));
  EXPECT_EQ(dcg.EdgeCount(), 1u);
  dcg.SetState(kArtificialVertex, 0, 3, DcgState::kExplicit);
  EXPECT_EQ(dcg.ExplicitCountFor(0), 1u);
  dcg.SetState(kArtificialVertex, 0, 3, DcgState::kNull);
  EXPECT_EQ(dcg.EdgeCount(), 0u);
}

TEST(Dcg, MatchAllChildrenViaBitmap) {
  PathFixture f;
  // Tree: u0 -> u1 -> u2. u2 is a leaf, u1 has one child (u2).
  Dcg dcg;
  dcg.Reset(5, f.tree);
  EXPECT_TRUE(dcg.MatchAllChildren(4, 2));   // leaf: vacuously true
  EXPECT_FALSE(dcg.MatchAllChildren(2, 1));  // no explicit out yet
  dcg.SetState(2, 2, 3, DcgState::kImplicit);
  EXPECT_FALSE(dcg.MatchAllChildren(2, 1));  // implicit does not count
  dcg.SetState(2, 2, 3, DcgState::kExplicit);
  EXPECT_TRUE(dcg.MatchAllChildren(2, 1));
  dcg.SetState(2, 2, 3, DcgState::kImplicit);
  EXPECT_FALSE(dcg.MatchAllChildren(2, 1));
}

TEST(Dcg, SelfLoopDataEdge) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(2, 1, 2, DcgState::kImplicit);  // (v2, u1, v2)
  EXPECT_EQ(dcg.GetState(2, 1, 2), DcgState::kImplicit);
  EXPECT_EQ(dcg.InCount(2, 1), 1u);
  EXPECT_EQ(dcg.OutEdgesOf(2, 1).size(), 1u);
  dcg.SetState(2, 1, 2, DcgState::kExplicit);
  EXPECT_EQ(dcg.ExplicitOutCount(2, 1), 1u);
  dcg.SetState(2, 1, 2, DcgState::kNull);
  EXPECT_EQ(dcg.EdgeCount(), 0u);
  EXPECT_TRUE(dcg.OutEdgesOf(2, 1).empty());
}

TEST(Dcg, SnapshotSortedAndComplete) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(1, 1, 2, DcgState::kImplicit);
  dcg.SetState(0, 1, 2, DcgState::kImplicit);
  dcg.SetState(0, 1, 2, DcgState::kExplicit);
  dcg.SetState(2, 2, 4, DcgState::kImplicit);
  auto snap = dcg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0],
            Dcg::EdgeTuple(0, 1, 2, DcgState::kExplicit));
  EXPECT_EQ(snap[1],
            Dcg::EdgeTuple(1, 1, 2, DcgState::kImplicit));
  EXPECT_EQ(snap[2],
            Dcg::EdgeTuple(2, 2, 4, DcgState::kImplicit));
}

TEST(Dcg, SerializeOrdersNodesByVertexId) {
  // The same edges populated in opposite orders allocate node slots in
  // opposite orders; the bytes list nodes by vertex id either way.
  PathFixture f;
  Dcg forward;
  forward.Reset(5, f.tree);
  forward.SetState(0, 1, 2, DcgState::kImplicit);
  forward.SetState(3, 1, 4, DcgState::kExplicit);
  Dcg backward;
  backward.Reset(5, f.tree);
  backward.SetState(3, 1, 4, DcgState::kExplicit);
  backward.SetState(0, 1, 2, DcgState::kImplicit);
  std::string a, b;
  forward.Serialize(a);
  backward.Serialize(b);
  EXPECT_EQ(a, b);
}

TEST(Dcg, PerQueryVertexExplicitCounters) {
  PathFixture f;
  Dcg dcg;
  dcg.Reset(5, f.tree);
  dcg.SetState(0, 1, 2, DcgState::kImplicit);
  dcg.SetState(0, 1, 2, DcgState::kExplicit);
  dcg.SetState(2, 2, 3, DcgState::kImplicit);
  dcg.SetState(2, 2, 3, DcgState::kExplicit);
  dcg.SetState(2, 2, 4, DcgState::kImplicit);
  dcg.SetState(2, 2, 4, DcgState::kExplicit);
  EXPECT_EQ(dcg.ExplicitCountFor(1), 1u);
  EXPECT_EQ(dcg.ExplicitCountFor(2), 2u);
  dcg.SetState(2, 2, 4, DcgState::kNull);
  EXPECT_EQ(dcg.ExplicitCountFor(2), 1u);
}

}  // namespace
}  // namespace turboflux
