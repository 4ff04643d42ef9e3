// Differential safety net for the two ways a stream reaches TurboFlux
// other than one ApplyUpdate at a time, both checked against the
// sequential engine for every (threads, batch) combination:
//
//  * TurboFluxEngine::ApplyBatch over windows of `batch` ops must leave the
//    same DCG after every window and report the same match records in the
//    same order;
//  * a multi::QuerySet holding kCopies separate runtimes of the query,
//    evaluated on `threads` workers (the only parallel evaluation in the
//    system) and fed the same windows, must report exactly the sequential
//    records to every copy.
//
// The sequential engine is itself validated against the oracle in
// test_oracle_property.cc, so equivalence here extends that guarantee
// without paying the oracle's exponential cost on hundreds of seeds.

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/multi/query_set.h"

namespace turboflux {
namespace {

using testutil::MakeRandomCase;
using testutil::RandomCase;
using testutil::RandomCaseConfig;

// Same generator parameters as test_oracle_property.cc.
RandomCaseConfig TreeConfig() {
  RandomCaseConfig config;
  config.num_vertices = 9;
  config.num_vertex_labels = 3;
  config.num_edge_labels = 2;
  config.initial_edges = 14;
  config.stream_ops = 40;
  config.query_vertices = 4;
  config.query_edges = 3;  // spanning tree only
  return config;
}

RandomCaseConfig CyclicConfig() {
  RandomCaseConfig config = TreeConfig();
  config.query_edges = 5;  // two extra cycle-closing edges
  return config;
}

// Runtimes of the query in the QuerySet: with sharing off every copy is
// its own engine, so every routed op fans out to up to kCopies workers.
constexpr multi::QueryId kCopies = 4;

class PerQuerySink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    sinks_[query].OnMatch(positive, m);
  }
  const CollectingSink& of(multi::QueryId q) { return sinks_[q]; }

 private:
  std::map<multi::QueryId, CollectingSink> sinks_;
};

void ExpectSameRecords(const CollectingSink& want, const CollectingSink& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.records()[i].positive, got.records()[i].positive)
        << what << " record#" << i;
    EXPECT_EQ(want.records()[i].mapping, got.records()[i].mapping)
        << what << " record#" << i;
  }
}

// Feeds `c.stream` in windows of `batch` ops to a batched engine and to a
// `threads`-worker QuerySet, and one op at a time to a sequential engine;
// asserts DCG equality after every window and record equality at the end.
void CheckBatchedEquivalence(const RandomCase& c, size_t threads,
                             size_t batch, uint64_t seed) {
  const std::string where = "seed=" + std::to_string(seed) +
                            " threads=" + std::to_string(threads) +
                            " batch=" + std::to_string(batch);
  const Deadline inf = Deadline::Infinite();
  TurboFluxEngine batched;
  TurboFluxEngine seq;
  CountingSink init_sink;
  CollectingSink batched_sink, seq_sink;
  ASSERT_TRUE(batched.Init(c.query, c.g0, init_sink, inf));
  ASSERT_TRUE(seq.Init(c.query, c.g0, init_sink, inf));

  multi::QuerySetOptions set_opts;
  set_opts.threads = threads;
  set_opts.share_identical = false;
  multi::QuerySet set(set_opts);
  set.Bind(c.g0);
  PerQuerySink boot, set_sink;
  for (multi::QueryId k = 0; k < kCopies; ++k) {
    multi::QueryId id = 0;
    ASSERT_TRUE(set.Register(c.query, boot, inf, &id).ok()) << where;
    ASSERT_EQ(id, k);
  }

  for (size_t i = 0; i < c.stream.size(); i += batch) {
    const size_t n = std::min(batch, c.stream.size() - i);
    std::span<const UpdateOp> window(c.stream.data() + i, n);
    ASSERT_TRUE(batched.ApplyBatch(window, batched_sink, inf));
    Status st = set.ApplyBatch(window, set_sink, inf);
    ASSERT_TRUE(st.ok()) << where << ": " << st.ToString();
    for (size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(seq.ApplyUpdate(c.stream[i + k], seq_sink, inf));
    }
    ASSERT_EQ(batched.dcg().Snapshot(), seq.dcg().Snapshot())
        << where << " window@" << i << " q=" << c.query.ToString();
  }
  ExpectSameRecords(seq_sink, batched_sink, where + " ApplyBatch");
  for (multi::QueryId k = 0; k < kCopies; ++k) {
    ExpectSameRecords(seq_sink, set_sink.of(k),
                      where + " QuerySet copy " + std::to_string(k));
  }
}

// (seed, threads, batch) grid over both query shapes.
class ParallelGrid
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t, size_t>> {
};

TEST_P(ParallelGrid, TreeStream) {
  auto [seed, threads, batch] = GetParam();
  RandomCase c = MakeRandomCase(seed, TreeConfig());
  CheckBatchedEquivalence(c, threads, batch, seed);
}

TEST_P(ParallelGrid, CyclicStream) {
  auto [seed, threads, batch] = GetParam();
  RandomCase c = MakeRandomCase(seed + 100, CyclicConfig());
  CheckBatchedEquivalence(c, threads, batch, seed + 100);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelGrid,
    ::testing::Combine(::testing::Range<uint64_t>(0, 8),
                       ::testing::Values<size_t>(1, 2, 4),
                       ::testing::Values<size_t>(1, 7, 64)));

// Acceptance sweep: threads=4 / batch=64 over 200 seeds (the grid above
// covers the denser parameter mix).
class ParallelSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelSweep, Threads4Batch64) {
  const uint64_t seed = GetParam();
  RandomCase c = MakeRandomCase(
      seed, seed < 100 ? TreeConfig() : CyclicConfig());
  CheckBatchedEquivalence(c, /*threads=*/4, /*batch=*/64, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweep,
                         ::testing::Range<uint64_t>(0, 200));

// A maximally conflicting window (every op touches the same hub vertex)
// must still come out identical.
TEST(ParallelConflicts, AllOpsOnOneHub) {
  RandomCase c = MakeRandomCase(7, TreeConfig());
  for (UpdateOp& op : c.stream) op.from = 0;
  CheckBatchedEquivalence(c, /*threads=*/4, /*batch=*/64, 7);
}

// Duplicate inserts and insert-then-delete of the same edge inside one
// window: the no-op screening must keep stream order.
TEST(ParallelConflicts, InsertDeleteSameEdgeInOneWindow) {
  RandomCase c = MakeRandomCase(11, TreeConfig());
  UpdateStream dup;
  for (const UpdateOp& op : c.stream) {
    dup.push_back(op);
    if (op.IsInsert()) {
      dup.push_back(op);  // duplicate insert: must be a no-op
      dup.push_back(UpdateOp::Delete(op.from, op.label, op.to));
      dup.push_back(op);  // net effect: edge present
    }
  }
  c.stream = dup;
  CheckBatchedEquivalence(c, /*threads=*/4, /*batch=*/64, 11);
}

}  // namespace
}  // namespace turboflux
