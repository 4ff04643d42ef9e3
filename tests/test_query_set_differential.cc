// The QuerySet differential suite: the serving layer's per-query match
// stream must be EXACTLY the stream of an independent TurboFluxEngine per
// query — per query, per op, across cross-query thread counts, batch
// windows, and register/deregister churn.
//
// Reference model: each query gets its own engine, initialized against
// the graph state at its registration point (a mirror graph replayed
// alongside), fed every subsequent op, and frozen at deregistration.
// Shared runtimes (a byte-identical duplicate query is part of every
// scenario) must be externally indistinguishable from separate engines.
//
// 40 seeds by default; the full 200-seed sweep runs with TFX_LONG_TESTS=1
// (the CI multi-query job sets it).

#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/multi/query_set.h"

namespace turboflux {
namespace {

bool LongTests() {
  const char* env = std::getenv("TFX_LONG_TESTS");
  return env != nullptr && env[0] == '1';
}

/// Splits a tagged match stream into per-query collecting sinks.
class PerQuerySink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    sinks_[query].OnMatch(positive, m);
  }
  const CollectingSink& of(multi::QueryId q) { return sinks_[q]; }
  void Clear() { sinks_.clear(); }

 private:
  std::map<multi::QueryId, CollectingSink> sinks_;
};

/// One independent reference engine, registered mid-stream against the
/// mirror graph and frozen at deregistration.
struct Reference {
  std::unique_ptr<TurboFluxEngine> engine;
  bool live = true;
};

struct Scenario {
  size_t threads;
  int64_t batch;
};

// Churn schedule over a 30-op stream: two queries up front, one joining
// at op 10, a byte-identical duplicate of query 0 at op 15 (lands in
// query 0's shared runtime mid-stream), and query 0 leaving at op 20.
constexpr size_t kRegisterThirdAt = 10;
constexpr size_t kRegisterDupAt = 15;
constexpr size_t kDeregisterFirstAt = 20;

void RunSeed(uint64_t seed, const Scenario& scenario) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threads=" + std::to_string(scenario.threads) +
               " batch=" + std::to_string(scenario.batch));

  // One world, several queries: the extra cases only donate their query
  // (the label universes agree by construction).
  testutil::RandomCaseConfig config;
  config.stream_ops = 30;
  testutil::RandomCase world = testutil::MakeRandomCase(seed, config);
  std::vector<QueryGraph> queries = {
      world.query,
      testutil::MakeRandomCase(seed + 1000, config).query,
      testutil::MakeRandomCase(seed + 2000, config).query,
      world.query,  // the duplicate, registered at kRegisterDupAt
  };

  multi::QuerySetOptions set_opts;
  set_opts.threads = scenario.threads;
  multi::QuerySet set(set_opts);
  set.Bind(world.g0);
  Deadline inf = Deadline::Infinite();

  Graph mirror = world.g0;
  std::map<multi::QueryId, Reference> refs;

  auto register_query = [&](size_t query_index) {
    PerQuerySink boot;
    multi::QueryId id = 0;
    ASSERT_TRUE(set.Register(queries[query_index], boot, inf, &id).ok());
    Reference ref;
    ref.engine = std::make_unique<TurboFluxEngine>();
    CollectingSink ref_boot;
    ASSERT_TRUE(
        ref.engine->Init(queries[query_index], mirror, ref_boot, inf));
    // Registration-time bootstrap must equal a fresh engine's initial
    // matches over the graph as of this op.
    EXPECT_TRUE(testutil::SameMatches(ref_boot, boot.of(id)));
    refs.emplace(id, std::move(ref));
  };

  register_query(0);
  register_query(1);

  const size_t window =
      scenario.batch > 1 ? static_cast<size_t>(scenario.batch) : 1;
  for (size_t i = 0; i < world.stream.size(); i += window) {
    const size_t n = std::min(window, world.stream.size() - i);
    std::span<const UpdateOp> ops(world.stream.data() + i, n);

    PerQuerySink got;
    Status st = set.ApplyBatch(ops, got, inf);
    ASSERT_TRUE(st.ok()) << st.ToString();

    std::map<multi::QueryId, CollectingSink> want;
    for (auto& [id, ref] : refs) {
      for (const UpdateOp& op : ops) {
        if (ref.live) {
          ASSERT_TRUE(ref.engine->ApplyUpdate(op, want[id], inf));
        }
      }
    }
    for (const UpdateOp& op : ops) ApplyUpdate(mirror, op);

    // Per query, per window: exact multiset equality. Deregistered and
    // never-registered ids must stay silent (their `want` is empty).
    for (auto& [id, ref] : refs) {
      EXPECT_TRUE(testutil::SameMatches(want[id], got.of(id)))
          << "query " << id << " window at op " << i;
    }

    const size_t next_op = i + n;
    if (i < kRegisterThirdAt && next_op >= kRegisterThirdAt) {
      register_query(2);
    }
    if (i < kRegisterDupAt && next_op >= kRegisterDupAt) {
      register_query(3);
    }
    if (i < kDeregisterFirstAt && next_op >= kDeregisterFirstAt) {
      ASSERT_TRUE(set.Deregister(0).ok());
      refs[0].live = false;
    }
  }

  // Churn accounting: 4 registrations, 1 deregistration, 3 live.
  EXPECT_EQ(set.QueryCount(), 3u);
  EXPECT_FALSE(set.IsLive(0));
}

TEST(QuerySetDifferential, MatchesIndependentEnginesUnderChurn) {
  const uint64_t seeds = LongTests() ? 200 : 40;
  const std::vector<Scenario> scenarios = {
      {1, 1}, {1, 8}, {4, 1}, {4, 8}};
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    for (const Scenario& scenario : scenarios) {
      RunSeed(seed, scenario);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace turboflux
