// Deadline under concurrency (the QuerySet's cross-query workers poll one
// shared deadline) plus the engine's cut-short-batch semantics: when a
// deadline expires mid-batch, ApplyBatch must return false, report a
// record prefix of the sequential run's matches (the cut may fall inside
// an op), and leave the engine dead to further updates.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/common/deadline.h"
#include "turboflux/core/turboflux.h"

namespace turboflux {
namespace {

using testutil::MakeRandomCase;
using testutil::RandomCase;
using testutil::RandomCaseConfig;

RandomCaseConfig TreeConfig() {
  RandomCaseConfig config;
  config.num_vertices = 9;
  config.num_vertex_labels = 3;
  config.num_edge_labels = 2;
  config.initial_edges = 14;
  config.stream_ops = 40;
  config.query_vertices = 4;
  config.query_edges = 3;
  return config;
}

TEST(DeadlineConcurrent, InfiniteNeverExpiresUnderContention) {
  Deadline d = Deadline::Infinite();
  std::vector<std::thread> threads;
  std::atomic<bool> any_expired{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100000; ++i) {
        if (d.Expired()) any_expired = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(any_expired.load());
}

TEST(DeadlineConcurrent, ExpiryIsObservedByAllPollersAndSticks) {
  Deadline d = Deadline::AfterMillis(20);
  std::vector<std::thread> threads;
  std::atomic<int> observed{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      // Each poll increments the shared sample counter; the clock is
      // only consulted every kCheckInterval calls, so spin until the
      // expiry actually becomes visible to this thread.
      while (!d.Expired()) {
      }
      ++observed;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(observed.load(), 4);
  // Sticky: once expired, always expired — no clock re-check that could
  // flip the answer back.
  EXPECT_TRUE(d.Expired());
  EXPECT_TRUE(d.ExpiredNow());
  // Copies made after expiry inherit the flag immediately.
  Deadline copy = d;
  EXPECT_TRUE(copy.Expired());
}

using Records = std::vector<CollectingSink::Record>;

// The sequential run's match records for `stream` on a fresh engine (the
// reference for prefix checks).
Records SequentialRecords(const RandomCase& c, const UpdateStream& stream) {
  TurboFluxEngine seq;
  CountingSink init;
  EXPECT_TRUE(seq.Init(c.query, c.g0, init, Deadline::Infinite()));
  CollectingSink sink;
  for (const UpdateOp& op : stream) {
    EXPECT_TRUE(seq.ApplyUpdate(op, sink, Deadline::Infinite()));
  }
  return sink.records();
}

// True iff `got` is a prefix of `all`, record for record.
bool IsRecordPrefix(const Records& got, const Records& all) {
  if (got.size() > all.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].positive != all[i].positive ||
        got[i].mapping != all[i].mapping) {
      return false;
    }
  }
  return true;
}

TEST(DeadlineConcurrent, PreExpiredDeadlineCutsBatchToEmptyPrefix) {
  RandomCase c = MakeRandomCase(3, TreeConfig());
  TurboFluxEngine engine;
  CountingSink init;
  ASSERT_TRUE(engine.Init(c.query, c.g0, init, Deadline::Infinite()));

  Deadline d = Deadline::AfterMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  while (!d.Expired()) {
  }
  CollectingSink sink;
  EXPECT_FALSE(engine.ApplyBatch(c.stream, sink, d));
  EXPECT_EQ(sink.size(), 0u);
  // The engine is dead after a cut-short batch: further updates refuse.
  EXPECT_TRUE(engine.dead());
  EXPECT_FALSE(
      engine.ApplyUpdate(c.stream[0], sink, Deadline::Infinite()));
  EXPECT_EQ(sink.size(), 0u);
}

TEST(DeadlineConcurrent, MidBatchExpiryReportsRecordPrefix) {
  RandomCase c = MakeRandomCase(5, TreeConfig());
  // Lengthen the window (repeats are legal: duplicate inserts and
  // deletes of absent edges are no-ops) so a short deadline can land
  // mid-batch rather than before or after it.
  UpdateStream stream;
  for (int r = 0; r < 8; ++r) {
    for (const UpdateOp& op : c.stream) stream.push_back(op);
  }
  const Records all = SequentialRecords(c, stream);

  // Whether the deadline fires before, during, or after the batch is
  // timing-dependent; all three outcomes must satisfy the contract.
  TurboFluxEngine engine;
  CountingSink init;
  ASSERT_TRUE(engine.Init(c.query, c.g0, init, Deadline::Infinite()));
  CollectingSink sink;
  bool ok = engine.ApplyBatch(stream, sink, Deadline::AfterMillis(2));
  if (ok) {
    EXPECT_EQ(sink.size(), all.size());
  } else {
    EXPECT_TRUE(engine.dead());
    EXPECT_FALSE(
        engine.ApplyUpdate(stream[0], sink, Deadline::Infinite()));
  }
  EXPECT_TRUE(IsRecordPrefix(sink.records(), all))
      << "reported " << sink.size()
      << " records, not a prefix of the sequential run's " << all.size();
}

}  // namespace
}  // namespace turboflux
