#include <cstdlib>
#include <map>
#include <span>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/multi/query_set.h"

namespace turboflux {
namespace {

std::string CheckpointToString(const TurboFluxEngine& engine) {
  std::ostringstream os;
  Status st = engine.Checkpoint(os);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return os.str();
}

Status RestoreFromString(TurboFluxEngine& engine, const std::string& bytes) {
  std::istringstream is(bytes);
  return engine.Restore(is);
}

/// Builds an engine mid-stream: Init on g0, then apply the first
/// `prefix_ops` stream ops.
void BuildEngine(TurboFluxEngine& engine, const testutil::RandomCase& c,
                 size_t prefix_ops, MatchSink& sink) {
  ASSERT_TRUE(engine.Init(c.query, c.g0, sink, Deadline::Infinite()));
  for (size_t i = 0; i < prefix_ops && i < c.stream.size(); ++i) {
    ASSERT_TRUE(engine.ApplyUpdate(c.stream[i], sink, Deadline::Infinite()));
  }
}

/// The core byte-identity property: a restored engine has the same DCG
/// dump, and produces the same subsequent match stream (same matches, same
/// order) and the same next checkpoint, as the original.
void ExpectByteIdenticalContinuation(uint64_t seed) {
  testutil::RandomCaseConfig cfg;
  cfg.stream_ops = 60;
  testutil::RandomCase c = testutil::MakeRandomCase(seed, cfg);
  const size_t half = c.stream.size() / 2;

  TurboFluxEngine original;
  DiscardSink discard;
  BuildEngine(original, c, half, discard);
  std::string snapshot = CheckpointToString(original);

  TurboFluxEngine restored;
  Status st = RestoreFromString(restored, snapshot);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.applied_ops(), original.applied_ops());
  EXPECT_EQ(restored.dcg().ToString(), original.dcg().ToString());
  EXPECT_EQ(restored.tree().ToString(), original.tree().ToString());
  EXPECT_EQ(restored.matching_order(), original.matching_order());
  EXPECT_TRUE(restored.dcg().Validate().empty());
  EXPECT_TRUE(restored.graph().CheckConsistency().empty());

  // Same checkpoint bytes from the restored engine.
  EXPECT_EQ(CheckpointToString(restored), snapshot);

  // Same subsequent match stream, record for record, fed as one batch.
  CollectingSink a, b;
  std::span<const UpdateOp> rest(c.stream.data() + half,
                                 c.stream.size() - half);
  ASSERT_TRUE(original.ApplyBatch(rest, a, Deadline::Infinite()));
  ASSERT_TRUE(restored.ApplyBatch(rest, b, Deadline::Infinite()));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].positive, b.records()[i].positive) << "at " << i;
    EXPECT_EQ(a.records()[i].mapping, b.records()[i].mapping) << "at " << i;
  }
  EXPECT_EQ(original.dcg().ToString(), restored.dcg().ToString());
}

TEST(Checkpoint, RoundTripIsByteIdenticalSequential) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    ExpectByteIdenticalContinuation(seed);
  }
}

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

std::string CheckpointToString(const multi::QuerySet& set) {
  std::ostringstream os;
  Status st = set.Checkpoint(os);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return os.str();
}

/// The same property for the one parallel evaluation path: a QuerySet
/// holding `kCopies` unshared runtimes of the query, evaluated on four
/// workers, restored from its snapshot into a fresh four-worker set,
/// writes the same snapshot and reports, to every copy, the same
/// continuation records as a restored sequential engine.
void ExpectByteIdenticalParallelContinuation(uint64_t seed) {
  constexpr multi::QueryId kCopies = 4;
  // Fewer labels and a path query than the engine-only case, so that the
  // continuation reports matches for the copies to agree on.
  testutil::RandomCaseConfig cfg;
  cfg.num_vertex_labels = 2;
  cfg.num_edge_labels = 1;
  cfg.stream_ops = 60;
  cfg.query_edges = 2;
  testutil::RandomCase c = testutil::MakeRandomCase(seed, cfg);
  const size_t half = c.stream.size() / 2;
  const Deadline inf = Deadline::Infinite();
  std::span<const UpdateOp> head(c.stream.data(), half);
  std::span<const UpdateOp> rest(c.stream.data() + half,
                                 c.stream.size() - half);

  multi::QuerySetOptions opts;
  opts.threads = 4;
  opts.share_identical = false;
  multi::QuerySet original(opts);
  original.Bind(c.g0);
  PerQuerySink discard;
  for (multi::QueryId k = 0; k < kCopies; ++k) {
    multi::QueryId id = 0;
    ASSERT_TRUE(original.Register(c.query, discard, inf, &id).ok());
    ASSERT_EQ(id, k);
  }
  ASSERT_TRUE(original.ApplyBatch(head, discard, inf).ok());
  std::string snapshot = CheckpointToString(original);

  multi::QuerySet restored(opts);
  std::istringstream is(snapshot);
  Status st = restored.Restore(is);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.applied_ops(), original.applied_ops());
  EXPECT_EQ(restored.RuntimeCount(), size_t{kCopies});
  EXPECT_EQ(CheckpointToString(restored), snapshot);

  // Sequential reference: one engine over the same prefix, fed the rest.
  TurboFluxEngine seq;
  DiscardSink seq_discard;
  BuildEngine(seq, c, half, seq_discard);
  CollectingSink want;
  ASSERT_TRUE(seq.ApplyBatch(rest, want, inf));
  EXPECT_GT(want.size(), 0u);

  PerQuerySink a, b;
  ASSERT_TRUE(original.ApplyBatch(rest, a, inf).ok());
  ASSERT_TRUE(restored.ApplyBatch(rest, b, inf).ok());
  for (multi::QueryId k = 0; k < kCopies; ++k) {
    for (PerQuerySink* got : {&a, &b}) {
      const CollectingSink& g = got->of(k);
      ASSERT_EQ(g.size(), want.size()) << "copy " << k;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(g.records()[i].positive, want.records()[i].positive)
            << "copy " << k << " at " << i;
        EXPECT_EQ(g.records()[i].mapping, want.records()[i].mapping)
            << "copy " << k << " at " << i;
      }
    }
  }
  EXPECT_EQ(CheckpointToString(restored), CheckpointToString(original));
}

TEST(Checkpoint, RoundTripIsByteIdenticalParallel) {
  for (uint64_t seed : {5u, 6u}) {
    ExpectByteIdenticalContinuation(seed);
    ExpectByteIdenticalParallelContinuation(seed);
  }
}

TEST(Checkpoint, RoundTripWithIsomorphismSemantics) {
  testutil::RandomCase c = testutil::MakeRandomCase(9, {});
  TurboFluxOptions opts;
  opts.semantics = MatchSemantics::kIsomorphism;
  TurboFluxEngine original(opts);
  DiscardSink discard;
  BuildEngine(original, c, c.stream.size() / 2, discard);
  std::string snapshot = CheckpointToString(original);

  TurboFluxEngine restored(opts);
  ASSERT_TRUE(RestoreFromString(restored, snapshot).ok());
  EXPECT_EQ(restored.dcg().ToString(), original.dcg().ToString());

  // Mismatched semantics are rejected, not silently reinterpreted.
  TurboFluxEngine wrong;  // defaults to homomorphism
  Status st = RestoreFromString(wrong, snapshot);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(Checkpoint, CheckpointBeforeInitFails) {
  TurboFluxEngine engine;
  std::ostringstream os;
  EXPECT_EQ(engine.Checkpoint(os).code(), StatusCode::kFailedPrecondition);
}

TEST(Checkpoint, EmptyAndGarbageInputsRejected) {
  TurboFluxEngine engine;
  EXPECT_EQ(RestoreFromString(engine, "").code(), StatusCode::kCorruption);
  TurboFluxEngine engine2;
  EXPECT_EQ(RestoreFromString(engine2, "not a checkpoint at all").code(),
            StatusCode::kCorruption);
}

TEST(Checkpoint, WrongVersionRejected) {
  testutil::RandomCase c = testutil::MakeRandomCase(3, {});
  TurboFluxEngine engine;
  DiscardSink discard;
  BuildEngine(engine, c, 5, discard);
  std::string snapshot = CheckpointToString(engine);
  snapshot[4] = static_cast<char>(0x7f);  // first version byte
  TurboFluxEngine fresh;
  EXPECT_EQ(RestoreFromString(fresh, snapshot).code(),
            StatusCode::kUnsupportedVersion);
}

TEST(Checkpoint, EveryTruncationRejectedCleanly) {
  testutil::RandomCase c = testutil::MakeRandomCase(4, {});
  TurboFluxEngine engine;
  DiscardSink discard;
  BuildEngine(engine, c, 10, discard);
  std::string snapshot = CheckpointToString(engine);
  ASSERT_GT(snapshot.size(), 64u);
  // Step through prefix lengths (stride keeps the loop fast; the section
  // framing makes all truncations within a section equivalent anyway).
  for (size_t len = 0; len < snapshot.size(); len += 7) {
    TurboFluxEngine fresh;
    Status st = RestoreFromString(fresh, snapshot.substr(0, len));
    EXPECT_FALSE(st.ok()) << "prefix of " << len << " bytes accepted";
  }
}

// Fuzz: a single flipped bit anywhere in the snapshot must be rejected
// with a clean Status — CRC32 catches payload flips, framing checks catch
// the rest. Never a crash (the ASan/UBSan CI jobs give this test teeth).
TEST(Checkpoint, EveryBitFlipRejected) {
  testutil::RandomCase c = testutil::MakeRandomCase(5, {});
  TurboFluxEngine engine;
  DiscardSink discard;
  BuildEngine(engine, c, 10, discard);
  const std::string good = CheckpointToString(engine);

  const char* env = std::getenv("TFX_LONG_TESTS");
  const size_t stride = (env != nullptr && env[0] == '1') ? 1 : 13;
  for (size_t off = 0; off < good.size(); off += stride) {
    std::string bad = good;
    ASSERT_TRUE(CorruptSnapshot(bad, off));
    TurboFluxEngine fresh;
    Status st = RestoreFromString(fresh, bad);
    EXPECT_FALSE(st.ok()) << "bit flip at byte " << off << " accepted";
    EXPECT_TRUE(fresh.dead());
  }
}

TEST(Checkpoint, RestoredEngineSurvivesWithoutTheOriginalQuery) {
  // The snapshot must carry the query: restore into an engine whose
  // original QueryGraph has been destroyed, then keep matching.
  testutil::RandomCase c = testutil::MakeRandomCase(6, {});
  std::string snapshot;
  {
    TurboFluxEngine engine;
    DiscardSink discard;
    BuildEngine(engine, c, c.stream.size() / 2, discard);
    snapshot = CheckpointToString(engine);
  }
  auto query = std::make_unique<QueryGraph>(c.query);
  TurboFluxEngine engine;
  CollectingSink sink;
  ASSERT_TRUE(engine.Init(*query, c.g0, sink, Deadline::Infinite()));
  query.reset();  // restored state must not reference this
  ASSERT_TRUE(RestoreFromString(engine, snapshot).ok());
  for (size_t i = c.stream.size() / 2; i < c.stream.size(); ++i) {
    ASSERT_TRUE(engine.ApplyUpdate(c.stream[i], sink, Deadline::Infinite()));
  }
  EXPECT_TRUE(engine.dcg().Validate().empty());
}

}  // namespace
}  // namespace turboflux
