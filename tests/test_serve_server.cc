// Server core of tfx_serve (serve/server.h): durability acks, per-channel
// exactly-once sequencing (DUP / overlap trim / gap rejection), restart
// recovery, and the durable match stream against an in-process QuerySet
// oracle. The chaos suite (test_serve_chaos.cc) stresses the same
// protocol under injected faults; these are the deterministic basics.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/serve/server.h"

namespace turboflux {
namespace serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("tfx_serve_srv_" + name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// Collects QuerySet matches as MatchRecords, tagging each with the op
/// index the caller sets before the triggering ApplyUpdate/Register —
/// the oracle-side mirror of the server's internal tagging sink.
class OracleSink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    MatchRecord rec;
    rec.op_index = op_index;
    rec.query = query;
    rec.positive = positive ? 1 : 0;
    rec.mapping = m;
    records.push_back(std::move(rec));
  }

  uint64_t op_index = 0;
  std::vector<MatchRecord> records;
};

/// Replays the whole case through a QuerySet in one process — the match
/// stream a crash-free server must reproduce byte-for-byte.
std::vector<MatchRecord> OracleReplay(const testutil::RandomCase& c) {
  multi::QuerySet set;
  set.Bind(c.g0);
  OracleSink sink;
  multi::QueryId id = 0;
  sink.op_index = set.applied_ops();
  EXPECT_TRUE(set.Register(c.query, sink, Deadline::Infinite(), &id).ok());
  for (const UpdateOp& op : c.stream) {
    sink.op_index = set.applied_ops();
    Status s = set.ApplyUpdate(op, sink, Deadline::Infinite());
    EXPECT_NE(s.code(), StatusCode::kDeadlineExceeded);
  }
  return std::move(sink.records);
}

ServeOptions FastOptions(const std::string& data_dir) {
  ServeOptions options;
  options.data_dir = data_dir;
  options.checkpoint_every_ops = 7;  // commit often so restarts replay
  options.checkpoint_interval_ms = 50;
  options.drain_wait_ms = 2;
  return options;
}

testutil::RandomCase ServeCase(uint64_t seed) {
  testutil::RandomCaseConfig config;
  config.stream_ops = 60;
  return testutil::MakeRandomCase(seed, config);
}

/// A case whose snapshot (~1.7 MB of graph) costs far more to write than
/// a commit's worth of evaluation, so the replay budget alone never
/// snapshots after a handful of ops: what a test sees in the snapshot is
/// what the protocol forced there. The query is a labeled 2-edge path,
/// so stream ops produce matches.
testutil::RandomCase LargeServeCase(uint64_t seed) {
  testutil::RandomCaseConfig config;
  config.num_vertices = 30'000;
  config.initial_edges = 90'000;
  config.num_edge_labels = 1;
  config.query_edges = 2;
  config.stream_ops = 60;
  return testutil::MakeRandomCase(seed, config);
}

/// The op position S of the data dir's snapshot.
uint64_t SnapshotPosition(const std::string& data_dir) {
  std::ifstream in(data_dir + "/snapshot.tfxq", std::ios::binary);
  EXPECT_TRUE(in.good()) << "no snapshot in " << data_dir;
  multi::QuerySet set;
  EXPECT_TRUE(set.Restore(in).ok());
  return set.applied_ops();
}

/// Reads counter `name`, or field `field` of histogram `name`, from a
/// STATS JSON body; fails the test when absent.
uint64_t StatValue(const std::string& json, const std::string& name,
                   const std::string& field = "") {
  size_t at = json.find("\"" + name + "\": ");
  if (at != std::string::npos && !field.empty()) {
    at = json.find("\"" + field + "\": ", at);
  }
  EXPECT_NE(at, std::string::npos) << name << " " << field;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(json.find(": ", at) + 2));
}

/// Polls until the server's match-log watermark reaches `ops`.
void AwaitCommitted(Server& server, uint64_t ops) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.committed_ops() < ops &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.committed_ops(), ops);
}

/// Oracle replay with several registrations: `queries[i]` registers once
/// `at[i]` ops of `stream` have been applied (ids in registration order,
/// as the server assigns them).
std::vector<MatchRecord> OracleReplayWith(
    const Graph& g0, const std::vector<QueryGraph>& queries,
    const std::vector<size_t>& at, const UpdateStream& stream) {
  multi::QuerySet set;
  set.Bind(g0);
  OracleSink sink;
  size_t next = 0;
  for (size_t i = 0; i <= stream.size(); ++i) {
    sink.op_index = set.applied_ops();
    for (; next < queries.size() && at[next] == i; ++next) {
      multi::QueryId id = 0;
      EXPECT_TRUE(
          set.Register(queries[next], sink, Deadline::Infinite(), &id).ok());
    }
    if (i == stream.size()) break;
    Status s = set.ApplyUpdate(stream[i], sink, Deadline::Infinite());
    EXPECT_NE(s.code(), StatusCode::kDeadlineExceeded);
  }
  return std::move(sink.records);
}

TEST(ServeServer, AcksSubmitsAndMatchesOracleReplay) {
  testutil::RandomCase c = ServeCase(4100);
  TempDir dir("oracle");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();

  ServerHandle handle(*server, 1);
  for (size_t i = 0; i < c.stream.size(); i += 5) {
    size_t n = std::min<size_t>(5, c.stream.size() - i);
    Response r =
        handle.Submit(std::span<const UpdateOp>(c.stream.data() + i, n));
    ASSERT_EQ(r.kind, Response::Kind::kOk) << "batch at " << i;
    EXPECT_EQ(r.seq, i + n);
  }
  server->Shutdown();
  EXPECT_FALSE(server->died());
  EXPECT_EQ(server->accepted_ops(), c.stream.size());
  EXPECT_EQ(server->committed_ops(), c.stream.size());

  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  std::vector<MatchRecord> oracle = OracleReplay(c);
  EXPECT_FALSE(oracle.empty());  // a vacuous equality would prove nothing
  EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
            MatchLog::CanonicalMatchStream(oracle));
}

TEST(ServeServer, DuplicateAndOverlappingResendsAreIdempotent) {
  testutil::RandomCase c = ServeCase(4101);
  ASSERT_GE(c.stream.size(), 8u);
  TempDir dir("dup");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();

  std::span<const UpdateOp> ops(c.stream.data(), 4);
  Response r = server->Submit(1, 1, ops);
  ASSERT_EQ(r.kind, Response::Kind::kOk);
  EXPECT_EQ(r.seq, 4u);

  // Full resend: everything at or below the high-water mark is DUP.
  r = server->Submit(1, 1, ops);
  EXPECT_EQ(r.kind, Response::Kind::kDup);
  EXPECT_EQ(r.seq, 4u);

  // Overlapping resend [3, 6]: ops 3-4 are trimmed, 5-6 are new.
  r = server->Submit(1, 3, std::span<const UpdateOp>(c.stream.data() + 2, 4));
  ASSERT_EQ(r.kind, Response::Kind::kOk);
  EXPECT_EQ(r.seq, 6u);

  // A gap is a protocol error, not silent reordering.
  r = server->Submit(1, 9, std::span<const UpdateOp>(c.stream.data(), 1));
  ASSERT_EQ(r.kind, Response::Kind::kErr);
  EXPECT_EQ(r.code, StatusCode::kFailedPrecondition);

  // seq 0 and empty batches are malformed.
  r = server->Submit(1, 0, ops);
  EXPECT_EQ(r.kind, Response::Kind::kErr);
  r = server->Submit(1, 7, std::span<const UpdateOp>());
  EXPECT_EQ(r.kind, Response::Kind::kErr);

  server->Shutdown();
  // Exactly 6 distinct ops were ingested despite the resends.
  EXPECT_EQ(server->accepted_ops(), 6u);

  // The match stream equals a clean replay of the deduplicated prefix.
  testutil::RandomCase prefix = c;
  prefix.stream.assign(c.stream.begin(), c.stream.begin() + 6);
  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
            MatchLog::CanonicalMatchStream(OracleReplay(prefix)));
}

TEST(ServeServer, RestartResumesExactlyOnce) {
  testutil::RandomCase c = ServeCase(4102);
  TempDir dir("restart");
  const size_t half = c.stream.size() / 2;

  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
    multi::QueryId id = 0;
    ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
    server->Start();
    ServerHandle handle(*server, 1);
    Response r =
        handle.Submit(std::span<const UpdateOp>(c.stream.data(), half));
    ASSERT_EQ(r.kind, Response::Kind::kOk);
    server->Shutdown();
  }

  // Second incarnation: no g0 (the snapshot has the state), resynced
  // producer, remainder of the stream — including a duplicate overlap the
  // resync dance would produce after a lost ack.
  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(
        Server::Create(FastOptions(dir.str()), nullptr, &server).ok());
    server->Start();
    ServerHandle handle(*server, 1);
    EXPECT_EQ(handle.Resync(), half);
    Response r = handle.Submit(std::span<const UpdateOp>(
        c.stream.data() + half, c.stream.size() - half));
    ASSERT_EQ(r.kind, Response::Kind::kOk);
    EXPECT_EQ(r.seq, c.stream.size());
    server->Shutdown();
    EXPECT_FALSE(server->died());

    std::vector<MatchRecord> committed;
    ASSERT_TRUE(server->CommittedMatches(&committed).ok());
    EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
              MatchLog::CanonicalMatchStream(OracleReplay(c)));
  }
}

TEST(ServeServer, KillLosesNothingAcked) {
  testutil::RandomCase c = ServeCase(4103);
  TempDir dir("kill");
  // Commit rarely, so Kill() strikes with matches buffered in memory and
  // a snapshot that lags the journal — recovery owes real replay.
  ServeOptions options = FastOptions(dir.str());
  options.checkpoint_every_ops = 1000;
  options.checkpoint_interval_ms = 60'000;

  uint64_t acked = 0;
  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
    multi::QueryId id = 0;
    ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
    server->Start();
    ServerHandle handle(*server, 1);
    Response r = handle.Submit(
        std::span<const UpdateOp>(c.stream.data(), c.stream.size() / 2));
    ASSERT_EQ(r.kind, Response::Kind::kOk);
    acked = r.seq;
    server->Kill();
  }

  {
    std::unique_ptr<Server> server;
    ASSERT_TRUE(Server::Create(options, nullptr, &server).ok());
    server->Start();
    ServerHandle handle(*server, 1);
    // Every acked op survived the kill.
    EXPECT_GE(handle.Resync(), acked);
    uint64_t durable = handle.Resync();
    Response r = handle.Submit(std::span<const UpdateOp>(
        c.stream.data() + durable, c.stream.size() - durable));
    ASSERT_EQ(r.kind, Response::Kind::kOk);
    server->Shutdown();

    std::vector<MatchRecord> committed;
    ASSERT_TRUE(server->CommittedMatches(&committed).ok());
    EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
              MatchLog::CanonicalMatchStream(OracleReplay(c)));
  }
}

TEST(ServeServer, HealthAndStatsServeWithoutStreaming) {
  testutil::RandomCase c = ServeCase(4104);
  TempDir dir("health");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();

  Response health = server->Health();
  EXPECT_EQ(health.kind, Response::Kind::kHealth);
  EXPECT_EQ(health.tier, Tier::kNormal);
  EXPECT_EQ(health.queue_cap, server->options().admission.queue_cap);

  Response stats = server->Stats();
  EXPECT_EQ(stats.kind, Response::Kind::kStats);
  EXPECT_NE(stats.text.find("serve.ops_accepted"), std::string::npos);
  // RegisterQuery committed and snapshotted, so the snapshot stats are
  // non-zero and no replay is owed.
  EXPECT_GE(StatValue(stats.text, "serve.commits"), 1u);
  EXPECT_GE(StatValue(stats.text, "serve.snapshots"), 1u);
  EXPECT_GT(StatValue(stats.text, "serve.snapshot_bytes"), 0u);
  EXPECT_GE(StatValue(stats.text, "serve.snapshot_ns", "count"), 1u);
  EXPECT_GT(StatValue(stats.text, "serve.snapshot_ns", "sum"), 0u);
  EXPECT_EQ(StatValue(stats.text, "serve.replay_debt_ops"), 0u);
  EXPECT_EQ(StatValue(stats.text, "serve.replay_debt_ns"), 0u);

  ServerHandle handle(*server, 3);
  ASSERT_EQ(handle.Submit(std::span<const UpdateOp>(c.stream.data(), 8)).kind,
            Response::Kind::kOk);
  EXPECT_EQ(server->Pos(3).seq, 8u);
  EXPECT_EQ(server->Pos(99).seq, 0u);
  AwaitCommitted(*server, 8);
  // Both commit triggers (7 ops, then the timer) ran. The 8 ops are
  // either still owed (debt in ops and time) or covered by a snapshot.
  stats = server->Stats();
  EXPECT_GE(StatValue(stats.text, "serve.commits"), 3u);
  const uint64_t debt_ops = StatValue(stats.text, "serve.replay_debt_ops");
  EXPECT_LE(debt_ops, 8u);
  EXPECT_EQ(debt_ops == 0,
            StatValue(stats.text, "serve.replay_debt_ns") == 0);

  server->Shutdown();
  Response matches = server->Matches(0, 1'000'000);
  ASSERT_EQ(matches.kind, Response::Kind::kMatches);
  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  EXPECT_EQ(matches.matches.size(), committed.size());

  // Paging: a window in the middle returns exactly that slice.
  if (committed.size() >= 2) {
    Response page = server->Matches(1, 1);
    ASSERT_EQ(page.matches.size(), 1u);
    EXPECT_TRUE(page.matches[0] == committed[1]);
  }
}

TEST(ServeServer, OversizedCommitReadsBackInFullAcrossKill) {
  // A commit over the match log's 64 MiB block limit (17 records of 2^20
  // vertices) in the data dir's match log, as the server's own commit
  // path writes it; every record must come back through CommittedMatches,
  // before and after a kill and recovery.
  testutil::RandomCase c = ServeCase(4107);
  TempDir dir("bigcommit");
  std::vector<MatchRecord> big(17);
  for (uint32_t i = 0; i < big.size(); ++i) {
    big[i].query = i;
    big[i].mapping.assign(size_t{1} << 20, i);
  }
  {
    MatchLog log;
    ASSERT_TRUE(log.Open(dir.str() + "/matches.log", 0).ok());
    ASSERT_TRUE(log.AppendCommit(big, 0, nullptr).ok());
  }
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), &c.g0, &server).ok());
  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  ASSERT_EQ(committed.size(), big.size());
  EXPECT_TRUE(committed.back() == big.back());
  // The registration's initial matches commit after the big commit; the
  // recovery below restores Create's snapshot instead of needing g0.
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());

  server->Kill();
  server.reset();
  ASSERT_TRUE(Server::Create(FastOptions(dir.str()), nullptr, &server).ok());
  committed.clear();
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  ASSERT_GE(committed.size(), big.size());
  for (size_t i = 0; i < big.size(); ++i) {
    EXPECT_TRUE(committed[i] == big[i]) << "record " << i;
  }
  server->Shutdown();
}

TEST(ServeServer, FreshDirKilledBeforeAnyCommitRecoversWithoutGraph) {
  // Create on a fresh dir writes the S=0 snapshot, so a kill before the
  // first commit (no registration, timers off) leaves a dir that
  // recovers without g0 and replays the journaled ops.
  testutil::RandomCase c = ServeCase(4108);
  TempDir dir("freshkill");
  ServeOptions options = FastOptions(dir.str());
  options.checkpoint_every_ops = 1000;
  options.checkpoint_interval_ms = 60'000;
  const size_t half = c.stream.size() / 2;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
  server->Start();
  {
    ServerHandle handle(*server, 1);
    ASSERT_EQ(
        handle.Submit(std::span<const UpdateOp>(c.stream.data(), half)).kind,
        Response::Kind::kOk);
  }
  EXPECT_EQ(server->committed_ops(), 0u);
  server->Kill();
  server.reset();

  ASSERT_TRUE(Server::Create(options, nullptr, &server).ok());
  EXPECT_EQ(server->accepted_ops(), half);
  EXPECT_EQ(server->committed_ops(), half);
  EXPECT_EQ(StatValue(server->Stats().text, "serve.replay_debt_ops"), half);
  // The replayed graph is the one the query now registers over.
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();
  ServerHandle handle(*server, 1);
  EXPECT_EQ(handle.Resync(), half);
  ASSERT_EQ(handle
                .Submit(std::span<const UpdateOp>(c.stream.data() + half,
                                                  c.stream.size() - half))
                .kind,
            Response::Kind::kOk);
  server->Shutdown();
  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  std::vector<MatchRecord> oracle =
      OracleReplayWith(c.g0, {c.query}, {half}, c.stream);
  EXPECT_FALSE(oracle.empty());
  EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
            MatchLog::CanonicalMatchStream(oracle));
}

TEST(ServeServer, KillAfterCommitWithoutSnapshotReplaysBelowWatermark) {
  // S < W = J at the kill: the ops are committed but not snapshotted.
  // Recovery replays [S, W) into the NullSink, writes no snapshot, and
  // the durable stream is unchanged, with no duplicate of the replayed
  // ops' matches.
  testutil::RandomCase c = LargeServeCase(4109);
  TempDir dir("nosnap");
  ServeOptions options = FastOptions(dir.str());
  options.checkpoint_interval_ms = 60'000;  // commits by op count only
  const size_t w = 2 * options.checkpoint_every_ops;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();
  {
    ServerHandle handle(*server, 1);
    ASSERT_EQ(
        handle.Submit(std::span<const UpdateOp>(c.stream.data(), w)).kind,
        Response::Kind::kOk);
  }
  AwaitCommitted(*server, w);
  std::vector<MatchRecord> before;
  ASSERT_TRUE(server->CommittedMatches(&before).ok());
  server->Kill();
  server.reset();
  const uint64_t s = SnapshotPosition(dir.str());
  ASSERT_LT(s, w) << "every commit snapshotted; nothing to replay";
  // The replayed ops produce matches, so the equality below is not
  // vacuous.
  std::vector<MatchRecord> oracle =
      OracleReplayWith(c.g0, {c.query}, {0}, c.stream);
  EXPECT_TRUE(std::any_of(oracle.begin(), oracle.end(),
                          [&](const MatchRecord& r) {
                            return r.op_index >= s && r.op_index < w;
                          }));

  ASSERT_TRUE(Server::Create(options, nullptr, &server).ok());
  EXPECT_EQ(server->committed_ops(), w);
  std::string stats = server->Stats().text;
  EXPECT_EQ(StatValue(stats, "serve.snapshots"), 0u);
  EXPECT_EQ(StatValue(stats, "serve.commits"), 0u);
  EXPECT_EQ(StatValue(stats, "serve.replay_debt_ops"), w - s);
  EXPECT_EQ(SnapshotPosition(dir.str()), s);
  std::vector<MatchRecord> after;
  ASSERT_TRUE(server->CommittedMatches(&after).ok());
  EXPECT_EQ(MatchLog::CanonicalMatchStream(after),
            MatchLog::CanonicalMatchStream(before));

  // The stream goes on from the recovered state, equal to the oracle.
  server->Start();
  ServerHandle handle(*server, 1);
  EXPECT_EQ(handle.Resync(), w);
  ASSERT_EQ(handle
                .Submit(std::span<const UpdateOp>(c.stream.data() + w,
                                                  c.stream.size() - w))
                .kind,
            Response::Kind::kOk);
  server->Shutdown();
  after.clear();
  ASSERT_TRUE(server->CommittedMatches(&after).ok());
  EXPECT_EQ(MatchLog::CanonicalMatchStream(after),
            MatchLog::CanonicalMatchStream(oracle));
}

TEST(ServeServer, ReplayDebtStaysWithinOneSnapshotOfEvaluation) {
  // With evaluation pinned at >= kThrottleUs per op, the ops a kill
  // leaves past the snapshot number at most one snapshot's time of
  // evaluation plus one commit's ops — and the snapshots are fewer than
  // the commits, or the budget would not be doing anything.
  constexpr uint32_t kThrottleUs = 500;
  testutil::RandomCase c = LargeServeCase(4110);
  TempDir dir("debt");
  ServeOptions options = FastOptions(dir.str());
  options.checkpoint_every_ops = 4;
  options.checkpoint_interval_ms = 60'000;
  options.eval_throttle_us = kThrottleUs;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();
  {
    ServerHandle handle(*server, 1);
    ASSERT_EQ(handle.Submit(std::span<const UpdateOp>(c.stream)).kind,
              Response::Kind::kOk);
  }
  AwaitCommitted(*server, c.stream.size());
  std::string stats = server->Stats().text;
  const uint64_t commits = StatValue(stats, "serve.commits");
  const uint64_t snapshots = StatValue(stats, "serve.snapshots");
  const uint64_t max_snapshot_ns =
      StatValue(stats, "serve.snapshot_ns", "max");
  server->Kill();
  server.reset();

  EXPECT_LT(snapshots, commits);
  const uint64_t replayed = c.stream.size() - SnapshotPosition(dir.str());
  EXPECT_LE(replayed, max_snapshot_ns / (kThrottleUs * 1000) +
                          options.checkpoint_every_ops)
      << commits << " commits, " << snapshots << " snapshots, slowest "
      << max_snapshot_ns << " ns";
  ASSERT_TRUE(Server::Create(options, nullptr, &server).ok());
  EXPECT_EQ(StatValue(server->Stats().text, "serve.replay_debt_ops"),
            replayed);
}

TEST(ServeServer, KillRightAfterRegisterQueryKeepsTheQuery) {
  testutil::RandomCase c = LargeServeCase(4111);
  testutil::RandomCase other = LargeServeCase(4112);
  TempDir dir("regkill");
  ServeOptions options = FastOptions(dir.str());
  const size_t at = options.checkpoint_every_ops;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 1, &id).ok());
  server->Start();
  {
    ServerHandle handle(*server, 1);
    ASSERT_EQ(
        handle.Submit(std::span<const UpdateOp>(c.stream.data(), at)).kind,
        Response::Kind::kOk);
  }
  AwaitCommitted(*server, at);
  ASSERT_TRUE(server->RegisterQuery(other.query, 1, &id).ok());
  server->Kill();
  server.reset();

  ASSERT_TRUE(Server::Create(options, nullptr, &server).ok());
  EXPECT_EQ(server->LiveQueryCount(), 2u);
  server->Start();
  ServerHandle handle(*server, 1);
  EXPECT_EQ(handle.Resync(), at);
  ASSERT_EQ(handle
                .Submit(std::span<const UpdateOp>(c.stream.data() + at,
                                                  c.stream.size() - at))
                .kind,
            Response::Kind::kOk);
  server->Shutdown();
  std::vector<MatchRecord> committed;
  ASSERT_TRUE(server->CommittedMatches(&committed).ok());
  EXPECT_EQ(MatchLog::CanonicalMatchStream(committed),
            MatchLog::CanonicalMatchStream(OracleReplayWith(
                c.g0, {c.query, other.query}, {0, at}, c.stream)));
}

TEST(ServeServer, KillAfterShedAndCommitKeepsTheQueryShed) {
  // Five producers fill the 40-op queue before the ingest thread starts;
  // its first drain leaves it 80% full, which (with no dwell) sheds the
  // priority-1 query. The commit after the shed must snapshot it: a
  // recovery replaying from the registration snapshot would bring the
  // shed query back.
  testutil::RandomCase c = LargeServeCase(4113);
  testutil::RandomCase other = LargeServeCase(4114);
  TempDir dir("shedkill");
  ServeOptions options = FastOptions(dir.str());
  options.admission.queue_cap = 40;
  options.batch_window = 8;
  options.widen_batch_window = 8;
  options.checkpoint_every_ops = 100'000;
  options.checkpoint_interval_ms = 20;
  options.overload.sustain_us = 0;
  options.overload.recover_us = 60'000'000;  // stay shed
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(options, &c.g0, &server).ok());
  multi::QueryId id = 0;
  ASSERT_TRUE(server->RegisterQuery(c.query, 5, &id).ok());
  ASSERT_TRUE(server->RegisterQuery(other.query, 1, &id).ok());

  constexpr uint64_t kProducers = 5;
  constexpr size_t kOps = 8;
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Response r = server->Submit(
          p + 1, 1,
          std::span<const UpdateOp>(c.stream.data() + p * kOps, kOps));
      EXPECT_EQ(r.kind, Response::Kind::kOk);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server->Health().queue_depth < kProducers * kOps &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->Start();
  for (std::thread& t : producers) t.join();
  AwaitCommitted(*server, kProducers * kOps);
  EXPECT_GE(server->tier(), Tier::kShed);
  ASSERT_EQ(server->LiveQueryCount(), 1u);
  server->Kill();
  server.reset();

  ASSERT_TRUE(Server::Create(options, nullptr, &server).ok());
  EXPECT_EQ(server->LiveQueryCount(), 1u);
  EXPECT_EQ(server->accepted_ops(), kProducers * kOps);
}

TEST(ServeServer, FreshDirWithoutGraphIsRejected) {
  TempDir dir("nog0");
  std::unique_ptr<Server> server;
  Status s = Server::Create(FastOptions(dir.str()), nullptr, &server);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace turboflux
