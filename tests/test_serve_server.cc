// Server core of tfx_serve (serve/server.h): durability acks, per-channel
// exactly-once sequencing (DUP / overlap trim / gap rejection), restart
// recovery, and the durable match stream against an in-process QuerySet
// oracle. The chaos suite (test_serve_chaos.cc) stresses the same
// protocol under injected faults; these are the deterministic basics.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <span>
#include <string>
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
  // RegisterQuery committed once, so the snapshot stats are non-zero.
  auto number_after = [&stats](const std::string& key, size_t from = 0) {
    size_t at = stats.text.find(key, from);
    EXPECT_NE(at, std::string::npos) << key;
    return at == std::string::npos
               ? uint64_t{0}
               : std::stoull(stats.text.substr(at + key.size()));
  };
  EXPECT_GE(number_after("\"serve.snapshots\": "), 1u);
  EXPECT_GT(number_after("\"serve.snapshot_bytes\": "), 0u);
  const std::string hist = "\"serve.snapshot_ns\": {\"count\": ";
  EXPECT_GE(number_after(hist), 1u);
  EXPECT_GT(number_after("\"sum\": ", stats.text.find(hist)), 0u);

  ServerHandle handle(*server, 3);
  ASSERT_EQ(handle.Submit(std::span<const UpdateOp>(c.stream.data(), 8)).kind,
            Response::Kind::kOk);
  EXPECT_EQ(server->Pos(3).seq, 8u);
  EXPECT_EQ(server->Pos(99).seq, 0u);

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
  // A registration commits a snapshot (and its initial matches after the
  // big commit), so the recovery below restores instead of needing g0.
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

TEST(ServeServer, FreshDirWithoutGraphIsRejected) {
  TempDir dir("nog0");
  std::unique_ptr<Server> server;
  Status s = Server::Create(FastOptions(dir.str()), nullptr, &server);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace turboflux
