// Workload "lsbench-churn-tcp": the tfx_serve core (serve::Server over a
// multi::QuerySet) behind TcpServer, fed by one closed-loop TcpClient over
// loopback. One process runs one round: it sets up the server, then
// streams a fixed number of ops in segments, each ending when a commit
// covers its last op and followed by a kill and a recovery, and checks the
// durable match stream against the static matcher on the final graph.
// run.py runs several rounds per run in separate processes and reports
// medians.
//
// The traced run additionally re-enacts the ingest loop from outside —
// journal append + flush, per-op QuerySet evaluation, match-log commit,
// snapshot — calling the layers in the server's order with a span around
// each call, because the server's own loop cannot be split from outside.

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "bench_util.h"
#include "workloads.h"
#include "turboflux/match/static_matcher.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/serve/match_log.h"
#include "turboflux/serve/protocol.h"
#include "turboflux/serve/server.h"
#include "turboflux/serve/tcp.h"
#include "turboflux/serve/wal.h"
#include "turboflux/workload/lsbench.h"
#include "turboflux/workload/query_gen.h"

namespace perfbench {
namespace {

using namespace turboflux;
using serve::MatchRecord;
using serve::Response;

// A small fleet over a large LSBench graph (4 000 users; the last 30% of
// the edges streamed, one deletion per insertion, Appendix B.2), submitted
// 8 ops at a time: ack, WAL, protocol and snapshot costs plus the DCG
// delete path dominate, with few matches. With a commit every 512 ops,
// about 1 ack in 60 waits behind a snapshot, so p99 reads the snapshot
// stall rather than sitting at its edge (1 in 128 with batches of 4 did;
// batches of 2 left p99 to host scheduling noise).
constexpr double kScale = 4.0;
constexpr double kStreamFraction = 0.3;
constexpr double kDeletionRate = 1.0;
constexpr size_t kQueries = 24;
constexpr size_t kBatch = 8;
// The stream runs in kSegments segments of one batch plus
// kCommitsPerSegment whole commits (of 512 ops, the server's default):
// 49 216 ops per round. A segment starts on an idle server, whose commit
// timer commits the first batch; the op count then commits every 512 ops,
// the last time on the segment's last op, so no segment waits for the
// timer at its end. After each segment the server is killed and recovered.
constexpr size_t kSegments = 8;
constexpr size_t kCommitsPerSegment = 12;
// Set-ups per round: the served one and spare ones between segments.
constexpr size_t kSetupReps = 3;
// Acks between resident-set samples.
constexpr size_t kRssEveryBatches = 64;

// Query sampling seed, and the match-count cap that keeps the queries
// selective (a broad one would otherwise write most of the match log).
constexpr uint64_t kQuerySeed = 1;
constexpr uint64_t kGraphSeed = 42;
constexpr uint64_t kMaxMatches = 10000;

constexpr uint64_t kChannel = 1;
constexpr int kPings = 2000;

/// Counts committed matches per query id: initial + positive - negative.
std::map<uint32_t, int64_t> NetMatches(const std::vector<MatchRecord>& recs) {
  std::map<uint32_t, int64_t> net;
  for (const MatchRecord& r : recs) net[r.query] += r.positive ? 1 : -1;
  return net;
}

class TaggingSink : public multi::QuerySet::Sink {
 public:
  TaggingSink(uint64_t op_index, std::vector<MatchRecord>* out)
      : op_index_(op_index), out_(out) {}
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    out_->push_back({op_index_, query, uint8_t(positive ? 1 : 0), m});
  }

 private:
  uint64_t op_index_;
  std::vector<MatchRecord>* out_;
};

class NullSink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId, bool, const Mapping&) override {}
};

workload::TemporalGraph MakeLsBench(double scale) {
  workload::LsBenchConfig lc;
  lc.num_users = static_cast<uint64_t>(1000 * scale);
  lc.seed = kGraphSeed;
  return workload::GenerateLsBench(lc);
}

serve::ServeOptions MakeOptions(const std::string& dir) {
  serve::ServeOptions o;
  o.data_dir = dir;
  return o;
}

/// The traced re-enactment of the server's ingest loop (server.cc
/// Recover/RegisterQuery/IngestLoop/Commit) with the server's default
/// commit policy. The stream comes in segments of `segment` ops whose first
/// batch the commit timer commits, as on the served stream, where each
/// segment starts on an idle server. Returns the wall time of its stream
/// phase, which ends with the commit covering the last op.
double ReenactIngest(const Graph& g0, const std::vector<QueryGraph>& queries,
                     const UpdateStream& ops, size_t batch, size_t segment,
                     const std::string& dir, Tracer& tracer,
                     obs::StatsSnapshot& layers, RunReport& report) {
  const serve::ServeOptions defaults;
  FreshDir(dir);
  const std::string wal = dir + "/ops.wal";
  const std::string mlog = dir + "/matches.log";
  const std::string snap = dir + "/snapshot.tfxq";

  multi::QuerySet set(defaults.set);
  set.Bind(g0);
  serve::OpJournal journal;
  serve::MatchLog match_log;
  if (!journal.Open(wal, 0, 0).ok() || !match_log.Open(mlog, 0).ok()) {
    report.Fail("re-enactment cannot open its journal or match log");
    return 0;
  }
  std::vector<MatchRecord> pending;
  uint64_t commits = 0, checkpoint_bytes = 0, since_commit = 0;
  int64_t last_commit_ns = NowNs();
  auto commit = [&](uint64_t batch_id) {
    {
      ScopedSpan span(tracer, "serve.matchlog", batch_id);
      if (!match_log.AppendCommit(pending, set.applied_ops(), nullptr).ok()) {
        report.Fail("re-enactment match-log commit failed");
      }
    }
    {
      ScopedSpan span(tracer, "multi.checkpoint", batch_id);
      std::ofstream out(snap + ".tmp", std::ios::binary | std::ios::trunc);
      if (!set.Checkpoint(out).ok() || !out.flush()) {
        report.Fail("re-enactment snapshot failed");
      }
      checkpoint_bytes += static_cast<uint64_t>(out.tellp());
      out.close();
      std::filesystem::rename(snap + ".tmp", snap);
    }
    pending.clear();
    since_commit = 0;
    last_commit_ns = NowNs();
    ++commits;
  };

  for (size_t q = 0; q < queries.size(); ++q) {
    {
      ScopedSpan span(tracer, "multi.register", q);
      TaggingSink sink(set.applied_ops(), &pending);
      multi::QueryId id = 0;
      if (!set.Register(queries[q], sink, Deadline::Infinite(), &id).ok()) {
        report.Fail("re-enactment Register failed");
      }
    }
    commit(q);
  }

  const int64_t stream_start = NowNs();
  uint64_t seq = 1;
  for (size_t b = 0, i = 0; i < ops.size(); ++b, i += batch) {
    std::span<const UpdateOp> window(ops.data() + i,
                                     std::min(batch, ops.size() - i));
    {
      // Wire codec both ways: frame + parse the submit, then the OK.
      ScopedSpan span(tracer, "serve.protocol", b);
      std::string wire;
      serve::EncodeFrame(
          serve::EncodeRequest(serve::MakeSubmit(kChannel, seq, window)), wire);
      serve::FrameDecoder decoder;
      decoder.Feed(wire);
      std::string payload;
      serve::Request req;
      if (!decoder.Next(&payload) ||
          !serve::ParseRequest(payload, &req).ok()) {
        report.Fail("re-enactment request codec failed");
      }
      Response ok;
      ok.kind = Response::Kind::kOk;
      ok.seq = seq + window.size() - 1;
      Response parsed;
      if (!serve::ParseResponse(serve::EncodeResponse(ok), &parsed).ok()) {
        report.Fail("re-enactment response codec failed");
      }
    }
    {
      ScopedSpan span(tracer, "serve.wal", b);
      for (size_t k = 0; k < window.size(); ++k) {
        if (!journal.Append({kChannel, seq + k, window[k]}, nullptr).ok()) {
          report.Fail("re-enactment journal append failed");
        }
      }
      if (!journal.Flush().ok()) report.Fail("re-enactment flush failed");
    }
    seq += window.size();
    for (const UpdateOp& op : window) {
      {
        ScopedSpan span(tracer, "multi.apply", b);
        TaggingSink sink(set.applied_ops(), &pending);
        Status s = set.ApplyUpdate(op, sink, Deadline::Infinite());
        if (s.code() == StatusCode::kDeadlineExceeded) {
          report.Fail("re-enactment ApplyUpdate died");
        }
      }
      if (++since_commit >= defaults.checkpoint_every_ops) commit(b);
    }
    if (since_commit > 0 &&
        (i % segment == 0 ||
         NowNs() - last_commit_ns >=
             int64_t{defaults.checkpoint_interval_ms} * 1000000)) {
      commit(b);
    }
  }
  const double stream_s = SecondsSince(stream_start);

  layers.AddCounter("multi.consulted_evals", set.ConsultedEvals());
  layers.AddCounter("multi.runtimes", set.RuntimeCount());
  layers.AddCounter("multi.checkpoint_bytes", checkpoint_bytes);
  layers.AddCounter("serve.commits", commits);
  obs::StatsSnapshot engine;
  set.AppendStats(engine);
  auto sum = [&](const std::string& suffix) {
    uint64_t total = 0;
    for (const auto& [name, value] : engine.counters) {
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        total += value;
      }
    }
    return total;
  };
  layers.AddCounter("core.search_states", sum(".engine.search_states"));
  layers.AddCounter("core.search_seeds", sum(".engine.search_seeds"));
  layers.AddCounter("core.dcg_transitions", sum(".engine.dcg.transitions"));
  layers.AddCounter("core.matches", sum(".engine.matches_positive") +
                                        sum(".engine.matches_negative"));
  layers.AddCounter("core.peak_intermediate",
                    sum(".engine.peak_intermediate"));

  // Crash at this point (no final commit) and recover: load the journal
  // and the match log, restore the snapshot, replay the journal tail.
  journal.Close();
  match_log.Close();
  layers.AddCounter("serve.match_bytes", std::filesystem::file_size(mlog));
  std::vector<serve::PendingOp> records;
  uint64_t wal_bytes = 0;
  {
    ScopedSpan span(tracer, "serve.wal_load");
    if (!serve::OpJournal::Load(wal, &records, &wal_bytes).ok()) {
      report.Fail("re-enactment journal load failed");
    }
  }
  {
    ScopedSpan span(tracer, "serve.matchlog_load");
    std::vector<MatchRecord> durable;
    uint64_t watermark = 0, valid = 0;
    if (!serve::MatchLog::Load(mlog, &durable, &watermark, &valid).ok()) {
      report.Fail("re-enactment match-log load failed");
    }
  }
  multi::QuerySet restored(defaults.set);
  {
    ScopedSpan span(tracer, "multi.restore");
    std::ifstream in(snap, std::ios::binary);
    if (!restored.Restore(in).ok()) report.Fail("re-enactment restore failed");
  }
  {
    ScopedSpan span(tracer, "serve.replay");
    NullSink null_sink;
    for (size_t i = restored.applied_ops(); i < records.size(); ++i) {
      (void)restored.ApplyUpdate(records[i].op, null_sink,
                                 Deadline::Infinite());
    }
  }
  if (restored.applied_ops() != ops.size()) {
    report.Fail("re-enactment replay ended at the wrong op");
  }
  return stream_s;
}

/// A type-label-only 2-path (user -knows-> user -likes-> post) over a
/// fixed LSBench graph whose initial report is one commit block well over
/// the match log's 64 MiB block limit. Registers it on a fresh server,
/// reads its committed matches back, kills and recovers the server and
/// reads them again. Returns true when both reads hold every match.
bool BroadRegistration(const std::string& dir, RunReport& report) {
  workload::LsBenchConfig lc;
  lc.num_users = 4000;
  lc.seed = 1;  // fixed: the operation's inputs do not depend on --seed
  workload::StreamConfig sc;
  sc.stream_fraction = 0;
  workload::Dataset ds =
      workload::BuildDataset(workload::GenerateLsBench(lc), sc);
  workload::LsBenchVocabulary voc = workload::MakeLsBenchVocabulary();
  QueryGraph q;
  QVertexId a = q.AddVertex({voc.user});
  QVertexId b = q.AddVertex({voc.user});
  QVertexId c = q.AddVertex({voc.post});
  q.AddEdge(a, voc.knows, b);
  q.AddEdge(b, voc.likes, c);
  const uint64_t expected = StaticMatcher(ds.initial, q, {}).CountAll();
  // u64 op + u32 query + u8 sign + u32 length + 3 x u32 vertex ids.
  const uint64_t block_bytes = expected * (8 + 4 + 1 + 4 + 3 * 4);
  report.Info("broad_matches", std::to_string(expected));
  report.Info("broad_block_mib", std::to_string(block_bytes >> 20));

  FreshDir(dir);
  std::unique_ptr<serve::Server> server;
  if (!serve::Server::Create(MakeOptions(dir), &ds.initial, &server).ok()) {
    report.Fail("broad: Create failed");
    return false;
  }
  multi::QueryId id = 0;
  if (!server->RegisterQuery(q, 0, &id).ok()) return false;
  auto count = [&](serve::Server& s) {
    std::vector<MatchRecord> recs;
    if (!s.CommittedMatches(&recs).ok()) return int64_t{-1};
    return NetMatches(recs)[id];
  };
  const int64_t before_kill = count(*server);
  server->Kill();
  server.reset();
  if (!serve::Server::Create(MakeOptions(dir), nullptr, &server).ok()) {
    std::fprintf(stderr, "broad: recovery refused to start\n");
    return false;
  }
  const int64_t after_recovery = count(*server);
  server->Shutdown();
  std::fprintf(stderr,
               "broad registration: %llu matches (%llu MiB block), "
               "%lld read back, %lld after recovery\n",
               static_cast<unsigned long long>(expected),
               static_cast<unsigned long long>(block_bytes >> 20),
               static_cast<long long>(before_kill),
               static_cast<long long>(after_recovery));
  return before_kill == static_cast<int64_t>(expected) &&
         after_recovery == static_cast<int64_t>(expected);
}

/// Sets up a server on a fresh directory: Create + RegisterQuery for every
/// query + Start. Returns the seconds it took (the caller adds Listen), or
/// a negative value on failure. Fills `query_of` (server id -> index).
double SetUpServer(const Graph& g0, const std::vector<QueryGraph>& queries,
                   const std::string& dir,
                   std::unique_ptr<serve::Server>* server,
                   std::map<uint32_t, size_t>* query_of, RunReport& report) {
  FreshDir(dir);
  const int64_t t0 = NowNs();
  if (!serve::Server::Create(MakeOptions(dir), &g0, server).ok()) {
    report.Fail("Server::Create failed");
    return -1;
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    multi::QueryId id = 0;
    if (!(*server)->RegisterQuery(queries[q], 0, &id).ok()) {
      report.Fail("RegisterQuery failed");
      return -1;
    }
    (*query_of)[id] = q;
  }
  (*server)->Start();
  return SecondsSince(t0);
}

/// What the stream segments of a round measured.
struct StreamStats {
  double stream_s = 0;  ///< summed over the segments
  /// Every ack of the round, in milliseconds: a segment's 769 acks would
  /// leave only 8 beyond its p99.
  std::vector<double> ack_ms;
  /// Per segment: durable percentiles (over 6 152 ops), in milliseconds.
  std::vector<double> durable_p50, durable_p99;
};

/// Streams ops[begin, end) to a started server from one closed-loop TCP
/// producer in batches of kBatch, on a TcpServer of its own, until a
/// commit covers the last op; checks POS, RETRY and shedding. An op is
/// durable once committed_ops() passes it, as the producer sees after each
/// ack and, past the last ack, by polling on this same thread. Samples the
/// resident set every kRssEveryBatches acks. With `pings`, times PING round
/// trips on the idle server afterwards.
void StreamSegment(serve::Server& server, const UpdateStream& ops,
                   size_t begin, size_t end, bool pings, Tracer& tracer,
                   RssGrowth& rss, StreamStats& stats,
                   obs::StatsSnapshot& layers, RunReport& report) {
  serve::TcpServer tcp_server;
  serve::TcpClient client;
  if (!tcp_server.Listen(server, 0).ok() ||
      !client.Connect("127.0.0.1", tcp_server.port()).ok()) {
    report.Fail("TcpServer::Listen or TcpClient::Connect failed");
    return;
  }
  std::vector<int64_t> submit_ns(end - begin);
  std::vector<double>& ack_ms = stats.ack_ms;
  std::vector<double> durable_ms;
  durable_ms.reserve(end - begin);
  size_t durable_next = begin;
  int64_t last_durable_ns = 0;  // when the last op was seen durable
  auto note_durable = [&](int64_t now, size_t sent) {
    const uint64_t committed = server.committed_ops();
    while (durable_next < committed && durable_next < sent) {
      durable_ms.push_back(
          static_cast<double>(now - submit_ns[durable_next - begin]) * 1e-6);
      ++durable_next;
    }
    if (durable_next == end) last_durable_ns = now;
  };
  uint64_t seq = begin + 1;
  bool saw_retry = false;
  const int64_t stream_start = NowNs();
  for (size_t b = begin / kBatch, i = begin; i < end; ++b, i += kBatch) {
    std::span<const UpdateOp> window(ops.data() + i,
                                     std::min(kBatch, end - i));
    const int64_t t0 = NowNs();
    for (size_t k = 0; k < window.size(); ++k) submit_ns[i - begin + k] = t0;
    Response r;
    {
      ScopedSpan span(tracer, "serve.submit", b);
      if (!client.Call(serve::MakeSubmit(kChannel, seq, window), &r).ok()) {
        r.kind = Response::Kind::kErr;
      }
    }
    const int64_t t1 = NowNs();
    ack_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    saw_retry |= r.kind == Response::Kind::kRetry;
    if (r.kind != Response::Kind::kOk || r.seq != seq + window.size() - 1) {
      report.Fail("submit of batch " + std::to_string(b) + " not acked OK");
      return;
    }
    seq += window.size();
    note_durable(t1, i + window.size());
    if ((b + 1) % kRssEveryBatches == 0) rss.Sample();
  }
  while (durable_next < end) {
    if (SecondsSince(stream_start) > 60) {
      report.Fail("stream not durable in time");
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    note_durable(NowNs(), end);
  }
  stats.stream_s += static_cast<double>(last_durable_ns - stream_start) * 1e-9;
  rss.Sample();

  Response pos;
  serve::Request pos_request;
  pos_request.kind = serve::Request::Kind::kPos;
  pos_request.channel = kChannel;
  if (!client.Call(pos_request, &pos).ok()) pos.seq = 0;
  if (pos.seq != end) {
    report.Fail("POS " + std::to_string(pos.seq) + " != ops sent " +
                std::to_string(end));
  }
  if (saw_retry) {
    report.Fail("the producer saw RETRY");
  }
  if (server.Stats().text.find("\"serve.sheds\": 0,") == std::string::npos ||
      server.tier() != serve::Tier::kNormal) {
    report.Fail("the server shed queries or left the normal tier");
  }
  if (pings) {
    // Ping round trips on the idle server: the protocol floor.
    std::vector<double> rtt_us;
    serve::Request ping;
    ping.kind = serve::Request::Kind::kPing;
    obs::HistogramData h;
    for (int k = 0; k < kPings; ++k) {
      const int64_t t0 = NowNs();
      Response pong;
      if (!client.Call(ping, &pong).ok()) report.Fail("PING failed");
      const int64_t rtt = NowNs() - t0;
      rtt_us.push_back(static_cast<double>(rtt) * 1e-3);
      h.Record(static_cast<uint64_t>(rtt));
    }
    layers.AddHistogram("serve.ping_rtt_ns", h);
    report.layer["serve.ping_rtt_us"] = Quantile(rtt_us, 0.5);
  }
  client.Close();
  tcp_server.Stop();

  stats.durable_p50.push_back(Quantile(durable_ms, 0.5));
  stats.durable_p99.push_back(Quantile(durable_ms, 0.99));
}

/// One evaluation pass: times one QuerySet::ApplyUpdate call per op over a
/// fresh bare QuerySet (the server's evaluation layer with nothing else on
/// the path) holding `queries`, and appends the pass's p50 and p99 in
/// microseconds.
void TimeEvaluation(const Graph& g0, const std::vector<QueryGraph>& queries,
                    const UpdateStream& ops, std::vector<double>& p50_us,
                    std::vector<double>& p99_us, RunReport& report) {
  const serve::ServeOptions defaults;
  multi::QuerySet set(defaults.set);
  set.Bind(g0);
  NullSink sink;
  for (const QueryGraph& q : queries) {
    multi::QueryId id = 0;
    if (!set.Register(q, sink, Deadline::Infinite(), &id).ok()) {
      report.Fail("QuerySet::Register failed");
    }
  }
  std::vector<double> us;
  us.reserve(ops.size());
  for (const UpdateOp& op : ops) {
    const int64_t t0 = NowNs();
    Status s = set.ApplyUpdate(op, sink, Deadline::Infinite());
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (s.code() == StatusCode::kDeadlineExceeded) {
      report.Fail("QuerySet::ApplyUpdate died");
    }
  }
  p50_us.push_back(Quantile(us, 0.5));
  p99_us.push_back(Quantile(us, 0.99));
}

}  // namespace

RunReport RunChurnTcp(const RunOptions& opt, Tracer& tracer,
                      obs::StatsSnapshot& layers) {
  RunReport report;
  const double scale = opt.smoke ? 0.25 : kScale;
  const size_t want_queries = opt.smoke ? 12 : kQueries;
  workload::Dataset ds;
  std::vector<QueryGraph> queries;
  {
    const workload::TemporalGraph temporal = MakeLsBench(scale);
    ds = SeededStream(temporal, kStreamFraction, kDeletionRate, opt.seed);
    // The standing queries are fixed: sampled from the split of
    // kQuerySeed, keeping the selective ones (at most kMaxMatches matches
    // there).
    workload::Dataset sample =
        SeededStream(temporal, kStreamFraction, kDeletionRate, kQuerySeed);
    workload::QuerySetGenConfig gen;
    gen.base.shape = workload::QueryShape::kTree;
    gen.base.num_edges = 4;
    gen.base.count = 2 * want_queries;
    gen.base.seed = kQuerySeed;
    gen.base.keep_full_labels = 0.85;
    gen.prefix_overlap = 0.5;
    gen.duplicate_fraction = 0.2;
    queries = SelectQueries(workload::GenerateQuerySet(sample, gen),
                            sample.final_graph, kMaxMatches, want_queries);
  }
  const serve::ServeOptions defaults;
  const size_t segments = opt.smoke ? 2 : kSegments;
  const size_t per_segment =
      kBatch + (opt.smoke ? 1 : kCommitsPerSegment) *
                   defaults.checkpoint_every_ops;
  const size_t want_ops = segments * per_segment;
  if (queries.size() != want_queries || ds.stream.size() < want_ops) {
    report.Fail("inputs too small: " + std::to_string(queries.size()) +
                " queries, " + std::to_string(ds.stream.size()) + " ops");
    return report;
  }
  ds.stream.resize(want_ops);
  const UpdateStream& ops = ds.stream;
  const Graph& g0 = ds.initial;
  report.Info("g0_edges", std::to_string(g0.EdgeCount()));
  report.Info("stream_ops", std::to_string(ops.size()));
  report.Info("queries", std::to_string(queries.size()));
  report.Phase("generate");

  // Evaluation passes (update_*): this one, one after each recovery and
  // one at the end, spread over the round; their percentiles are averaged
  // (see Mean).
  std::vector<double> update_p50_us, update_p99_us;
  TimeEvaluation(g0, queries, ops, update_p50_us, update_p99_us, report);

  // Memory: resident-set growth from here, sampled while the server runs
  // (see RssGrowth).
  RssGrowth rss;
  rss.Start();

  // Set-up: the served one, then kSetupReps - 1 spare ones between the
  // segments on another directory, thrown away; setup_s is the mean.
  const std::string dir = opt.work_dir + "/serve";
  std::unique_ptr<serve::Server> server;
  std::map<uint32_t, size_t> query_of;
  std::vector<double> setup_s;
  auto set_up = [&](const std::string& at, std::unique_ptr<serve::Server>* s,
                    std::map<uint32_t, size_t>* ids) {
    const int64_t t0 = NowNs();
    if (SetUpServer(g0, queries, at, s, ids, report) < 0) return false;
    // Listen belongs to the set-up; each segment listens on its own
    // TcpServer (a stopped one cannot listen again), so this one is only
    // timed.
    serve::TcpServer listener;
    if (!listener.Listen(**s, 0).ok()) {
      report.Fail("TcpServer::Listen failed");
      return false;
    }
    setup_s.push_back(SecondsSince(t0));
    listener.Stop();
    return true;
  };
  if (!set_up(dir, &server, &query_of)) return report;
  rss.Sample();
  int64_t idle_since = NowNs();  // the last registration's commit
  report.Phase("setup");

  // The stream in segments, each followed by a kill and a recovery
  // (Server::Kill -> Server::Create on the same directory) that must keep
  // the durable match stream byte-identical, and by an evaluation pass;
  // the stream continues on the recovered server, started just before it,
  // so no server thread shares the CPU with the passes. A segment starts
  // on a server idle for longer than its commit interval, so the commit
  // timer commits its first batch and the op count commits every 512 ops
  // from there, up to and including its last op.
  StreamStats stream;
  std::vector<double> recovery_s;
  std::string canonical;
  std::vector<MatchRecord> matches;
  double disk_mb = 0;
  for (size_t seg = 0; seg < segments; ++seg) {
    const bool last = seg + 1 == segments;
    if (seg > 0) {
      TimeEvaluation(g0, queries, ops, update_p50_us, update_p99_us, report);
      RssGrowth::Release();
    }
    const int64_t idle_until =
        idle_since + (int64_t{defaults.checkpoint_interval_ms} + 10) * 1000000;
    if (NowNs() < idle_until) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(idle_until - NowNs()));
    }
    if (seg > 0) server->Start();
    StreamSegment(*server, ops, seg * per_segment, (seg + 1) * per_segment,
                  last && tracer.on(), tracer, rss, stream, layers, report);
    if (!report.correct) return report;
    matches.clear();
    if (!server->CommittedMatches(&matches).ok()) {
      report.Fail("cannot read committed matches");
    }
    canonical = serve::MatchLog::CanonicalMatchStream(matches);
    if (last) disk_mb = static_cast<double>(DirBytes(dir)) / (1 << 20);

    server->Kill();
    server.reset();
    const int64_t t0 = NowNs();
    Status s = serve::Server::Create(MakeOptions(dir), nullptr, &server);
    recovery_s.push_back(SecondsSince(t0));
    if (!s.ok()) {
      report.Fail("recovery failed: " + s.message());
      return report;
    }
    std::vector<MatchRecord> after;
    if (!server->CommittedMatches(&after).ok() ||
        serve::MatchLog::CanonicalMatchStream(after) != canonical) {
      report.Fail("durable match stream changed across recovery");
    }
    idle_since = NowNs();  // the recovery's own commit point
    if (setup_s.size() < kSetupReps && seg % 3 == 1) {
      std::unique_ptr<serve::Server> spare;
      std::map<uint32_t, size_t> spare_ids;
      const std::string spare_dir = opt.work_dir + "/spare";
      if (!set_up(spare_dir, &spare, &spare_ids)) return report;
      spare->Shutdown();
      spare.reset();
      std::filesystem::remove_all(spare_dir);
    }
  }
  TimeEvaluation(g0, queries, ops, update_p50_us, update_p99_us, report);
  server->Shutdown();
  server.reset();
  std::filesystem::remove_all(dir);
  report.attempted = ops.size();
  report.Phase("stream_and_recovery");

  // The outputs every round of a run must agree on.
  report.Info("output_digest", Digest(canonical));
  report.Info("durable_match_records", std::to_string(matches.size()));

  // Reference: per query, initial + positive - negative durable matches
  // equal the static matcher's count on the final graph.
  if (opt.reference) {
    Graph g_final = g0;
    for (size_t i = 0; i < ops.size(); ++i) {
      ScopedSpan span(tracer, "graph.update", i);
      ApplyUpdate(g_final, ops[i]);
    }
    std::map<uint32_t, int64_t> net = NetMatches(matches);
    for (const auto& [id, q] : query_of) {
      const uint64_t expected =
          StaticMatcher(g_final, queries[q], {}).CountAll();
      if (net[id] != static_cast<int64_t>(expected)) {
        report.Fail("query " + std::to_string(q) + ": durable net matches " +
                    std::to_string(net[id]) + " != CountAll(g_final) " +
                    std::to_string(expected));
      }
    }
    report.Phase("reference");
  }

  if (tracer.on()) {
    const double reenact_s =
        ReenactIngest(g0, queries, ops, kBatch, per_segment,
                      opt.work_dir + "/reenact",
                      tracer, layers, report);
    report.Info("reenacted_stream_s", std::to_string(reenact_s));
    report.layer["serve.unattributed_s"] = stream.stream_s - reenact_s;
    std::filesystem::remove_all(opt.work_dir + "/reenact");
    report.Phase("reenact");
  }

  // The workload's one expected failure, once per round: a registration
  // whose initial report exceeds the match log's block limit. Its inputs
  // do not depend on the seed.
  if (!opt.smoke) {
    report.attempted += 1;
    if (!BroadRegistration(opt.work_dir + "/broad", report)) {
      report.failed += 1;
    }
    std::filesystem::remove_all(opt.work_dir + "/broad");
    report.Phase("broad_registration");
  }

  report.Add("setup_s", Mean(setup_s), "s");
  report.Add("stream_ops_per_s",
             static_cast<double>(ops.size()) / stream.stream_s, "ops/s");
  report.Add("update_p50_us", Mean(update_p50_us), "us");
  report.Add("update_p99_us", Mean(update_p99_us), "us");
  report.Add("ack_p50_ms", Quantile(stream.ack_ms, 0.5), "ms");
  report.Add("ack_p99_ms", Quantile(stream.ack_ms, 0.99), "ms");
  report.Add("durable_p50_ms", Mean(stream.durable_p50), "ms");
  report.Add("durable_p99_ms", Mean(stream.durable_p99), "ms");
  report.Add("recovery_s", Mean(recovery_s), "s");
  report.Add("peak_rss_mb", rss.GrowthMiB(), "MiB");
  report.Add("disk_mb", disk_mb, "MiB");
  report.Info("ack_samples", std::to_string(stream.ack_ms.size()));
  report.Info("stream_s", std::to_string(stream.stream_s));
  return report;
}

}  // namespace perfbench
