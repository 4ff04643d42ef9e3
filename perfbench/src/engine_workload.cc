// Workload "netflow-engine": one TurboFluxEngine per standing query over
// an insert-only Netflow stream, the queries evaluated in turn for every
// op. DCG maintenance and SubgraphSearch do nearly all the work; the
// multi-query and serve layers are not on this path.
//
// One process runs one round: Init every engine on g0, then stream the ops
// in three parts, each followed by a checkpoint and restore of every
// engine. run.py runs several rounds per run in separate processes and
// reports medians.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench_util.h"
#include "workloads.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/match/static_matcher.h"
#include "turboflux/workload/netflow.h"
#include "turboflux/workload/query_gen.h"

namespace perfbench {
namespace {

using namespace turboflux;

// One fixed Netflow graph at 2x the figure benches' unit scale (the fig14
// recipe); the stream is its last 30% of flows in a seeded order. Twelve size-6
// cyclic queries.
constexpr double kScale = 2.0;
constexpr double kStreamFraction = 0.3;
constexpr uint64_t kGraphSeed = 7;
constexpr size_t kQueries = 12;
constexpr size_t kQueryEdges = 6;
// Stream ops per round: about 3.5 s of stream on a 4-core Xeon at the
// commit that added it.
constexpr size_t kOpsPerRound = 23000;
// Set-ups per round, recoveries per round (one after each part of the
// stream), stream segments the percentiles are taken over, and ops between
// resident-set samples.
constexpr int kSetupReps = 3;
constexpr int kRecoveries = 3;
constexpr size_t kSegments = 10;
constexpr size_t kRssEvery = 1000;

// Query sampling: candidates drawn, the seed and graph scale they are drawn
// with, and the match-count cap there that keeps one query from dominating
// the stream. Netflow vertices carry no labels, so a query is an edge-label
// pattern that applies to any graph of the generator.
constexpr size_t kQueryCandidates = 48;
constexpr uint64_t kQuerySeed = 1;
constexpr double kSampleScale = 0.5;
constexpr uint64_t kMaxSampleMatches = 5000;

class CountingSink : public MatchSink {
 public:
  void OnMatch(bool positive, const Mapping&) override {
    ++(positive ? positive_ : negative_);
  }
  uint64_t positive_ = 0;
  uint64_t negative_ = 0;
};

workload::TemporalGraph MakeNetflow(double scale) {
  workload::NetflowConfig nc;
  nc.num_hosts = static_cast<uint64_t>(8000 * scale);
  nc.num_flows = static_cast<uint64_t>(40000 * scale);
  nc.seed = kGraphSeed;
  return workload::GenerateNetflow(nc);
}

}  // namespace

RunReport RunNetflowEngine(const RunOptions& opt, Tracer& tracer,
                           obs::StatsSnapshot& layers) {
  RunReport report;
  const double scale = opt.smoke ? 0.25 : kScale;
  workload::Dataset ds =
      SeededStream(MakeNetflow(scale), kStreamFraction, 0, opt.seed);

  std::vector<QueryGraph> queries;
  {
    workload::Dataset sample =
        SeededStream(MakeNetflow(opt.smoke ? scale : kSampleScale),
                     kStreamFraction, 0, kQuerySeed);
    workload::QueryGenConfig qc;
    qc.shape = workload::QueryShape::kGraph;
    qc.num_edges = kQueryEdges;
    qc.count = kQueryCandidates;
    qc.seed = kQuerySeed;
    queries = SelectQueries(workload::GenerateQueries(sample, qc),
                            sample.final_graph, kMaxSampleMatches, kQueries);
  }
  const size_t want_ops = opt.smoke ? 500 : kOpsPerRound;
  if (queries.size() != kQueries || ds.stream.size() < want_ops) {
    report.Fail("inputs too small: " + std::to_string(queries.size()) +
                " queries, " + std::to_string(ds.stream.size()) + " ops");
    return report;
  }
  ds.stream.resize(want_ops);
  const Graph& g0 = ds.initial;
  const UpdateStream& ops = ds.stream;
  report.Info("g0_edges", std::to_string(g0.EdgeCount()));
  report.Info("stream_ops", std::to_string(ops.size()));
  report.Info("queries", std::to_string(queries.size()));
  report.Phase("generate");

  // Memory: resident-set growth from here, with the inputs built, sampled
  // while the engines are alive (see RssGrowth).
  RssGrowth rss;
  rss.Start();

  // Set-up: Init every engine on g0 (the sum over the queries). The first
  // set-up's engines take the stream; kSetupReps - 1 more are made between
  // the stream's parts and thrown away, and setup_s is the mean.
  std::vector<double> setup_s;
  auto set_up = [&](Tracer& t,
                    std::vector<std::unique_ptr<TurboFluxEngine>>& out,
                    std::vector<CountingSink>& out_sinks) {
    out_sinks.assign(queries.size(), CountingSink());
    double init_s = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      out.push_back(std::make_unique<TurboFluxEngine>());
      const int64_t t0 = NowNs();
      bool ok;
      {
        ScopedSpan span(t, "core.init", q);
        ok = out[q]->Init(queries[q], g0, out_sinks[q], Deadline::Infinite());
      }
      init_s += SecondsSince(t0);
      if (!ok) report.Fail("Init failed for query " + std::to_string(q));
    }
    setup_s.push_back(init_s);
  };
  std::vector<std::unique_ptr<TurboFluxEngine>> engines;
  std::vector<CountingSink> sinks;
  set_up(tracer, engines, sinks);  // core.init_s covers this set-up
  std::vector<uint64_t> initial(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) initial[q] = sinks[q].positive_;
  rss.Sample();
  report.Phase("setup");

  // Recovery: checkpoint every engine to its own file (the durable state
  // of an embedded engine), drop the engines and restore each from its
  // file; the stream then continues on the restored engines. The first
  // restored engines must checkpoint to the same bytes as before.
  const std::string dir = opt.work_dir + "/engine";
  std::vector<double> recovery_s;
  double disk_mb = 0;
  auto recover = [&]() {
    FreshDir(dir);
    std::vector<std::string> snapshots(engines.size());
    for (size_t q = 0; q < engines.size(); ++q) {
      std::ostringstream out;
      if (!engines[q]->Checkpoint(out).ok()) report.Fail("Checkpoint failed");
      snapshots[q] = out.str();
      std::ofstream f(dir + "/q" + std::to_string(q) + ".tfx",
                      std::ios::binary | std::ios::trunc);
      f << snapshots[q];
      if (!f.flush()) report.Fail("cannot write an engine snapshot");
    }
    disk_mb = static_cast<double>(DirBytes(dir)) / (1 << 20);
    engines.clear();
    double restore_s = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      engines.push_back(std::make_unique<TurboFluxEngine>());
      const int64_t t0 = NowNs();
      std::ifstream in(dir + "/q" + std::to_string(q) + ".tfx",
                       std::ios::binary);
      Status s = engines[q]->Restore(in);
      restore_s += SecondsSince(t0);
      if (!s.ok()) report.Fail("Restore: " + s.message());
      std::ostringstream again;
      if (recovery_s.empty() && (!engines[q]->Checkpoint(again).ok() ||
                                 again.str() != snapshots[q])) {
        report.Fail("engine " + std::to_string(q) +
                    " did not restore to the same state");
      }
    }
    recovery_s.push_back(restore_s);
  };

  // Stream: each op goes to every query's engine in turn, in kRecoveries
  // parts, each followed by a recovery and (but the last) a spare set-up,
  // so every repeated measurement is spread over the round.
  std::vector<double> update_us, op_ms;
  update_us.reserve(ops.size() * queries.size());
  op_ms.reserve(ops.size());
  double stream_s = 0;
  uint64_t states = 0, seeds = 0, transitions = 0, matches = 0, peak = 0;
  Tracer untraced(false);
  for (int part = 0; part < kRecoveries; ++part) {
    const size_t begin = ops.size() * part / kRecoveries;
    const size_t end = ops.size() * (part + 1) / kRecoveries;
    for (size_t i = begin; i < end; ++i) {
      double op_s = 0;
      for (size_t q = 0; q < engines.size(); ++q) {
        const int64_t t0 = NowNs();
        bool ok;
        {
          ScopedSpan span(tracer, "core.apply", i);
          ok = engines[q]->ApplyUpdate(ops[i], sinks[q], Deadline::Infinite());
        }
        const double dt = SecondsSince(t0);
        if (!ok) report.Fail("ApplyUpdate failed at op " + std::to_string(i));
        update_us.push_back(dt * 1e6);
        op_s += dt;
      }
      op_ms.push_back(op_s * 1e3);
      stream_s += op_s;
      if (i % kRssEvery == 0) rss.Sample();
    }
    rss.Sample();
    // A restored engine counts from zero: add up each part's counters
    // (the peak intermediate: the largest part's).
    uint64_t part_peak = 0;
    for (const auto& engine : engines) {
      const obs::EngineStats* st = engine->engine_stats();
      states += st->search_states.value();
      seeds += st->search_seeds.value();
      transitions += st->dcg.transitions.value();
      matches += st->matches_positive.value() + st->matches_negative.value();
      part_peak += st->peak_intermediate.value();
    }
    peak = std::max(peak, part_peak);
    recover();
    if (part + 1 < kSetupReps) {
      std::vector<std::unique_ptr<TurboFluxEngine>> spare;
      std::vector<CountingSink> spare_sinks;
      set_up(untraced, spare, spare_sinks);
      for (size_t q = 0; q < queries.size(); ++q) {
        if (spare_sinks[q].positive_ != initial[q]) {
          report.Fail("a repeated set-up reported other initial matches");
        }
      }
    }
    RssGrowth::Release();
  }
  report.attempted = ops.size() * queries.size();
  report.Info("stream_s", std::to_string(stream_s));
  std::filesystem::remove_all(dir);
  report.Phase("stream_and_recovery");

  if (tracer.on()) {
    layers.AddCounter("core.search_states", states);
    layers.AddCounter("core.search_seeds", seeds);
    layers.AddCounter("core.dcg_transitions", transitions);
    layers.AddCounter("core.matches", matches);
    layers.AddCounter("core.peak_intermediate", peak);
  }

  // The outputs every process of a run must agree on.
  std::string outputs;
  for (const CountingSink& s : sinks) {
    outputs += std::to_string(s.positive_) + "/" +
               std::to_string(s.negative_) + " ";
  }
  report.Info("output_digest", Digest(outputs));

  // References computed apart from the engine: the static matcher on g0
  // and on g0 with the whole stream applied.
  if (opt.reference) {
    Graph g_final = g0;
    for (size_t i = 0; i < ops.size(); ++i) {
      ScopedSpan span(tracer, "graph.update", i);
      ApplyUpdate(g_final, ops[i]);
    }
    // Counted on up to 4 threads on every CPU: the measurements are over
    // by now.
    UnpinCpu();
    std::vector<uint64_t> count_g0(queries.size());
    std::vector<uint64_t> count_final(queries.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    const unsigned threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (size_t q; (q = next.fetch_add(1)) < queries.size();) {
          count_g0[q] = StaticMatcher(g0, queries[q], {}).CountAll();
          count_final[q] = StaticMatcher(g_final, queries[q], {}).CountAll();
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (size_t q = 0; q < queries.size(); ++q) {
      const uint64_t before = count_g0[q];
      const uint64_t after = count_final[q];
      if (initial[q] != before) {
        report.Fail("query " + std::to_string(q) + ": initial matches " +
                    std::to_string(initial[q]) + " != CountAll(g0) " +
                    std::to_string(before));
      }
      const uint64_t positives = sinks[q].positive_ - initial[q];
      if (sinks[q].negative_ != 0 || positives != after - before) {
        report.Fail("query " + std::to_string(q) + ": stream positives " +
                    std::to_string(positives) + " != CountAll delta " +
                    std::to_string(after - before));
      }
    }
    report.Phase("reference");
  }

  report.Add("setup_s", Mean(setup_s), "s");
  report.Add("stream_ops_per_s",
             static_cast<double>(report.attempted) / stream_s, "ops/s");
  // Percentiles per tenth of the stream, averaged (see Mean).
  auto segment_mean = [](const std::vector<double>& samples, double p) {
    std::vector<double> per_segment;
    const size_t n = samples.size() / kSegments;
    for (size_t s = 0; s < kSegments; ++s) {
      std::vector<double> seg(samples.begin() + s * n,
                              samples.begin() + (s + 1) * n);
      per_segment.push_back(Quantile(seg, p));
    }
    return Mean(per_segment);
  };
  report.Add("update_p50_us", segment_mean(update_us, 0.5), "us");
  report.Add("update_p99_us", segment_mean(update_us, 0.99), "us");
  // An embedded engine has answered an op when the last query returns
  // from it, and its matches are final then: ack and durable coincide.
  const double ack_p50 = segment_mean(op_ms, 0.5);
  const double ack_p99 = segment_mean(op_ms, 0.99);
  report.Add("ack_p50_ms", ack_p50, "ms");
  report.Add("ack_p99_ms", ack_p99, "ms");
  report.Add("durable_p50_ms", ack_p50, "ms");
  report.Add("durable_p99_ms", ack_p99, "ms");
  report.Add("recovery_s", Mean(recovery_s), "s");
  report.Add("peak_rss_mb", rss.GrowthMiB(), "MiB");
  report.Add("disk_mb", disk_mb, "MiB");
  return report;
}

}  // namespace perfbench
