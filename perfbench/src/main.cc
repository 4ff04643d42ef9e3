// perfbench: the repository benchmark binary. run.py builds it and
// calls it once per round:
//
//   perfbench --workload <name> --seed <n> --trace <0|1>
//             --work_dir <dir> --out_dir <dir> [--reference <0|1>] [--smoke]
//   perfbench --selftest
//
// One call runs one round of the workload. The last line of stdout is the
// round's result: {"correct", "attempted", "failed", "metrics"}; with
// --trace 1 the metrics are the per-layer ones, and the spans and a
// StatsSnapshot JSON of the layers go to --out_dir. The line before it,
// "inputs {...}", describes the inputs, the phase times and a digest of
// the outputs, which every round of a run must agree on.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Per-layer metrics reported by the traced run. A "_s" metric is the
// summed self time of the spans named without the suffix; the rest are
// counters the workloads add to the layer snapshot.
constexpr LayerMetric kLayerMetrics[] = {
    {"graph.update_s", "s"},
    {"core.init_s", "s"},
    {"core.apply_s", "s"},
    {"core.search_states", "count"},
    {"core.search_seeds", "count"},
    {"core.dcg_transitions", "count"},
    {"core.matches", "count"},
    {"core.peak_intermediate", "count"},
    {"multi.register_s", "s"},
    {"multi.apply_s", "s"},
    {"multi.consulted_evals", "count"},
    {"multi.runtimes", "count"},
    {"multi.checkpoint_s", "s"},
    {"multi.checkpoint_bytes", "bytes"},
    {"multi.restore_s", "s"},
    {"serve.wal_s", "s"},
    {"serve.matchlog_s", "s"},
    {"serve.commits", "count"},
    {"serve.match_bytes", "bytes"},
    {"serve.wal_load_s", "s"},
    {"serve.matchlog_load_s", "s"},
    {"serve.replay_s", "s"},
    {"serve.protocol_s", "s"},
    {"serve.ping_rtt_us", "us"},
    {"serve.unattributed_s", "s"},
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <netflow-engine|"
               "lsbench-churn-tcp> --seed <n> "
               "--trace <0|1> --work_dir <dir> --out_dir <dir> "
               "[--reference <0|1>] [--smoke]\n       perfbench --selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string out_dir;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--selftest") {
      int failures = SelfTest();
      std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    } else if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--work_dir") {
      opt.work_dir = value();
    } else if (arg == "--out_dir") {
      out_dir = value();
    } else if (arg == "--reference") {
      opt.reference = value() == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return Usage();
    }
  }
  if (!have_workload || opt.work_dir.empty() || out_dir.empty()) {
    return Usage();
  }
  std::filesystem::create_directories(opt.work_dir);
  std::filesystem::create_directories(out_dir);

  Tracer tracer(opt.trace);
  turboflux::obs::StatsSnapshot layers;
  RunReport report;
  const int cpu = PinToOneCpu();
  if (opt.workload == "netflow-engine") {
    report = RunNetflowEngine(opt, tracer, layers);
  } else if (opt.workload == "lsbench-churn-tcp") {
    report = RunChurnTcp(opt, tracer, layers);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return Usage();
  }

  report.Info("cpu", std::to_string(cpu));
  std::vector<Metric> metrics = report.metrics;
  if (opt.trace) {
    metrics.clear();
    for (const LayerMetric& m : kLayerMetrics) {
      std::string name = m.name;
      double value = 0;
      if (auto it = report.layer.find(name); it != report.layer.end()) {
        value = it->second;
      } else if (name.ends_with("_s")) {
        value = tracer.SelfSeconds(name.substr(0, name.size() - 2).c_str());
      } else {
        value = static_cast<double>(layers.Value(name));
      }
      metrics.push_back({name, value, m.unit});
    }
    // The artifact: the layer counters plus per-span self-time histograms,
    // in the daemon's STATS schema, and the raw spans.
    tracer.AppendSelfTimes(layers);
    const std::string stem = out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed);
    std::ofstream(stem + ".stats.json") << layers.ToJson() << "\n";
    if (!tracer.WriteJsonl(stem + ".spans.jsonl")) {
      report.Fail("cannot write " + stem + ".spans.jsonl");
    }
  }

  std::string info = "{";
  for (size_t i = 0; i < report.info.size(); ++i) {
    if (i > 0) info += ", ";
    info += "\"" + JsonEscape(report.info[i].first) + "\": \"" +
            JsonEscape(report.info[i].second) + "\"";
  }
  info += "}";
  std::printf("inputs %s\n", info.c_str());

  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
