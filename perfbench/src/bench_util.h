#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "turboflux/graph/graph.h"
#include "turboflux/obs/stats.h"
#include "turboflux/query/query_graph.h"
#include "turboflux/workload/stream_builder.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Exact nearest-rank quantile of `values` (sorted in place): the
/// ceil(p * n)-th smallest sample, p in (0, 1]. 0 when empty.
double Quantile(std::vector<double>& values, double p);

/// Mean of repeated measurements within one round (set-up, recovery,
/// percentiles per evaluation pass or stream segment). The host alternates between a fast
/// state and one about 1.6x slower for memory-bound code, in periods of a
/// tenth of a second and more; a mean moves in proportion to the share of
/// slow repetitions, where a median jumps between the two modes.
double Mean(const std::vector<double>& values);

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
std::string Digest(const std::string& bytes);

/// Resident set size of this process now, in MiB (/proc/self/statm).
double ResidentMiB();

/// The resident-set growth of the system under test. Start() hands the
/// heap's free memory back to the operating system (malloc_trim), so what
/// the benchmark's own input generation left behind neither counts nor
/// hides growth, and reads the baseline; Sample() reads the resident set
/// at a point where only the system under test and the fixed inputs are
/// alive; GrowthMiB() is the largest sample minus the baseline. Between
/// samples the benchmark calls Release() after freeing its own working
/// data (an evaluation pass, checkpoint copies).
class RssGrowth {
 public:
  void Start();
  void Sample();
  static void Release();
  double GrowthMiB() const { return peak_ - base_; }

 private:
  double base_ = 0;
  double peak_ = 0;
};

/// Confines this thread, and the threads it starts from now on (the
/// server's and the TCP frontend's), to one CPU: the highest-numbered of
/// those it may use. A closed loop with one producer keeps about one thread
/// busy at a time, and on one CPU its hand-offs between threads are plain
/// context switches rather than wake-ups of another (virtual) CPU, whose
/// latency swings with the host's load. Returns the CPU, or -1 when the
/// affinity cannot be set.
int PinToOneCpu();

/// Lets this thread, and the threads it starts from now on, use every CPU
/// it could before PinToOneCpu (for the reference computations).
void UnpinCpu();

/// Total bytes of the regular files under `dir` (recursive).
uint64_t DirBytes(const std::string& dir);

/// Removes `dir` if present and creates it empty.
void FreshDir(const std::string& dir);

/// Splits a fixed generated graph the way a seed picks: g0 is the graph's
/// temporal prefix, the same for every seed, and the stream is the
/// remaining `stream_fraction` of the edges in an order `seed` shuffles,
/// with deletions injected by `seed`. Seeds give different update streams
/// over the same data, so per-run costs do not hinge on one generated
/// graph's hubs.
turboflux::workload::Dataset SeededStream(
    turboflux::workload::TemporalGraph temporal, double stream_fraction,
    double deletion_rate, uint64_t seed);

/// The first `want` of `candidates` that have between 1 and `max_matches`
/// matches in `g` (counted by the static matcher, stopping past the cap).
std::vector<turboflux::QueryGraph> SelectQueries(
    const std::vector<turboflux::QueryGraph>& candidates,
    const turboflux::Graph& g, uint64_t max_matches, size_t want);

/// Command-line settings of one round.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;     ///< tiny inputs, for a quick end-to-end check
  bool reference = true;  ///< check outputs against the reference here
  std::string work_dir;   ///< directory for the round's data dirs
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main: the pass/fail summary, the
/// metrics for the requested mode, and free-form facts about the inputs.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  /// Per-layer values that are not span self times or snapshot counters.
  std::map<std::string, double> layer;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Info(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Records a failed correctness check: the run is reported incorrect.
  void Fail(const std::string& what);

  /// Notes the wall time since the previous phase ended as info
  /// "phase.<name>_s", so every run says where its time went.
  void Phase(const std::string& name) {
    const int64_t now = NowNs();
    Info("phase." + name + "_s",
         std::to_string(static_cast<double>(now - phase_start_ns) * 1e-9));
    phase_start_ns = now;
  }
  int64_t phase_start_ns = NowNs();
};

/// In-memory span recorder for the traced run (choosing-metrics §4): one
/// span per call into a layer, with its parent span and the batch it
/// served. Disabled tracers record nothing and cost one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< layer.call, e.g. "multi.apply"
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;    ///< index of the enclosing span, -1 at top level
    uint64_t batch;    ///< batch (or op) the span served
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int32_t Begin(const char* name, uint64_t batch);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (its duration minus the durations of its
  /// direct children), aggregated by span name into "<name>_ns"
  /// histograms of nanoseconds.
  void AppendSelfTimes(turboflux::obs::StatsSnapshot& out) const;

  /// Summed self time of all spans named `name`, in seconds.
  double SelfSeconds(const char* name) const;

  /// One JSON object per line: name, start_ns, end_ns, parent, batch.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// Self time of each span: its duration minus the durations of its
/// direct children (spans whose `parent` is its index).
std::vector<int64_t> SelfNs(const std::vector<Tracer::Span>& spans);

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t batch = 0)
      : tracer_(tracer), id_(tracer.on() ? tracer.Begin(name, batch) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Checks of the quantile and self-time arithmetic; returns the number of
/// failed checks (printed to stderr).
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
