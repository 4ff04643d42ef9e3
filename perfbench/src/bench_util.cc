#include "bench_util.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "turboflux/common/rng.h"
#include "turboflux/match/static_matcher.h"

namespace perfbench {

double Quantile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

std::string Digest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double ResidentMiB() {
  // statm: total program size, then resident pages.
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

void RssGrowth::Release() { malloc_trim(0); }

void RssGrowth::Start() {
  Release();
  base_ = ResidentMiB();
  peak_ = base_;
}

void RssGrowth::Sample() { peak_ = std::max(peak_, ResidentMiB()); }

namespace {
cpu_set_t g_allowed_cpus;
bool g_pinned = false;
}  // namespace

int PinToOneCpu() {
  if (sched_getaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &g_allowed_cpus)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
    g_pinned = true;
    return cpu;
  }
  return -1;
}

void UnpinCpu() {
  if (g_pinned) sched_setaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus);
  g_pinned = false;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

turboflux::workload::Dataset SeededStream(
    turboflux::workload::TemporalGraph temporal, double stream_fraction,
    double deletion_rate, uint64_t seed) {
  // The same split point as BuildDataset; only the suffix is shuffled.
  auto& edges = temporal.edges;
  const size_t initial_count =
      edges.size() - static_cast<size_t>(static_cast<double>(edges.size()) *
                                         stream_fraction);
  turboflux::Rng rng(seed);
  for (size_t n = edges.size() - initial_count; n > 1; --n) {
    std::swap(edges[initial_count + n - 1],
              edges[initial_count + rng.NextIndex(n)]);
  }
  turboflux::workload::StreamConfig sc;
  sc.stream_fraction = stream_fraction;
  sc.deletion_rate = deletion_rate;
  sc.seed = seed;
  return turboflux::workload::BuildDataset(temporal, sc);
}

std::vector<turboflux::QueryGraph> SelectQueries(
    const std::vector<turboflux::QueryGraph>& candidates,
    const turboflux::Graph& g, uint64_t max_matches, size_t want) {
  std::vector<turboflux::QueryGraph> out;
  turboflux::StaticMatchOptions options;
  options.limit = max_matches + 1;
  for (const turboflux::QueryGraph& q : candidates) {
    if (out.size() == want) break;
    uint64_t n = turboflux::StaticMatcher(g, q, options).CountAll();
    if (n >= 1 && n <= max_matches) out.push_back(q);
  }
  return out;
}

void RunReport::Fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

int32_t Tracer::Begin(const char* name, uint64_t batch) {
  int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, NowNs(), 0, parent, batch});
  int32_t id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<int64_t> SelfNs(const std::vector<Tracer::Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

void Tracer::AppendSelfTimes(turboflux::obs::StatsSnapshot& out) const {
  std::vector<int64_t> self = SelfNs(spans_);
  std::vector<std::pair<std::string, turboflux::obs::HistogramData>> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::string name = std::string(spans_[i].name) + "_ns";
    auto it = std::find_if(by_name.begin(), by_name.end(),
                           [&](const auto& e) { return e.first == name; });
    if (it == by_name.end()) {
      by_name.emplace_back(name, turboflux::obs::HistogramData{});
      it = by_name.end() - 1;
    }
    it->second.Record(static_cast<uint64_t>(std::max<int64_t>(0, self[i])));
  }
  for (auto& [name, h] : by_name) out.AddHistogram(name, h);
}

double Tracer::SelfSeconds(const char* name) const {
  std::vector<int64_t> self = SelfNs(spans_);
  int64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) total += self[i];
  }
  return static_cast<double>(total) * 1e-9;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  for (const Span& s : spans_) {
    f << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
      << ", \"batch\": " << s.batch << "}\n";
  }
  return static_cast<bool>(f.flush());
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
    }
  };

  // Nearest-rank quantiles: p50 of 1..100 is 50, p99 is 99, p100 is 100.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(Quantile(v, 0.5) == 50, "p50 of 1..100 is 50");
  expect(Quantile(v, 0.99) == 99, "p99 of 1..100 is 99");
  expect(Quantile(v, 1.0) == 100, "p100 of 1..100 is 100");
  expect(Quantile(v, 0.001) == 1, "p0.1 of 1..100 is 1");
  std::vector<double> one{7};
  expect(Quantile(one, 0.99) == 7, "any quantile of one sample is it");
  std::vector<double> none;
  expect(Quantile(none, 0.5) == 0, "quantile of no samples is 0");
  std::vector<double> four{4, 1, 3, 2};
  expect(Quantile(four, 0.5) == 2, "nearest-rank median of 1..4 is 2");
  expect(Mean({1, 2, 6}) == 3, "mean of {1,2,6} is 3");
  expect(Mean({}) == 0, "mean of nothing is 0");

  // Self time: "a" [0,100) with children "b" [10,30) and "c" [40,90),
  // "c" having a child "d" [50,60).
  std::vector<Tracer::Span> spans = {{"a", 0, 100, -1, 1},
                                     {"b", 10, 30, 0, 1},
                                     {"c", 40, 90, 0, 1},
                                     {"d", 50, 60, 2, 1}};
  std::vector<int64_t> self = SelfNs(spans);
  expect(self == std::vector<int64_t>{30, 20, 40, 10},
         "self times are 30, 20, 40, 10 ns");

  // Begin/End nesting sets the parents.
  Tracer nested(true);
  int32_t a = nested.Begin("a", 1);
  nested.End(nested.Begin("b", 1));
  int32_t c = nested.Begin("c", 1);
  nested.End(nested.Begin("d", 1));
  nested.End(c);
  nested.End(a);
  const auto& got = nested.spans();
  expect(got.size() == 4 && got[0].parent == -1 && got[1].parent == 0 &&
             got[2].parent == 0 && got[3].parent == 2,
         "parents follow the begin/end nesting");
  turboflux::obs::StatsSnapshot snap;
  nested.AppendSelfTimes(snap);
  const auto* hb = snap.FindHistogram("b_ns");
  expect(hb != nullptr && hb->count == 1 &&
             hb->sum == static_cast<uint64_t>(got[1].end_ns - got[1].start_ns),
         "b_ns histogram holds b's one self time");

  Tracer off(false);
  { ScopedSpan s(off, "x"); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
  return failures;
}

}  // namespace perfbench
