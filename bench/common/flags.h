#ifndef TURBOFLUX_BENCH_COMMON_FLAGS_H_
#define TURBOFLUX_BENCH_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace turboflux {
namespace bench {

/// Minimal `--key=value` command-line parser shared by the figure
/// binaries. Unknown flags abort with a usage message so typos do not
/// silently run the default experiment.
///
/// Three fleet-wide flags are implicitly known by every binary, so
/// scripts/reproduce_all.sh can pass them uniformly:
///   --threads=N     cross-query evaluation threads of the multi::QuerySet;
///                   only multi_query_scaling reads it (a single engine
///                   always runs on one thread), the others ignore it;
///   --batch=K       update-window size fed to ApplyBatch per call;
///   --stats_json=F  accumulate per-engine observability snapshots
///                   (DESIGN.md §3.8) into the JSON artifact F.
/// Binaries that predate a flag simply ignore it. The defaults
/// (threads=1, batch=1, no stats) reproduce the paper's sequential
/// one-op-at-a-time model exactly.
class Flags {
 public:
  Flags(int argc, char** argv, const std::vector<std::string>& known);

  /// The implicit `--threads` / `--batch` values (defaults 1/1).
  int64_t Threads() const { return GetInt("threads", 1); }
  int64_t Batch() const { return GetInt("batch", 1); }
  /// The implicit `--stats_json` artifact path ("" = no stats).
  std::string StatsJson() const { return GetString("stats_json", ""); }

  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  /// Comma-separated integer list, e.g. `--sizes=3,6,9,12`.
  std::vector<int64_t> GetIntList(const std::string& key,
                                  std::vector<int64_t> default_value) const;

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

}  // namespace bench
}  // namespace turboflux

#endif  // TURBOFLUX_BENCH_COMMON_FLAGS_H_
