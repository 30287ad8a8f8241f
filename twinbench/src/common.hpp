#pragma once
// Shared pieces of the twinbench program: options, the result line, the
// correctness ledger, the seeded generator and small statistics helpers.
//
// The program measures the twin from the outside: every time it reports is
// taken around a call into a public surface (GrapeService, WireServer /
// RemoteClient, HermiteIntegrator, GrapeForceEngine); every count comes
// from the program's own metrics registry, stats structs or job reports.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nbody/particle.hpp"

namespace twinbench {

/// Problem scale. kFull is the measured benchmark; kTiny is the smoke
/// size the benchmark's own tests run (same code paths, seconds not
/// minutes).
enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string workdir = ".bench_build/work";  ///< scratch files (relative)
  bool dump_plan = false;  ///< print the generated inputs and exit
  /// Make the last backlog job of each serve-mixed phase a poison job,
  /// which the service quarantines (shows that the gate can fail).
  bool poison = false;
};

/// Wall-time limit of one run: a served pass waits for its terminal
/// events until this long after the run started. run.py stops the
/// program 20 s later.
inline constexpr double kRunLimitS = 150.0;

/// Threads of the twin's task pool in every run: half of a 4-vCPU host.
/// A pass of the pool ends with its slowest thread, so a pool as wide as
/// the host stalls whenever any one core is taken by the daemon's loop,
/// a client thread or a neighbour on a shared host; with two cores spare
/// the scheduler moves the pool's threads to the free ones instead.
inline constexpr unsigned kPoolThreads = 2;

/// Metrics and correctness checks of one run, printed as the result line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }

  /// Record one correctness check; a failed one is printed at once and
  /// makes the run incorrect.
  void check(bool ok, const std::string& what);
  bool correct() const { return failed_checks_ == 0; }

  /// Units of work attempted (jobs or integrations) and how many of them
  /// failed, were rejected, were quarantined or failed a check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string json_line() const;
  /// Human-readable table of the metrics (printed before the JSON line).
  void print_table() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::size_t checks_ = 0;
  std::size_t failed_checks_ = 0;
};

/// splitmix64: the workload generator's only source of randomness. Kept
/// in the benchmark (not g6::Rng) so that the inputs cannot change when
/// the program's own generator does.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t state_;
};

double now_s();
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
/// Interquartile mean: the mean of `v` without its lowest and highest
/// quarter. Robust to an outlier at either end like a median, but it moves
/// smoothly when the values fall in two clusters, where a median of a few
/// values jumps between them.
double mid_mean(std::vector<double> v);

/// Exact bytes of the snapshot file a run would write for `set` at `t`.
std::string snapshot_bytes(const g6::ParticleSet& set, double t);
std::uint64_t fnv1a(std::string_view bytes);

double peak_rss_mb();
double process_cpu_s();
/// Sum of the sizes of the regular files under `dir` (0 when absent).
std::uint64_t dir_bytes(const std::string& dir);
std::uint64_t file_bytes(const std::string& path);

/// Counter value from the program's global metrics registry.
double counter(const char* name);
/// Percentile of a registry histogram, interpolated within its bins.
double histogram_percentile(const char* name, double p);
double histogram_mean(const char* name);

/// Flops per pairwise interaction, the paper's counting convention.
inline constexpr double kFlopsPerInteraction = 57.0;

}  // namespace twinbench
