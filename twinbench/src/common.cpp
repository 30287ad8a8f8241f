#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <sstream>

#include "nbody/snapshot.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace twinbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++failed_checks_;
  std::printf("CHECK FAILED: %s\n", what.c_str());
  std::fflush(stdout);
}

std::string Report::json_line() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      os << m.value;
    } else {
      os << "null";
    }
    os << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void Report::print_table() const {
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-32s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  checks: %zu run, %zu failed; %llu attempted, %llu failed\n",
              checks_, failed_checks_,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double now_s() { return g6::obs::monotonic_seconds(); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mid_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

std::string snapshot_bytes(const g6::ParticleSet& set, double t) {
  std::ostringstream os;
  g6::write_snapshot(os, set, t);
  return os.str();
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return 0;
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

double counter(const char* name) {
  return static_cast<double>(
      g6::obs::MetricsRegistry::global().counter(name).value());
}

namespace {

/// Registry histograms are created on first use with their bounds; the
/// bounds here only matter if the program never created the instrument.
g6::obs::HistogramMetric::Snapshot histogram(const char* name) {
  return g6::obs::MetricsRegistry::global().histogram(name, 0.0, 1.0, 1)
      .snapshot();
}

}  // namespace

double histogram_percentile(const char* name, double p) {
  const auto snap = histogram(name);
  std::size_t total = 0;
  for (const std::size_t c : snap.counts) total += c;
  if (total == 0 || snap.counts.empty()) return 0.0;
  const double width = (snap.hi - snap.lo) / static_cast<double>(snap.counts.size());
  const double target = p * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t b = 0; b < snap.counts.size(); ++b) {
    const double c = static_cast<double>(snap.counts[b]);
    if (c > 0.0 && seen + c >= target) {
      return snap.lo + width * (static_cast<double>(b) + (target - seen) / c);
    }
    seen += c;
  }
  return snap.hi;
}

double histogram_mean(const char* name) { return histogram(name).mean; }

}  // namespace twinbench
