#pragma once
// Trace roll-up: turn the spans of one traced run (the program's own
// hermite.* / grape.* / exec.task / serve.* spans plus the benchmark's
// bench.* spans around public calls) into time per span name.
//
// Self (exclusive) time of a span is its duration minus the time its
// children on the same thread cover. Spans on different threads never
// nest; pool tasks are attributed to exec.task on the thread that ran them.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace twinbench {

struct Rollup {
  std::map<std::string, double> self_s;
  std::map<std::string, double> total_s;
  /// Durations of every span of the name given to roll_up_trace as
  /// `sample_name` (for percentiles of one span).
  std::vector<double> samples_s;
  /// serve.round time not covered by any serve.job span on any thread:
  /// the scheduler's serial bookkeeping between quanta.
  double round_outside_job_s = 0.0;
  /// Share of [begin, end] on the anchor thread (the one that recorded
  /// the most `anchor_name` spans) that no span on that thread covers.
  double unattributed_frac = 0.0;
  std::size_t events = 0;

  double self(const std::string& name) const;
  double total(const std::string& name) const;
};

/// Roll up the global tracer's events between monotonic times `begin_s`
/// and `end_s`. The events pass through a Chrome trace file at
/// `scratch_path` (the tracer's only export), read back line by line.
Rollup roll_up_trace(const std::string& scratch_path, double begin_s,
                     double end_s, const std::string& anchor_name,
                     const std::string& sample_name);

}  // namespace twinbench
