#pragma once
// Workload generators. Every input of a run — job population, lease
// shapes, IC seeds and the open-loop arrival schedule — is a function of
// (workload, seed, size) alone; the program only ever sees the resulting
// JobSpecs. Sizes are fixed (never set by measured speed or by the run
// length): a faster program does the same work in less time. A served
// run has several passes, each on fresh daemons; on the reference host
// (4 vCPUs, the twin's pool at kPoolThreads) one full-size serve-mixed
// pass takes about 9 s, and an integrate-n2k integration about 5 s.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/types.hpp"

namespace twinbench {

/// One open-loop arrival: submit `spec` at `due_s` after the stream start.
struct Arrival {
  double due_s = 0.0;
  g6::serve::JobSpec spec;
};

/// A served workload: the service shape, a backlog submitted at t = 0,
/// and an optional open-loop stream.
struct ServedPlan {
  g6::serve::ServiceConfig service;
  std::vector<g6::serve::JobSpec> backlog;
  std::vector<Arrival> stream;
  bool durable = false;
  /// Upper bound on the open-loop stream's p99 lateness; a run beyond it
  /// did not apply the intended load and is rejected.
  double late_bound_s = 0.0;
  /// Largest |dE/E| a job may end with.
  double energy_bound = 0.0;
};

/// One pass of serve-mixed: the load, on a 4-board volatile machine (a
/// batch backlog plus a Poisson stream of small interactive jobs), then
/// the restart phase: a durable daemon (journal on, a checkpoint every
/// quantum) runs a backlog of small jobs and is torn down, and its
/// journal is recovered.
struct MixedPass {
  ServedPlan load;
  ServedPlan journal;
};

/// serve-mixed: the passes of an untraced run, each with inputs of its
/// own drawn from the run's seed, so that a run averages over several
/// schedules. A fixed count, so that the process high-water mark is taken
/// over the same work on every run. A traced run uses the first.
struct MixedPlan {
  std::vector<MixedPass> passes;
};
MixedPlan plan_serve_mixed(std::uint64_t seed, Size size);

/// integrate-n2k: one standalone Hermite integration on the emulated
/// machine, repeated.
struct IntegratePlan {
  std::size_t n = 2048;
  std::size_t boards = 4;
  double t_end = 0.03125;
  double eps = 1.0 / 64.0;
  double eta = 0.02;
  unsigned ic_seed = 1;
  double energy_bound = 0.0;
  /// Horizon of the 1-thread vs pool-size speed-up probe (traced runs).
  double speedup_t_end = 0.0;
};
IntegratePlan plan_integrate(std::uint64_t seed, Size size);

/// The generated inputs as text, one line per job (the benchmark's tests
/// compare these across seeds).
std::string describe(const ServedPlan& plan);
std::string describe(const MixedPlan& plan);
std::string describe(const IntegratePlan& plan);

}  // namespace twinbench
