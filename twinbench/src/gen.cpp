#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace twinbench {

namespace {

using g6::serve::JobSpec;
using g6::serve::Priority;

/// The machine of both serve-mixed phases: one host with four
/// processor boards (the paper's single-node configuration).
g6::serve::ServiceConfig four_board_service(std::size_t quantum,
                                            std::size_t queue_depth) {
  g6::serve::ServiceConfig cfg;
  cfg.machine.boards_per_host = 4;
  cfg.machine.hosts_per_cluster = 1;
  cfg.machine.clusters = 1;
  cfg.quantum_blocksteps = quantum;
  cfg.max_queue_depth = queue_depth;
  return cfg;
}

/// Fisher-Yates with the benchmark's own generator.
template <typename T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.range(0, i - 1)]);
  }
}

/// `count` values cycling through `values`, in an order dealt by `rng`.
std::vector<std::size_t> dealt(const std::vector<std::size_t>& values,
                               std::size_t count, SplitMix& rng) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(values[i % values.size()]);
  shuffle(out, rng);
  return out;
}

unsigned ic_seed(SplitMix& rng) {
  return static_cast<unsigned>(rng.range(1, 0x7fffffff));
}

/// The restart phase of serve-mixed: a durable daemon (journal on, a
/// checkpoint every quantum, grape6_served's default cadence) fed a
/// backlog of small jobs, N 48..96, equally many of each, dealt by the
/// seed.
ServedPlan journal_plan(SplitMix& rng, bool tiny) {
  const std::size_t jobs = tiny ? 8 : 32;
  const std::vector<std::size_t> sizes = dealt({48, 64, 80, 96}, jobs, rng);
  ServedPlan plan;
  plan.durable = true;
  for (std::size_t i = 0; i < jobs; ++i) {
    JobSpec s;
    s.name = "small-" + std::to_string(i);
    s.n = sizes[i];
    s.t_end = 1.0 / 64.0;
    s.seed = ic_seed(rng);
    s.boards = 1;
    s.priority = (i % 5 == 0) ? Priority::kInteractive : Priority::kBatch;
    plan.backlog.push_back(s);
  }
  plan.service = four_board_service(2, jobs + 8);
  plan.service.durability.checkpoint_every_quanta = 1;
  plan.energy_bound = 1e-3;
  return plan;
}

MixedPass plan_pass(SplitMix& rng, bool tiny) {
  // Batch backlog: a fixed ladder of sizes with fixed lease shapes (so
  // the work and its packing barely move between seeds), seeded ICs and
  // a seeded +-16 jitter. Mostly 1-2 boards, some autoscaling 1..4, one
  // whole-machine job.
  const std::size_t n_lo = tiny ? 64 : 256;
  const std::size_t n_hi = tiny ? 128 : 960;
  const std::size_t n_step = tiny ? 32 : 64;
  std::vector<std::size_t> sizes;
  for (std::size_t n = n_lo; n <= n_hi; n += n_step) sizes.push_back(n);
  // Largest first, as a sweep is queued to keep the drain tail short:
  // the jobs/hour window ends at the last batch terminal.
  std::sort(sizes.rbegin(), sizes.rend());

  struct Shape {
    std::size_t boards, lo, hi;
  };
  std::vector<Shape> shapes;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i == 0) {
      shapes.push_back({4, 0, 0});  // the whole-machine job
    } else if (i % 4 == 1) {
      shapes.push_back({2, 1, 4});  // autoscaling
    } else if (i % 4 == 2) {
      shapes.push_back({2, 0, 0});
    } else {
      shapes.push_back({1, 0, 0});
    }
  }

  const double batch_t_end = tiny ? 1.0 / 64.0 : 1.0 / 32.0;
  ServedPlan plan;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    JobSpec s;
    s.name = "batch-" + std::to_string(i);
    const auto jitter = static_cast<std::size_t>(rng.range(0, 32));
    s.n = sizes[i] + jitter - 16;
    s.t_end = batch_t_end;
    s.seed = ic_seed(rng);
    s.boards = shapes[i].boards;
    s.boards_min = shapes[i].lo;
    s.boards_max = shapes[i].hi;
    s.priority = Priority::kBatch;
    plan.backlog.push_back(s);
  }

  // Open-loop interactive stream: Poisson arrivals at a fixed rate,
  // small 1-board jobs (N 48..80, equally many of each, dealt by the
  // seed), all due within the first two thirds of the backlog's drain on
  // the reference host, so that the machine stays saturated past the
  // stream. The turnaround percentiles pool a run's passes, which puts 24
  // jobs beyond the reported p95. The rate keeps the interactive jobs well
  // below the capacity of the 4 boards on a kPoolThreads pool: with twice
  // the share of it the stream alone nears it, and its turnaround swings
  // several-fold with the host's speed. The arrivals are a Poisson process
  // given its count: sorted uniform times over count / rate, so the
  // stream's length does not move with the seed.
  const std::size_t stream_jobs = tiny ? 6 : 120;
  const double rate_per_s = 25.0;
  const std::vector<std::size_t> stream_n = dealt({48, 56, 64, 72, 80},
                                                  stream_jobs, rng);
  std::vector<double> due;
  for (std::size_t i = 0; i < stream_jobs; ++i) {
    due.push_back(rng.uniform() * static_cast<double>(stream_jobs) / rate_per_s);
  }
  std::sort(due.begin(), due.end());
  for (std::size_t i = 0; i < stream_jobs; ++i) {
    const double t = due[i];
    JobSpec s;
    s.name = "inter-" + std::to_string(i);
    s.n = stream_n[i];
    s.t_end = 1.0 / 32.0;
    s.seed = ic_seed(rng);
    s.boards = 1;
    s.priority = Priority::kInteractive;
    plan.stream.push_back({t, s});
  }

  plan.service = four_board_service(
      4, plan.backlog.size() + plan.stream.size() + 8);
  // A submit waits for the round in flight, and a batch start computes
  // its initial forces inside the round: on a contended host one sender
  // can be held for a good part of a second.
  plan.late_bound_s = 1.0;
  plan.energy_bound = 1e-3;
  return {plan, journal_plan(rng, tiny)};
}

}  // namespace

MixedPlan plan_serve_mixed(std::uint64_t seed, Size size) {
  SplitMix rng(seed ^ 0x6d69786564ULL);  // "mixed"
  MixedPlan plan;
  // Four passes take about the declared run length on the reference host.
  for (int k = 0; k < 4; ++k) {
    plan.passes.push_back(plan_pass(rng, size == Size::kTiny));
  }
  return plan;
}

IntegratePlan plan_integrate(std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  SplitMix rng(seed ^ 0x6e326bULL);  // "n2k"
  IntegratePlan plan;
  plan.n = tiny ? 256 : 2048;
  plan.boards = 4;
  plan.t_end = tiny ? 1.0 / 64.0 : 1.0 / 32.0;
  plan.ic_seed = ic_seed(rng);
  plan.energy_bound = 1e-4;
  plan.speedup_t_end = tiny ? 1.0 / 256.0 : 1.0 / 128.0;
  return plan;
}

namespace {

void describe_job(std::ostream& os, double due, const JobSpec& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "due=%.9f name=%s n=%zu t_end=%.9g seed=%u boards=%zu "
                "min=%zu max=%zu prio=%s\n",
                due, s.name.c_str(), s.n, s.t_end, s.seed, s.boards,
                s.min_boards(), s.max_boards(),
                g6::serve::priority_name(s.priority));
  os << buf;
}

}  // namespace

std::string describe(const ServedPlan& plan) {
  std::ostringstream os;
  os << "service boards=" << plan.service.pool_boards()
     << " quantum=" << plan.service.quantum_blocksteps
     << " durable=" << (plan.durable ? 1 : 0) << "\n";
  for (const JobSpec& s : plan.backlog) describe_job(os, 0.0, s);
  for (const Arrival& a : plan.stream) describe_job(os, a.due_s, a.spec);
  return os.str();
}

std::string describe(const MixedPlan& plan) {
  std::string out;
  for (std::size_t k = 0; k < plan.passes.size(); ++k) {
    out += "pass " + std::to_string(k) + "\n" +
           describe(plan.passes[k].load) + describe(plan.passes[k].journal);
  }
  return out;
}

std::string describe(const IntegratePlan& plan) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "integrate n=%zu boards=%zu t_end=%.9g eps=%.9g eta=%.9g "
                "ic_seed=%u\n",
                plan.n, plan.boards, plan.t_end, plan.eps, plan.eta,
                plan.ic_seed);
  return buf;
}

}  // namespace twinbench
