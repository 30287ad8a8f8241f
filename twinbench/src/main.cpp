// twinbench — one benchmark for the GRAPE-6 software twin (README.md).
//
//   twinbench --workload serve-mixed|integrate-n2k
//             --seed N --seconds S --trace 0|1 [--size full|tiny]
//             [--workdir DIR] [--dump-plan] [--poison]
//
// Prints progress and a metric table, then as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1.
// Exit status: 0 when every correctness check passed, 1 when one failed
// or the run broke, 2 on a usage error.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "exec/thread_pool.hpp"
#include "gen.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace twinbench;

int usage(const char* what) {
  std::fprintf(stderr,
               "twinbench: %s\nusage: twinbench --workload "
               "serve-mixed|integrate-n2k --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--workdir DIR] "
               "[--dump-plan] [--poison]\n",
               what);
  return 2;
}

bool parse(int argc, char** argv, Options* opt, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dump-plan" || arg == "--poison") {
      (arg == "--poison" ? opt->poison : opt->dump_plan) = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + arg;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (!(opt->seconds > 0.0)) *error = "--seconds must be positive";
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") *error = "--trace takes 0 or 1";
      opt->trace = value == "1";
    } else if (arg == "--size") {
      if (value != "full" && value != "tiny") *error = "--size: full|tiny";
      opt->size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (arg == "--workdir") {
      opt->workdir = value;
    } else {
      *error = "unknown argument " + arg;
    }
    if (end != nullptr && *end != '\0') *error = "bad number for " + arg;
    if (!error->empty()) return false;
  }
  if (opt->workload.empty()) *error = "--workload is required";
  return error->empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!parse(argc, argv, &opt, &error)) return usage(error.c_str());
  const bool served = opt.workload == "serve-mixed";
  if (!served && opt.workload != "integrate-n2k") {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.poison && !served) return usage("--poison needs serve-mixed");

  // One heap arena for all threads. The process hosts the daemon and its
  // tenant connections together, and glibc gives a thread an arena of its
  // own when it meets contention, so which threads got one, and with it
  // the high-water mark, depended on scheduling: 16.6-20 MB between runs
  // of the same serve-mixed work, against 13.5-13.8 MB with one arena.
  mallopt(M_ARENA_MAX, 1);
  g6::exec::ThreadPool::set_global_threads(kPoolThreads);
  Report report;
  try {
    if (opt.workload == "integrate-n2k") {
      const IntegratePlan plan = plan_integrate(opt.seed, opt.size);
      if (opt.dump_plan) {
        std::fputs(describe(plan).c_str(), stdout);
        return 0;
      }
      run_integrate(opt, plan, report);
    } else {
      MixedPlan plan = plan_serve_mixed(opt.seed, opt.size);
      // Each fails every quantum it runs: quarantined after the service's
      // max_job_failures retries.
      if (opt.poison) {
        for (MixedPass& pass : plan.passes) {
          pass.load.backlog.back().chaos_fail_quanta = 1000;
          pass.journal.backlog.back().chaos_fail_quanta = 1000;
        }
      }
      if (opt.dump_plan) {
        std::fputs(describe(plan).c_str(), stdout);
        return 0;
      }
      run_served(opt, plan, report);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("run aborted: ") + e.what());
  }

  // Every declared metric is printed; a layer idle on this workload
  // reports 0. A declared end-to-end metric the workload did not measure
  // is a harness bug.
  if (opt.trace) {
    for (const MetricDecl& m : kPerLayer) {
      if (!report.has(m.name)) report.set(m.name, 0.0, m.unit);
    }
  } else if (report.correct()) {
    for (const MetricDecl& m : kEndToEnd) {
      report.check(report.has(m.name),
                   std::string("metric measured: ") + m.name);
    }
  }
  if (report.attempted == 0) report.attempted = 1;
  if (!report.correct() && report.failed == 0) report.failed = 1;

  std::printf("%s seed=%llu %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "(traced)" : "(untraced)");
  report.print_table();
  std::printf("%s\n", report.json_line().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
