// integrate-n2k: one standalone Hermite integration on the emulated
// machine, the grape6_run --engine=grape path called as a library. The
// same integration repeats until the run's time is used; every repetition
// must reproduce the first one's counts and final state exactly.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "exec/thread_pool.hpp"
#include "fault/checkpoint.hpp"
#include "grape/engine.hpp"
#include "hermite/integrator.hpp"
#include "nbody/diagnostics.hpp"
#include "nbody/models.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "rollup.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace twinbench {

namespace {

namespace fs = std::filesystem;

/// A ready-to-step integration: ICs, engine, initial forces.
struct Setup {
  std::unique_ptr<g6::GrapeForceEngine> engine;
  std::unique_ptr<g6::HermiteIntegrator> integ;
  double e0 = 0.0;
  double ic_s = 0.0;
  double setup_s = 0.0;
};

g6::MachineConfig machine(const IntegratePlan& plan) {
  g6::MachineConfig mc = g6::MachineConfig::single_host();
  mc.boards_per_host = plan.boards;
  return mc;
}

g6::HermiteConfig hermite_config(const IntegratePlan& plan) {
  g6::HermiteConfig cfg;
  cfg.eta = plan.eta;
  return cfg;
}

Setup set_up(const IntegratePlan& plan) {
  Setup s;
  const double t0 = now_s();
  G6_PHASE("bench.setup");
  g6::ParticleSet initial;
  {
    G6_PHASE("bench.nbody.ic");
    g6::Rng rng(plan.ic_seed);
    initial = g6::make_plummer(plan.n, rng);
  }
  s.ic_s = now_s() - t0;
  s.engine = std::make_unique<g6::GrapeForceEngine>(
      machine(plan), g6::NumberFormats{}, plan.eps);
  s.integ = std::make_unique<g6::HermiteIntegrator>(initial, *s.engine,
                                                    hermite_config(plan));
  s.setup_s = now_s() - t0;
  s.e0 = g6::compute_energy(initial.bodies(), plan.eps).total();
  return s;
}

/// What one integration to the horizon produced.
struct Rep {
  double setup_s = 0.0;
  double ic_s = 0.0;
  double evolve_s = 0.0;
  unsigned long long steps = 0;
  unsigned long long blocksteps = 0;
  double sim_grape_s = 0.0;
  double sim_dma_s = 0.0;
  std::uint64_t hash = 0;
  double energy_error = 0.0;
  std::vector<double> step_s;
};

/// Integrate to `t_end`. When `ckpt_path` is set, the first blockstep
/// boundary at or past `ckpt_at` is checkpointed (outside the timing).
Rep integrate(const IntegratePlan& plan, double t_end,
              const std::string& ckpt_path = {}, double ckpt_at = 0.0) {
  Setup s = set_up(plan);
  Rep rep;
  rep.setup_s = s.setup_s;
  rep.ic_s = s.ic_s;
  g6::HermiteIntegrator& integ = *s.integ;
  bool checkpointed = ckpt_path.empty();
  while (integ.next_block_time() <= t_end) {
    const double t0 = now_s();
    {
      G6_PHASE("bench.hermite.step");
      integ.step();
    }
    const double dt = now_s() - t0;
    rep.step_s.push_back(dt);
    rep.evolve_s += dt;
    if (!checkpointed && integ.time() >= ckpt_at) {
      g6::fault::RunCheckpoint cp;
      cp.run_tag = describe(plan);
      cp.run_tag.pop_back();  // no newline in a tag
      cp.state = integ.save_state();
      cp.exponents = s.engine->exponents();
      cp.e0 = s.e0;
      g6::fault::save_checkpoint(ckpt_path, cp);
      checkpointed = true;
    }
  }
  const g6::ParticleSet final_state = integ.state_at_current_time();
  rep.steps = integ.total_steps();
  rep.blocksteps = integ.total_blocksteps();
  rep.sim_grape_s = s.engine->stats().grape_seconds;
  rep.sim_dma_s = s.engine->stats().dma_seconds;
  rep.hash = fnv1a(snapshot_bytes(final_state, integ.time()));
  const double e1 = g6::compute_energy(final_state.bodies(), plan.eps).total();
  rep.energy_error = std::abs((e1 - s.e0) / s.e0);
  return rep;
}

double mflops(const IntegratePlan& plan, const Rep& r) {
  return kFlopsPerInteraction * static_cast<double>(plan.n) *
         static_cast<double>(r.steps) / r.evolve_s / 1e6;
}

/// Restart from the checkpoint: read it, rebuild engine and integrator,
/// restore the exponent cache. Returns the ready integration.
Setup resume(const IntegratePlan& plan, const std::string& ckpt_path) {
  Setup s;
  const double t0 = now_s();
  G6_PHASE("bench.fault.resume");
  const g6::fault::RunCheckpoint cp = g6::fault::load_checkpoint(ckpt_path);
  s.engine = std::make_unique<g6::GrapeForceEngine>(
      machine(plan), g6::NumberFormats{}, plan.eps);
  s.integ = std::make_unique<g6::HermiteIntegrator>(cp.state, *s.engine,
                                                    hermite_config(plan));
  s.engine->exponents() = cp.exponents;
  s.e0 = cp.e0;
  s.setup_s = now_s() - t0;
  return s;
}

void check_repeats(const Rep& a, const Rep& b, Report& report) {
  const bool same = a.steps == b.steps && a.blocksteps == b.blocksteps &&
                    a.sim_grape_s == b.sim_grape_s &&
                    a.sim_dma_s == b.sim_dma_s && a.hash == b.hash;
  report.check(same,
               "integration repeats its sim counts and final-state hash");
}

/// The top 52 bits of a hash: exact as a JSON number.
double hash_value(std::uint64_t h) { return static_cast<double>(h >> 12); }

}  // namespace

void run_integrate(const Options& opt, const IntegratePlan& plan,
                   Report& report) {
  fs::create_directories(opt.workdir);
  const std::string ckpt = opt.workdir + "/integrate.ckpt";

  if (!opt.trace) {
    // Repetitions until the run's time is used (at least three, so the
    // medians and the repeat check have something to work with). After
    // each, the restart from the first one's checkpoint is timed a few
    // times: spread over the run, so that the figure does not rest on the
    // state of the host during one burst of back-to-back restarts. Like
    // serve-mixed's recoveries, the restart times fall in two clusters, so
    // the figure is their interquartile mean, which moves smoothly with
    // how many land in each, where a median jumps between them.
    std::vector<Rep> reps;
    std::vector<double> recover;
    const double t_begin = now_s();
    while (reps.size() < 3 || now_s() - t_begin < opt.seconds) {
      reps.push_back(reps.empty()
                         ? integrate(plan, plan.t_end, ckpt, 0.875 * plan.t_end)
                         : integrate(plan, plan.t_end));
      if (reps.size() > 1) check_repeats(reps.front(), reps.back(), report);
      for (int k = 0; k < 5; ++k) recover.push_back(resume(plan, ckpt).setup_s);
    }
    // Set-up several more times on its own; the repetitions' set-ups count
    // too.
    std::vector<double> setup, turnaround, speed;
    for (const Rep& r : reps) {
      setup.push_back(r.setup_s);
      turnaround.push_back(r.setup_s + r.evolve_s);
      speed.push_back(mflops(plan, r));
    }
    while (setup.size() < 7) setup.push_back(set_up(plan).setup_s);

    // A restart must finish bit-identically to the uninterrupted run.
    {
      Setup s = resume(plan, ckpt);
      while (s.integ->next_block_time() <= plan.t_end) s.integ->step();
      const std::uint64_t h = fnv1a(snapshot_bytes(
          s.integ->state_at_current_time(), s.integ->time()));
      report.check(h == reps.front().hash,
                   "resumed integration ends byte-identical to the "
                   "uninterrupted one");
    }
    fs::remove(ckpt);

    report.attempted = reps.size();
    for (const Rep& r : reps) {
      const bool ok = r.energy_error < plan.energy_bound &&
                      r.hash == reps.front().hash;
      report.failed += ok ? 0 : 1;
    }
    report.check(reps.front().energy_error < plan.energy_bound,
                 "integration |dE/E| below " + std::to_string(plan.energy_bound));

    report.set("setup_s", median(setup), "s");
    report.set("jobs_per_hour", 3600.0 / median(turnaround), "1/h");
    report.set("turnaround_p50_s", percentile(turnaround, 0.50), "s");
    report.set("turnaround_p95_s", percentile(turnaround, 0.95), "s");
    report.set("recover_s", mid_mean(recover), "s");
    report.set("speed_mflops", median(speed), "Mflops");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("%zu integrations of N=%zu to t=%g: %llu steps, %llu "
                "blocksteps, |dE/E| %.3g, final-state hash %016llx\n",
                reps.size(), plan.n, plan.t_end, reps.front().steps,
                reps.front().blocksteps, reps.front().energy_error,
                static_cast<unsigned long long>(reps.front().hash));
    return;
  }

  // Traced: one untraced integration for the baseline, then one traced.
  const Rep base = integrate(plan, plan.t_end);
  g6::obs::MetricsRegistry::global().reset();
  g6::obs::Tracer::global().clear();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  g6::obs::Tracer::global().enable();
  const Rep rep = integrate(plan, plan.t_end);
  g6::obs::Tracer::global().disable();
  const double t1 = now_s();
  const double cpu_s = process_cpu_s() - cpu0;
  check_repeats(base, rep, report);
  report.check(rep.energy_error < plan.energy_bound,
               "integration |dE/E| below " + std::to_string(plan.energy_bound));
  report.attempted = 2;
  report.failed = report.correct() ? 0 : 1;

  const double interactions = counter("grape.interactions");
  const double passes = counter("grape.passes");
  const double retries = counter("grape.retries");
  const double tasks = counter("exec.tasks");
  const double steals = counter("exec.steals");
  const double inline_tasks = counter("exec.inline_tasks");
  const double block_mean = histogram_mean("hermite.block_size");
  const Rollup r = roll_up_trace(opt.workdir + "/trace.json", t0, t1,
                                 "bench.hermite.step", "bench.hermite.step");

  // Pool speed-up: the same problem over a shorter horizon, serial vs
  // the run's pool.
  const unsigned threads = g6::exec::ThreadPool::global().parallelism();
  const Rep pool_rep = integrate(plan, plan.speedup_t_end);
  g6::exec::ThreadPool::set_global_threads(1);
  const Rep serial_rep = integrate(plan, plan.speedup_t_end);
  g6::exec::ThreadPool::set_global_threads(kPoolThreads);
  check_repeats(pool_rep, serial_rep, report);

  report.set("grape.pipeline_s", r.self("grape.pipeline"), "s");
  report.set("grape.reduce_s", r.self("grape.reduce"), "s");
  report.set("grape.jsend_s", r.self("grape.j-send"), "s");
  report.set("grape.submit_s", r.self("grape.submit"), "s");
  report.set("grape.interactions", interactions, "count");
  report.set("grape.passes", passes, "count");
  report.set("grape.retries", retries, "count");
  report.set("grape.ns_per_interaction",
             interactions > 0 ? 1e9 * r.total("grape.pipeline") / interactions
                              : 0.0,
             "ns");
  report.set("grape.lane_fill",
             passes > 0 ? static_cast<double>(rep.steps) / (passes * 48.0) : 0.0,
             "ratio");
  report.set("grape.retry_frac", passes > 0 ? retries / passes : 0.0, "ratio");

  report.set("sim.grape_s", rep.sim_grape_s, "s");
  report.set("sim.dma_s", rep.sim_dma_s, "s");
  report.set("sim.steps", static_cast<double>(rep.steps), "count");
  report.set("sim.blocksteps", static_cast<double>(rep.blocksteps), "count");
  report.set("sim.state_hash", hash_value(rep.hash), "hash");

  report.set("hermite.predict_s", r.self("hermite.predict"), "s");
  report.set("hermite.correct_s", r.self("hermite.correct"), "s");
  report.set("hermite.jsend_s", r.self("hermite.j-send"), "s");
  report.set("hermite.step_p50_s", median(rep.step_s), "s");
  report.set("hermite.block_size_mean", block_mean, "count");

  report.set("exec.tasks", tasks, "count");
  report.set("exec.steals", steals, "count");
  report.set("exec.inline_tasks", inline_tasks, "count");
  report.set("exec.task_s", r.self("exec.task"), "s");
  report.set("exec.cpu_util", cpu_s / ((t1 - t0) * threads), "ratio");
  report.set("exec.speedup_1t", serial_rep.evolve_s / pool_rep.evolve_s,
             "ratio");

  report.set("nbody.ic_s", rep.ic_s, "s");
  report.set("trace.overhead_frac",
             (rep.evolve_s + rep.setup_s - base.evolve_s - base.setup_s) /
                 (base.evolve_s + base.setup_s),
             "ratio");
  report.set("trace.unattributed_frac", r.unattributed_frac, "ratio");
  std::printf("traced integration: %zu spans, %llu steps, hash %016llx\n",
              r.events, rep.steps, static_cast<unsigned long long>(rep.hash));
}

}  // namespace twinbench
