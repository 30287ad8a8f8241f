// serve-mixed: tenants on the wire.
//
// The daemon side is the pair grape6_served wraps — a GrapeService behind
// a WireServer — run in this process on a unix socket under the work
// directory, its poll loop on a thread of its own. The tenant side is four
// RemoteClient connections, each on its own thread: three senders that
// submit on schedule and never read events, and a subscriber that reads
// every pushed event. These are plain threads, not pool tasks: they block
// for the whole run, and a pool waiter helps run queued tasks, so it could
// pick up one of them and never come back.
//
// A pass runs the load on a volatile daemon, then the restart phase: a
// durable daemon runs a backlog of small jobs, is torn down, and its
// journal is recovered. A run has several passes, each with inputs of its
// own, and reports the interquartile mean of each metric over the passes,
// except the turnaround percentiles and the recovery time, which pool
// every pass's samples.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "exec/thread_pool.hpp"
#include "grape/engine.hpp"
#include "hermite/integrator.hpp"
#include "nbody/models.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/sampler.hpp"
#include "rollup.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "wire/client.hpp"
#include "wire/server.hpp"
#include "workloads.hpp"

namespace twinbench {

namespace {

using g6::serve::JobId;
using g6::serve::JobSpec;

namespace fs = std::filesystem;

/// grape6_served in-process: service + listening server + poll loop.
class Daemon {
 public:
  Daemon(std::unique_ptr<g6::serve::GrapeService> service,
         const std::string& socket_path)
      : service_(std::move(service)) {
    std::remove(socket_path.c_str());
    endpoint_ = "unix:" + socket_path;
    server_ = std::make_unique<g6::wire::WireServer>(*service_, endpoint_);
    loop_ = std::thread([this] { server_->run(&stop_); });
  }
  ~Daemon() {
    if (loop_.joinable()) {
      stop_ = true;  // unblock run() before joining
      loop_.join();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& endpoint() const { return endpoint_; }

  /// Wait for the loop to exit (a client sent drain and all work and
  /// output are done), then close every connection.
  void join() {
    loop_.join();
    server_.reset();
  }

 private:
  std::unique_ptr<g6::serve::GrapeService> service_;
  std::unique_ptr<g6::wire::WireServer> server_;
  std::string endpoint_;
  std::atomic<bool> stop_{false};
  std::thread loop_;
};

/// One terminal event as the subscriber saw it.
struct Terminal {
  double t_recv = 0.0;
  std::string state;
  double n = 0, steps = 0, blocksteps = 0;
  double wait_s = 0, grape_virtual_s = 0, energy_error = 0;
};

/// What the subscriber collects; shared with the orchestrating thread.
struct Inbox {
  std::mutex m;
  std::condition_variable cv;
  std::map<JobId, std::vector<Terminal>> terminals;
  std::size_t terminal_count = 0;
  std::size_t progress = 0;
  std::string error;
  bool eof = false;
};

double num_at(const g6::obs::JsonValue& j, const char* key) {
  const g6::obs::JsonValue* v = j.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

std::string str_at(const g6::obs::JsonValue& j, const char* key) {
  const g6::obs::JsonValue* v = j.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

void subscribe_loop(g6::wire::RemoteClient& client, Inbox& inbox) {
  try {
    for (;;) {
      std::optional<g6::wire::WireEvent> ev;
      {
        G6_PHASE("bench.wire.next_event");
        ev = client.next_event(true);
      }
      const double t = now_s();
      if (!ev) break;
      const std::lock_guard<std::mutex> lock(inbox.m);
      if (ev->event == "progress") {
        ++inbox.progress;
      } else if (ev->event == "terminal") {
        const auto id = static_cast<JobId>(num_at(ev->root, "job"));
        Terminal term;
        term.t_recv = t;
        if (const g6::obs::JsonValue* rep = ev->root.find("report")) {
          term.state = str_at(*rep, "state");
          term.n = num_at(*rep, "n");
          term.steps = num_at(*rep, "steps");
          term.blocksteps = num_at(*rep, "blocksteps");
          term.wait_s = num_at(*rep, "wait_s");
          term.grape_virtual_s = num_at(*rep, "grape_virtual_s");
          term.energy_error = num_at(*rep, "energy_error");
        }
        inbox.terminals[id].push_back(term);
        ++inbox.terminal_count;
        inbox.cv.notify_all();
      } else if (ev->event == "error") {
        inbox.error = "server error event: " + str_at(ev->root, "message");
      }
    }
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(inbox.m);
    inbox.error = std::string("subscriber: ") + e.what();
  }
  const std::lock_guard<std::mutex> lock(inbox.m);
  inbox.eof = true;
  inbox.cv.notify_all();
}

/// Sender connections (plus the subscriber: at most nproc = 4 client
/// threads and connections).
constexpr int kSenders = 3;

/// One submission as a sender made it.
struct Sent {
  JobSpec spec;
  double due = 0.0;   ///< absolute monotonic due time
  double sent = 0.0;  ///< when the submit call started
  double rtt = 0.0;
  JobId id = 0;
  bool accepted = false;
  bool interactive = false;
};

std::unique_ptr<g6::serve::GrapeService> make_service(
    const ServedPlan& plan, const std::string& dir) {
  g6::serve::ServiceConfig cfg = plan.service;
  if (plan.durable) {
    fs::create_directories(dir + "/ckpts");
    cfg.durability.journal_path = dir + "/serve.wal";
    cfg.durability.checkpoint_dir = dir + "/ckpts";
  }
  return std::make_unique<g6::serve::GrapeService>(cfg);
}

/// Final state of `spec` run alone through the library: the same engine
/// and integrator a serve job builds, stepped to t_end as a quantum loop
/// would. The generated jobs are all Plummer spheres (JobSpec's default).
std::string standalone_snapshot(const JobSpec& spec) {
  g6::MachineConfig mc;
  mc.boards_per_host = spec.boards;
  g6::GrapeForceEngine engine(mc, g6::NumberFormats{}, spec.eps);
  g6::Rng rng(spec.seed);
  const g6::ParticleSet initial = g6::make_plummer(spec.n, rng);
  g6::HermiteConfig cfg;
  cfg.eta = spec.eta;
  g6::HermiteIntegrator integ(initial, engine, cfg);
  while (integ.next_block_time() <= spec.t_end) integ.step();
  return snapshot_bytes(integ.state_at_current_time(), integ.time());
}

std::string final_snapshot(g6::wire::RemoteClient& client, JobId id) {
  double t = 0.0;
  const g6::ParticleSet set = client.final_state(id, &t);
  return snapshot_bytes(set, t);
}

/// Raw measurements of one pass over a served plan.
struct Pass {
  std::vector<double> setup_s;
  std::vector<double> recover_s;
  double t_start = 0.0;
  double t_window_end = 0.0;  ///< last batch terminal (the jobs/hour window)
  double t_last = 0.0;        ///< last terminal of any job
  std::vector<Sent> sent;
  std::map<JobId, std::vector<Terminal>> terminals;
  std::size_t progress = 0;
  g6::serve::RecoveryInfo recovery;
  std::uint64_t journal_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  double cpu_s = 0.0;
  std::map<std::string, double> counters;
  double board_busy_frac = 0.0;
  double block_size_mean = 0.0;
  double rpc_p50_s = 0.0;
  /// Hash over the final states fetched for the checks, in job-id order.
  std::uint64_t state_hash = 0;
};

const char* const kCounters[] = {
    "grape.interactions", "grape.passes",         "grape.retries",
    "exec.tasks",         "exec.steals",          "exec.inline_tasks",
    "serve.rounds",       "serve.quanta",         "serve.preemptions",
    "serve.lease.resizes", "serve.journal.records", "serve.checkpoint.writes",
    "wire.requests",      "wire.events",          "wire.frames_out",
    "wire.bytes_out",
};

/// Time-weighted mean of the serve.lease.utilization gauge over
/// [t0, t1], from the scheduler's per-round time series.
double lease_utilization(double t0, double t1) {
  std::ostringstream os;
  g6::obs::MetricsSampler::global().write_json(os);
  const g6::obs::JsonValue doc = g6::obs::JsonValue::parse(os.str());
  std::size_t col = 0;
  bool found = false;
  const auto& ins = doc.at("instruments").items();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    if (str_at(ins[i], "name") == "serve.lease.utilization") {
      col = i;
      found = true;
    }
  }
  if (!found) return 0.0;
  double weighted = 0.0, span = 0.0;
  double prev_t = t0, prev_v = 0.0;
  for (const g6::obs::JsonValue& row : doc.at("samples").items()) {
    const double t = num_at(row, "t_s");
    if (t < t0) continue;
    if (t > t1) break;
    weighted += prev_v * (t - prev_t);
    span += t - prev_t;
    prev_t = t;
    prev_v = row.at("values").items()[col].as_number();
  }
  return span > 0.0 ? weighted / span : 0.0;
}

/// How late the open-loop generator sent its stream jobs (p99).
double stream_lateness_p99(const Pass& p) {
  std::vector<double> late;
  for (const Sent& s : p.sent) {
    if (s.interactive) late.push_back(s.sent - s.due);
  }
  return percentile(late, 0.99);
}

/// How one pass is run.
struct PassSpec {
  std::string name;      ///< of the pass's scratch directory
  int setup_reps = 1;    ///< daemon set-ups timed (the last one serves)
  int recover_reps = 1;  ///< journal recoveries timed (durable plans)
  bool traced = false;
  /// Compare the sample jobs with the same specs run alone (untimed, but
  /// a whole-machine job run alone costs a second or two).
  bool samples = false;
  double deadline = 0.0;  ///< monotonic time by which every terminal is in
};

/// Run the plan once on fresh daemons: set-up repetitions, the load,
/// checks, recovery.
Pass run_pass(const Options& opt, const ServedPlan& plan, const PassSpec& ps,
              Report& report) {
  Pass pass;
  const std::string dir = opt.workdir + "/" + ps.name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  // --- set-up, several times: service + socket, then every tenant
  // connection the load uses answered once and the subscriber subscribed
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<g6::wire::RemoteClient>> senders;
  std::unique_ptr<g6::wire::RemoteClient> subscriber;
  std::string run_dir;
  for (int k = 0; k < ps.setup_reps; ++k) {
    if (daemon) {
      senders.front()->drain();
      daemon->join();
      daemon.reset();
      senders.clear();
    }
    run_dir = dir + "/setup" + std::to_string(k);
    fs::create_directories(run_dir);
    const double t0 = now_s();
    {
      G6_PHASE("bench.setup");
      daemon = std::make_unique<Daemon>(make_service(plan, run_dir),
                                        run_dir + "/d.sock");
      for (int c = 0; c < kSenders; ++c) {
        senders.push_back(
            std::make_unique<g6::wire::RemoteClient>(daemon->endpoint()));
        senders.back()->ping();
      }
      subscriber = std::make_unique<g6::wire::RemoteClient>(daemon->endpoint());
      subscriber->subscribe(/*snapshots=*/false, /*all_jobs=*/true);
    }
    pass.setup_s.push_back(now_s() - t0);
  }
  g6::wire::RemoteClient& sender = *senders.front();

  Inbox inbox;
  std::thread sub_thread([&] { subscribe_loop(*subscriber, inbox); });
  // If anything below throws, the subscriber is still joined before the
  // inbox it fills goes away: stopping the daemon closes every
  // connection, which ends its blocking read.
  struct JoinOnUnwind {
    JoinOnUnwind(std::unique_ptr<Daemon>& d, std::thread& t)
        : daemon(d), thread(t) {}
    JoinOnUnwind(const JoinOnUnwind&) = delete;
    JoinOnUnwind& operator=(const JoinOnUnwind&) = delete;
    ~JoinOnUnwind() {
      if (!thread.joinable()) return;
      daemon.reset();
      thread.join();
    }
    std::unique_ptr<Daemon>& daemon;
    std::thread& thread;
  } join_on_unwind(daemon, sub_thread);

  // --- the load -----------------------------------------------------------
  if (ps.traced) {
    g6::obs::MetricsRegistry::global().reset();
    g6::obs::Tracer::global().clear();
    g6::obs::Tracer::global().enable();
  }
  const double cpu0 = process_cpu_s();
  pass.t_start = now_s();

  // Each sender connection has a thread of its own and every third job:
  // a submit that waits for a long round blocks one connection, not the
  // schedule.
  std::vector<std::vector<Sent>> sent(kSenders);
  std::vector<std::string> errors(kSenders);
  const auto submit = [&](int k, const JobSpec& spec, double due,
                          bool interactive) {
    Sent s;
    s.spec = spec;
    s.due = due;
    s.interactive = interactive;
    s.sent = now_s();
    g6::serve::SubmitResult r;
    {
      G6_PHASE("bench.wire.submit");
      r = senders[static_cast<std::size_t>(k)]->submit(spec);
    }
    s.rtt = now_s() - s.sent;
    s.id = r.id;
    s.accepted = r.accepted;
    sent[static_cast<std::size_t>(k)].push_back(s);
  };
  const auto on_senders = [&](const std::function<void(int)>& body) {
    std::vector<std::jthread> threads;  // joined on every path
    for (int k = 0; k < kSenders; ++k) {
      threads.emplace_back([&, k] {
        try {
          body(k);
        } catch (const std::exception& e) {
          errors[static_cast<std::size_t>(k)] = e.what();
        }
      });
    }
  };
  // The backlog, all due at t = 0.
  on_senders([&](int k) {
    for (std::size_t i = static_cast<std::size_t>(k); i < plan.backlog.size();
         i += kSenders) {
      submit(k, plan.backlog[i], pass.t_start, false);
    }
  });
  // The open loop, timed from when the backlog is in: arrivals keep their
  // schedule whatever the service does, and lateness is reported, never
  // absorbed.
  const double stream0 = now_s();
  on_senders([&](int k) {
    for (std::size_t i = static_cast<std::size_t>(k); i < plan.stream.size();
         i += kSenders) {
      const double due = stream0 + plan.stream[i].due_s;
      const double wait = due - now_s();
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      submit(k, plan.stream[i].spec, due, true);
    }
  });
  for (const std::vector<Sent>& v : sent) {
    pass.sent.insert(pass.sent.end(), v.begin(), v.end());
  }
  std::sort(pass.sent.begin(), pass.sent.end(),
            [](const Sent& a, const Sent& b) { return a.id < b.id; });
  std::string sender_error;
  for (const std::string& e : errors) sender_error += e;
  report.check(sender_error.empty(), "sender: " + sender_error);
  if (!plan.stream.empty()) {
    report.check(stream_lateness_p99(pass) <= plan.late_bound_s,
                 "open-loop generator p99 lateness within " +
                     std::to_string(plan.late_bound_s) + " s");
  }

  std::size_t accepted = 0;
  for (const Sent& s : pass.sent) accepted += s.accepted ? 1 : 0;
  {
    std::unique_lock<std::mutex> lock(inbox.m);
    const double left = std::max(0.0, ps.deadline - now_s());
    const bool done =
        inbox.cv.wait_for(lock, std::chrono::duration<double>(left), [&] {
          return inbox.terminal_count >= accepted || inbox.eof;
        });
    report.check(done && inbox.error.empty(),
                 "terminal events for every accepted job (" + inbox.error + ")");
  }
  pass.cpu_s = process_cpu_s() - cpu0;
  g6::obs::Tracer::global().disable();

  {
    const std::lock_guard<std::mutex> lock(inbox.m);
    for (const auto& [id, list] : inbox.terminals) {
      pass.t_last = std::max(pass.t_last, list.front().t_recv);
    }
    for (const Sent& s : pass.sent) {
      if (s.interactive || !s.accepted) continue;
      const auto it = inbox.terminals.find(s.id);
      if (it != inbox.terminals.end()) {
        pass.t_window_end =
            std::max(pass.t_window_end, it->second.front().t_recv);
      }
    }
  }
  for (const char* name : kCounters) pass.counters[name] = counter(name);
  pass.board_busy_frac = lease_utilization(pass.t_start, pass.t_last);
  pass.block_size_mean = histogram_mean("hermite.block_size");
  pass.rpc_p50_s = histogram_percentile("wire.rpc_s", 0.5);

  // --- untimed: results the checks compare against -----------------------
  std::map<JobId, std::string> before;  // final-state bytes by job
  const auto by_name = [&](const std::string& name) -> const Sent* {
    for (const Sent& s : pass.sent) {
      if (s.spec.name == name && s.accepted) return &s;
    }
    return nullptr;
  };
  const auto completed = [&](JobId id) {
    const std::lock_guard<std::mutex> lock(inbox.m);
    const auto it = inbox.terminals.find(id);
    return it != inbox.terminals.end() &&
           it->second.front().state == "completed";
  };
  try {
    if (plan.durable) {
      for (const Sent& s : pass.sent) {
        if (s.accepted && completed(s.id)) {
          before[s.id] = final_snapshot(sender, s.id);
        }
      }
    }
    // The first batch and the first interactive job by name, served vs
    // run alone through the library.
    std::vector<std::string> samples{plan.backlog.front().name};
    if (!plan.stream.empty()) samples.push_back(plan.stream.front().spec.name);
    for (const std::string& name : ps.samples ? samples
                                              : std::vector<std::string>{}) {
      const Sent* s = by_name(name);
      report.check(s != nullptr, "sample job '" + name + "' accepted");
      if (s == nullptr) continue;
      before[s->id] = final_snapshot(sender, s->id);
      report.check(before[s->id] == standalone_snapshot(s->spec),
                   "job '" + s->spec.name +
                       "' served is byte-identical to the same spec run alone");
    }
    std::string all;
    for (const auto& [id, bytes] : before) all += bytes;
    pass.state_hash = fnv1a(all);
  } catch (const std::exception& e) {
    report.check(false, std::string("fetching final states: ") + e.what());
  }
  // A daemon that cannot be drained is stopped instead.
  try {
    sender.drain();
    daemon->join();
  } catch (const std::exception& e) {
    report.check(false, std::string("drain: ") + e.what());
    daemon.reset();
  }
  sub_thread.join();

  // --- exactly-once terminals, energy -------------------------------------
  pass.terminals = inbox.terminals;
  pass.progress = inbox.progress;
  std::size_t bad_terminals = 0, bad_energy = 0;
  for (const Sent& s : pass.sent) {
    if (!s.accepted) continue;
    const auto it = pass.terminals.find(s.id);
    if (it == pass.terminals.end() || it->second.size() != 1) {
      ++bad_terminals;
      continue;
    }
    const Terminal& t = it->second.front();
    if (t.state == "completed" && !(t.energy_error < plan.energy_bound)) {
      ++bad_energy;
    }
  }
  report.check(bad_terminals == 0,
               std::to_string(bad_terminals) +
                   " accepted job(s) without exactly one terminal event");
  report.check(bad_energy == 0,
               std::to_string(bad_energy) + " job(s) with |dE/E| >= " +
                   std::to_string(plan.energy_bound));

  // --- restart ---------------------------------------------------------------
  if (plan.durable) {
    const std::string wal = run_dir + "/serve.wal";
    daemon.reset();
    pass.journal_bytes = file_bytes(wal);
    pass.checkpoint_bytes = dir_bytes(run_dir + "/ckpts");
    for (int k = 0; k < ps.recover_reps; ++k) {
      g6::serve::RecoveryInfo info;
      const double t0 = now_s();
      std::unique_ptr<g6::serve::GrapeService> back;
      {
        G6_PHASE("bench.serve.recover");
        back = g6::serve::GrapeService::recover(wal, &info);
      }
      pass.recover_s.push_back(now_s() - t0);
      if (k > 0) continue;
      pass.recovery = info;
      std::size_t mismatched = 0;
      for (const auto& [id, bytes] : before) {
        bool same = back->state(id) == g6::serve::JobState::kCompleted;
        if (same) {
          double t = 0.0;
          const g6::ParticleSet& set = back->final_state(id, &t);
          same = snapshot_bytes(set, t) == bytes;
        }
        mismatched += same ? 0 : 1;
      }
      report.check(mismatched == 0,
                   std::to_string(mismatched) +
                       " final state(s) differ after recover");
    }
  }
  fs::remove_all(dir);
  // Hand the pass's freed heap back, as the exit of a daemon process
  // would, so that every pass starts from the same heap.
  malloc_trim(0);
  return pass;
}

double window_jobs_per_hour(const Pass& p) {
  std::size_t done = 0;
  for (const auto& [id, list] : p.terminals) {
    const Terminal& t = list.front();
    if (t.state == "completed" && t.t_recv <= p.t_window_end) ++done;
  }
  const double wall = p.t_window_end - p.t_start;
  return wall > 0.0 ? 3600.0 * static_cast<double>(done) / wall : 0.0;
}

double window_mflops(const Pass& p) {
  double interactions = 0.0;
  for (const auto& [id, list] : p.terminals) {
    const Terminal& t = list.front();
    if (t.state == "completed" && t.t_recv <= p.t_window_end) {
      interactions += t.n * t.steps;
    }
  }
  const double wall = p.t_window_end - p.t_start;
  return wall > 0.0 ? kFlopsPerInteraction * interactions / wall / 1e6 : 0.0;
}

/// Turnaround of the interactive stream, each job from its due time.
std::vector<double> turnarounds(const Pass& p) {
  std::vector<double> v;
  for (const Sent& s : p.sent) {
    if (!s.accepted || !s.interactive) continue;
    const auto it = p.terminals.find(s.id);
    if (it != p.terminals.end()) v.push_back(it->second.front().t_recv - s.due);
  }
  return v;
}

/// Add the pass's jobs to the result line's counts. Every job must be
/// accepted and complete: a rejected, failed or quarantined job fails the
/// run.
void count_outcomes(const Pass& p, Report& report) {
  std::size_t failed = 0;
  for (const Sent& s : p.sent) {
    const auto it = p.terminals.find(s.id);
    const bool ok = s.accepted && it != p.terminals.end() &&
                    it->second.front().state == "completed";
    failed += ok ? 0 : 1;
  }
  report.attempted += p.sent.size();
  report.failed += failed;
  report.check(failed == 0,
               std::to_string(failed) +
                   " job(s) rejected, failed or quarantined instead of "
                   "completed");
}

}  // namespace

void run_served(const Options& opt, const MixedPlan& plan, Report& report) {
  const double t_begin = now_s();
  PassSpec load;
  load.deadline = t_begin + kRunLimitS;
  PassSpec journal = load;
  journal.recover_reps = opt.trace ? 1 : 21;
  if (!opt.trace) {
    // The plan runs as several passes, each on fresh daemons, and every
    // metric is the interquartile mean of the passes' figures: a pass
    // disturbed by the host is dropped, and figures that fall in two
    // clusters average out. Two metrics pool the passes' samples instead:
    // the turnaround percentiles, so that the p95 has enough jobs beyond
    // it, and the recovery times, which fall in two clusters (about 30 and
    // 47 ms, on any core) in proportions that vary from pass to pass: the
    // interquartile mean of them all moves smoothly with the proportion.
    // Sub-millisecond set-ups are timed many times.
    load.setup_reps = 21;
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<double> turnaround;  // every pass's stream, pooled
    std::vector<double> recover;     // every pass's recoveries, pooled
    for (std::size_t k = 0; k < plan.passes.size() && report.correct(); ++k) {
      load.name = "pass" + std::to_string(k);
      journal.name = load.name + "-journal";
      load.samples = journal.samples = k == 0;
      const Pass p = run_pass(opt, plan.passes[k].load, load, report);
      count_outcomes(p, report);
      const Pass j = run_pass(opt, plan.passes[k].journal, journal, report);
      count_outcomes(j, report);
      const std::vector<double> ta = turnarounds(p);
      turnaround.insert(turnaround.end(), ta.begin(), ta.end());
      recover.insert(recover.end(), j.recover_s.begin(), j.recover_s.end());
      const std::pair<const char*, double> figures[] = {
          {"setup_s", median(p.setup_s)},
          {"jobs_per_hour", window_jobs_per_hour(p)},
          {"speed_mflops", window_mflops(p)},
      };
      for (const auto& [name, value] : figures) per_pass[name].push_back(value);
      std::printf("pass %zu: %zu jobs sent, %zu terminal events, %zu progress "
                  "events; backlog done at %.3f s; submit p99 lateness %.4f "
                  "s; %.0f jobs/h, turnaround p50 %.4f s; %zu journal jobs "
                  "done at %.3f s, recover %.4f s\n",
                  k, p.sent.size(), p.terminals.size(), p.progress,
                  p.t_window_end - p.t_start, stream_lateness_p99(p),
                  per_pass["jobs_per_hour"].back(), percentile(ta, 0.50),
                  j.terminals.size(), j.t_last - j.t_start,
                  median(j.recover_s));
    }
    const std::pair<const char*, const char*> reported[] = {
        {"setup_s", "s"},
        {"jobs_per_hour", "1/h"},
        {"speed_mflops", "Mflops"},
    };
    for (const auto& [name, unit] : reported) {
      report.set(name, mid_mean(per_pass[name]), unit);
    }
    report.set("turnaround_p50_s", percentile(turnaround, 0.50), "s");
    report.set("turnaround_p95_s", percentile(turnaround, 0.95), "s");
    report.set("recover_s", mid_mean(recover), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced: an untraced load pass sets the wall-time baseline, then the
  // load runs again with the tracer on, and then the restart phase. Each
  // traced pass starts from a cleared tracer and registry, so each is
  // rolled up before the next.
  load.name = "base";
  const MixedPass& first = plan.passes.front();
  const Pass base = run_pass(opt, first.load, load, report);
  load.name = "traced";
  load.traced = journal.traced = true;
  load.samples = journal.samples = true;
  const Pass p = run_pass(opt, first.load, load, report);
  const Rollup r =
      roll_up_trace(opt.workdir + "/trace.json", p.t_start, p.t_last,
                    "serve.round", "hermite.blockstep");
  journal.name = "traced-journal";
  const Pass j = run_pass(opt, first.journal, journal, report);
  const Rollup rj =
      roll_up_trace(opt.workdir + "/trace.json", j.t_start, j.t_last,
                    "serve.round", "hermite.blockstep");
  count_outcomes(base, report);
  count_outcomes(p, report);
  count_outcomes(j, report);

  const double wall = p.t_last - p.t_start;
  const double base_wall = base.t_last - base.t_start;
  double steps = 0, blocksteps = 0, virtual_s = 0;
  std::vector<double> wait;
  for (const auto& [id, list] : p.terminals) {
    const Terminal& t = list.front();
    if (t.state != "completed") continue;
    steps += t.steps;
    blocksteps += t.blocksteps;
    virtual_s += t.grape_virtual_s;
    wait.push_back(t.wait_s);
  }
  const auto c = [&](const char* name) { return p.counters.at(name); };
  const double passes = c("grape.passes");
  const double interactions = c("grape.interactions");

  report.set("grape.pipeline_s", r.self("grape.pipeline"), "s");
  report.set("grape.reduce_s", r.self("grape.reduce"), "s");
  report.set("grape.jsend_s", r.self("grape.j-send"), "s");
  report.set("grape.submit_s", r.self("grape.submit"), "s");
  report.set("grape.interactions", interactions, "count");
  report.set("grape.passes", passes, "count");
  report.set("grape.retries", c("grape.retries"), "count");
  report.set("grape.ns_per_interaction",
             interactions > 0 ? 1e9 * r.total("grape.pipeline") / interactions
                              : 0.0,
             "ns");
  report.set("grape.lane_fill", passes > 0 ? steps / (passes * 48.0) : 0.0,
             "ratio");
  report.set("grape.retry_frac", passes > 0 ? c("grape.retries") / passes : 0.0,
             "ratio");
  // JobReport carries one virtual-time account per job (pipeline + DMA).
  report.set("sim.grape_s", virtual_s, "s");
  report.set("sim.steps", steps, "count");
  report.set("sim.state_hash", static_cast<double>(p.state_hash >> 12), "hash");
  report.set("sim.blocksteps", blocksteps, "count");

  report.set("hermite.predict_s", r.self("hermite.predict"), "s");
  report.set("hermite.correct_s", r.self("hermite.correct"), "s");
  report.set("hermite.jsend_s", r.self("hermite.j-send"), "s");
  report.set("hermite.step_p50_s", median(r.samples_s), "s");
  report.set("hermite.block_size_mean", p.block_size_mean, "count");

  report.set("exec.tasks", c("exec.tasks"), "count");
  report.set("exec.steals", c("exec.steals"), "count");
  report.set("exec.inline_tasks", c("exec.inline_tasks"), "count");
  report.set("exec.task_s", r.self("exec.task"), "s");
  const double threads = g6::exec::ThreadPool::global().parallelism();
  report.set("exec.cpu_util", wall > 0 ? p.cpu_s / (wall * threads) : 0.0,
             "ratio");

  report.set("serve.round_s", r.round_outside_job_s, "s");
  report.set("serve.job_s", r.self("serve.job"), "s");
  report.set("serve.rounds", c("serve.rounds"), "count");
  report.set("serve.quanta", c("serve.quanta"), "count");
  report.set("serve.preemptions", c("serve.preemptions"), "count");
  report.set("serve.resizes", c("serve.lease.resizes"), "count");
  report.set("serve.wait_p50_s", percentile(wait, 0.50), "s");
  report.set("serve.wait_p95_s", percentile(wait, 0.95), "s");
  report.set("serve.board_busy_frac", p.board_busy_frac, "ratio");
  report.set("serve.preempt_frac",
             c("serve.quanta") > 0 ? c("serve.preemptions") / c("serve.quanta")
                                   : 0.0,
             "ratio");

  // Durability: the restart phase.
  report.set("serve.journal.records", j.counters.at("serve.journal.records"),
             "count");
  report.set("serve.checkpoint.writes",
             j.counters.at("serve.checkpoint.writes"), "count");
  report.set("durable.journal_bytes", static_cast<double>(j.journal_bytes), "B");
  report.set("durable.checkpoint_bytes",
             static_cast<double>(j.checkpoint_bytes), "B");
  report.set("durable.bookkeeping_s", rj.round_outside_job_s, "s");
  report.set("recovery.records", static_cast<double>(j.recovery.journal_records),
             "count");
  report.set("recovery.jobs_restored",
             static_cast<double>(j.recovery.jobs_restored +
                                 j.recovery.jobs_already_terminal),
             "count");

  std::vector<double> rtt;
  for (const Sent& s : p.sent) rtt.push_back(s.rtt);
  report.set("wire.submit_rtt_p50_s", percentile(rtt, 0.50), "s");
  report.set("wire.submit_rtt_p99_s", percentile(rtt, 0.99), "s");
  report.set("wire.requests", c("wire.requests"), "count");
  report.set("wire.events", c("wire.events"), "count");
  report.set("wire.frames_out", c("wire.frames_out"), "count");
  report.set("wire.bytes_out", c("wire.bytes_out"), "B");
  report.set("wire.rpc_p50_s", p.rpc_p50_s, "s");

  report.set("loadgen.late_p99_s", stream_lateness_p99(p), "s");
  report.set("loadgen.failed_frac",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted),
             "ratio");
  report.set("trace.overhead_frac",
             base_wall > 0 ? (wall - base_wall) / base_wall : 0.0, "ratio");
  report.set("trace.unattributed_frac", r.unattributed_frac, "ratio");
  std::printf("traced load: %zu spans, %.3f s traced vs %.3f s untraced; "
              "traced restart phase: %zu spans\n",
              r.events, wall, base_wall, rj.events);
}

}  // namespace twinbench
