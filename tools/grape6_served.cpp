// grape6_served — the serving front end (docs/SERVING.md).
//
// Fronts one GrapeService. Without --listen it runs in-process: submit
// the jobs of a grape6-serve-manifest-v1 manifest (or --recover a
// crashed service from its journal), run until everything drains, exit.
// With --listen it is the grape6-wire-v1 daemon: many concurrent clients
// submit through the same admission controller, subscribe to streamed
// progress, and a `drain` request lets it exit once all work and output
// are flushed; the manifest, if any, shapes the machine and preloads jobs.
//
//   grape6_served --manifest=jobs.json --out=serve --report-out=r.json
//   grape6_served --listen=unix:/tmp/grape6.sock      # or tcp:host:port
//
// Durable mode (docs/RELIABILITY.md "Serving durability"), either way:
// --journal=serve.wal journals every job transition (fsync'd) and
// checkpoints running jobs into serve.wal.ckpts; after a crash,
// --recover=serve.wal finishes the run with bit-identical snapshots.
// SIGTERM/SIGINT drain gracefully: running jobs checkpoint, a `drained`
// record is journaled, and the process exits (resume with --recover).
//
// Outputs: <out>_<job>.snap per completed job when --out is set (the
// serve_identity and wire_identity ctests cmp these), the report
// (grape6-serve-report-v1), metrics, Chrome trace, per-round time series
// and the flight-recorder ring — the last also on a driver error. Board
// deaths come from the manifest or from a --fault-plan's hard failures.
//
// Exit codes: 0 = every job completed; 3 = some jobs failed, were
// quarantined or rejected (their reports say why); 1 = driver error.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/grape6.hpp"
#include "util/fileio.hpp"

namespace {

using namespace g6;

/// The snapshot file written for job `id` under `prefix` ("" = none).
std::string snapshot_file(const std::string& prefix,
                          const serve::GrapeService& service, serve::JobId id) {
  if (prefix.empty() || service.state(id) != serve::JobState::kCompleted) {
    return "";
  }
  return prefix + "_" + service.report(id).name + ".snap";
}

/// The grape6-serve-report-v1 file: the service block, then one report
/// object per job, each naming its snapshot file.
void write_report(const std::string& path, const serve::GrapeService& service,
                  const std::string& snapshot_prefix) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"grape6-serve-report-v1\",\n  \"service\": ";
  serve::write_service_stats(os, service);
  os << ",\n  \"jobs\": [\n";
  const std::vector<serve::JobId> ids = service.jobs();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    os << "    ";
    serve::write_job_report(os, service.report(ids[i]),
                            snapshot_file(snapshot_prefix, service, ids[i]));
    os << (i + 1 < ids.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  const std::string body = os.str();
  write_file_atomic(path, [&body](std::ostream& f) { f << body; });
}

void print_job_table(const serve::GrapeService& service) {
  std::printf("\n%-4s %-14s %-12s %-12s %6s %7s %7s %6s %6s %9s\n", "id",
              "name", "priority", "state", "n", "boards", "quanta", "rev",
              "fail", "dE/E");
  for (serve::JobId id : service.jobs()) {
    const serve::JobReport r = service.report(id);
    std::printf("%-4llu %-14s %-12s %-12s %6zu %7zu %7llu %6llu %6d %9.2e\n",
                static_cast<unsigned long long>(r.id), r.name.c_str(),
                serve::priority_name(r.priority),
                serve::job_state_name(r.state), r.n, r.boards,
                static_cast<unsigned long long>(r.quanta),
                static_cast<unsigned long long>(r.revocations), r.failures,
                r.energy_error());
    if (!r.message.empty()) {
      std::printf("     `- %s\n", r.message.c_str());
    }
  }
}

std::string endpoint_string(const wire::Endpoint& ep) {
  if (ep.kind == wire::Endpoint::Kind::kUnix) return "unix:" + ep.path;
  return "tcp:" + ep.host + ":" + std::to_string(ep.port);
}

// Visible to the catch block of main: a fatal error (HardFault escaping
// the scheduler, bad manifest, I/O) still dumps the flight ring.
std::string g_flightrec_out;  // NOLINT(cert-err58-cpp) empty-string ctor

// SIGTERM/SIGINT → graceful drain. The handler only flips the flag; the
// daemon's poll loop returns at its next pass, and the scheduler, which
// polls the flag between rounds, checkpoints running jobs, journals a
// `drained` record and returns from run_until_drained.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  const std::string listen = cli.get_string(
      "listen", "",
      "serve on this endpoint (unix:<path> or tcp:<host>:<port>; tcp port "
      "0 picks an ephemeral port, printed at startup); \"\" = run "
      "in-process until drained");
  const std::string manifest_path = cli.get_string(
      "manifest", "",
      "job manifest JSON (grape6-serve-manifest-v1): service shape + jobs");
  const std::string recover_path = cli.get_string(
      "recover", "",
      "recover from this write-ahead journal instead of --manifest");
  const std::string out = cli.get_string(
      "out", "", "write <out>_<job>.snap per completed job (\"\" = off)");
  const std::string journal_path = cli.get_string(
      "journal", "",
      "write-ahead job journal (grape6-serve-journal-v1; checkpoints go "
      "to <journal>.ckpts; \"\" = off)");
  const auto checkpoint_every = cli.get_int(
      "checkpoint-every", 1,
      "checkpoint running jobs every N quanta (0 = final only)");
  const std::string report_out = cli.get_string(
      "report-out", "", "write serve report JSON here (\"\" = off)");
  const std::string metrics_out =
      cli.get_string("metrics-out", "", "write metrics JSON here (\"\" = off)");
  const std::string trace_out = cli.get_string(
      "trace-out", "", "write Chrome trace JSON here (\"\" = off)");
  const std::string timeseries_out = cli.get_string(
      "timeseries-out", "",
      "write per-round time-series JSON here (\"\" = off)");
  g_flightrec_out = cli.get_string(
      "flightrec-out", "",
      "write flight-recorder JSON here, also on error (\"\" = off)");
  const std::string fault_plan_path = cli.get_string(
      "fault-plan", "", "board deaths from this fault plan's hard failures");
  const auto threads = static_cast<unsigned>(cli.get_int(
      "threads", 0, "exec pool threads (0 = auto: $G6_EXEC_THREADS, then "
                    "hardware)"));
  if (cli.finish()) return 0;

  if (!manifest_path.empty() && !recover_path.empty()) {
    std::fprintf(stderr, "error: --manifest and --recover are exclusive\n");
    return 1;
  }
  if (listen.empty() && manifest_path.empty() && recover_path.empty()) {
    std::fprintf(stderr,
                 "error: without --listen, one of --manifest and --recover "
                 "is required (see --help)\n");
    return 1;
  }
  if (threads > 0) exec::ThreadPool::set_global_threads(threads);
  if (!trace_out.empty()) obs::Tracer::global().enable();
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  std::unique_ptr<serve::GrapeService> owned;
  if (!recover_path.empty()) {
    serve::RecoveryInfo info;
    owned = serve::GrapeService::recover(recover_path, &info, &g_stop);
    std::printf("grape6_served: recovered %s: %llu record(s)%s, %llu job(s) "
                "live, %llu terminal, resuming at round %llu\n",
                recover_path.c_str(),
                static_cast<unsigned long long>(info.journal_records),
                info.torn_tail ? " (torn tail dropped)" : "",
                static_cast<unsigned long long>(info.jobs_restored),
                static_cast<unsigned long long>(info.jobs_already_terminal),
                static_cast<unsigned long long>(info.resume_round));
  } else {
    serve::Manifest manifest;
    if (!manifest_path.empty()) manifest = serve::load_manifest(manifest_path);
    if (!fault_plan_path.empty()) {
      const fault::FaultPlan plan =
          fault::FaultPlan::from_file(fault_plan_path);
      for (const serve::BoardDeath& d : serve::board_deaths_from_plan(plan)) {
        manifest.service.board_deaths.push_back(d);
      }
    }
    if (!journal_path.empty()) {
      serve::DurabilityConfig& dur = manifest.service.durability;
      dur.journal_path = journal_path;
      dur.checkpoint_dir = journal_path + ".ckpts";
      dur.checkpoint_every_quanta = static_cast<std::uint64_t>(
          checkpoint_every < 0 ? 0 : checkpoint_every);
      std::filesystem::create_directories(dur.checkpoint_dir);
    }
    manifest.service.stop_flag = &g_stop;
    owned = std::make_unique<serve::GrapeService>(manifest.service);
    if (listen.empty()) {  // a daemon's first line is its endpoint
      std::printf("grape6_served: %zu-board machine, %zu job(s), quantum %zu "
                  "blocksteps%s\n",
                  owned->config().pool_boards(), manifest.jobs.size(),
                  owned->config().quantum_blocksteps,
                  journal_path.empty() ? "" : ", durable");
    }
    for (const serve::JobSpec& spec : manifest.jobs) {
      const serve::SubmitResult r = owned->submit(spec);
      if (!r) {
        std::printf("  rejected '%s' (%s): %s\n", spec.name.c_str(),
                    serve::reject_reason_name(r.reason), r.message.c_str());
      }
    }
  }
  serve::GrapeService& service = *owned;

  if (listen.empty()) {
    service.drain();  // in-process: the manifest is the whole workload
  } else {
    wire::WireServer server(service, listen);
    std::printf("grape6_served: %zu-board machine listening on %s\n",
                service.config().pool_boards(),
                endpoint_string(server.endpoint()).c_str());
    std::fflush(stdout);  // harnesses wait for this line
    server.run(&g_stop);
    const wire::WireServerStats& ws = server.stats();
    std::printf("grape6_served: served %llu connection(s), %llu request(s), "
                "%llu event(s), %llu protocol error(s)\n",
                static_cast<unsigned long long>(ws.connections),
                static_cast<unsigned long long>(ws.requests),
                static_cast<unsigned long long>(ws.events),
                static_cast<unsigned long long>(ws.protocol_errors));
  }
  // Both modes end here: a signal checkpoints the live jobs and journals
  // `drained` ("sigterm"); otherwise the remaining work runs out and the
  // journal closes with `drained` ("drained").
  service.run_until_drained();
  const bool drained_early = g_stop.load(std::memory_order_relaxed);

  // A signal-drained run resumes under --recover; it writes no snapshots.
  const std::string snapshot_prefix = drained_early ? "" : out;
  for (serve::JobId id : service.jobs()) {
    const std::string file = snapshot_file(snapshot_prefix, service, id);
    if (file.empty()) continue;
    double t = 0.0;
    const ParticleSet& final = service.final_state(id, &t);
    save_snapshot(file, final, t);
  }

  print_job_table(service);
  const serve::ServiceStats& st = service.stats();
  std::printf("\nservice: %llu rounds, %llu completed, %llu failed, %llu "
              "quarantined, %llu rejected, %llu preemptions, %llu "
              "revocations, %llu resize(s), %zu board(s) dead, makespan "
              "%.3f s\n",
              static_cast<unsigned long long>(st.rounds),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.quarantined),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.preemptions),
              static_cast<unsigned long long>(st.revocations),
              static_cast<unsigned long long>(st.resizes), st.boards_dead,
              st.makespan_s);
  if (drained_early) {
    std::printf("service: drained on signal; resume with --recover\n");
  }

  if (!report_out.empty()) write_report(report_out, service, snapshot_prefix);
  obs::export_metrics_json(metrics_out, &st.eq10);
  obs::export_chrome_trace(trace_out);
  obs::export_timeseries_json(timeseries_out);
  obs::export_flight_json(g_flightrec_out);

  const bool all_completed =
      st.failed == 0 && st.rejected == 0 && st.quarantined == 0;
  return all_completed ? 0 : 3;
} catch (const std::exception& e) {
  std::fprintf(stderr, "grape6_served: error: %s\n", e.what());
  obs::export_flight_json(g_flightrec_out);
  return 1;
}
