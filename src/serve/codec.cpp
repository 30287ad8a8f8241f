#include "serve/codec.hpp"

#include <ostream>

#include "serve/service.hpp"
#include "util/check.hpp"

namespace g6::serve {

namespace {

using obs::json_escape;
using obs::json_number;

void write_eq10(std::ostream& os, const obs::Eq10Accumulator& eq) {
  os << "{\"host_s\":" << json_number(eq.host_s)
     << ",\"dma_s\":" << json_number(eq.dma_s)
     << ",\"net_s\":" << json_number(eq.net_s)
     << ",\"grape_s\":" << json_number(eq.grape_s)
     << ",\"total_s\":" << json_number(eq.total_s) << ",\"steps\":" << eq.steps
     << ",\"blocksteps\":" << eq.blocksteps << "}";
}

}  // namespace

const std::vector<std::string_view> kJobSpecKeys = {
    "name",       "model",      "n",        "w0",
    "t_end",      "eps",        "eta",      "seed",
    "boards",     "boards_min", "boards_max", "priority",
    "deadline_rounds", "chaos_fail_quanta"};

void encode_job_spec(std::ostream& os, const JobSpec& s) {
  os << "{\"name\":\"" << json_escape(s.name) << "\",\"model\":\""
     << json_escape(s.model) << "\",\"n\":" << s.n
     << ",\"w0\":" << json_number(s.w0) << ",\"t_end\":" << json_number(s.t_end)
     << ",\"eps\":" << json_number(s.eps) << ",\"eta\":" << json_number(s.eta)
     << ",\"seed\":" << s.seed << ",\"boards\":" << s.boards
     << ",\"boards_min\":" << s.boards_min
     << ",\"boards_max\":" << s.boards_max << ",\"priority\":\""
     << priority_name(s.priority)
     << "\",\"deadline_rounds\":" << s.deadline_rounds
     << ",\"chaos_fail_quanta\":" << s.chaos_fail_quanta << "}";
}

JobSpec decode_job_spec(const obs::JsonReader& j,
                        const std::vector<std::string_view>& required) {
  j.strict_keys(kJobSpecKeys, required);
  JobSpec s;
  j.read("name", &s.name);
  j.read("model", &s.model);
  j.read("n", &s.n);
  j.read("w0", &s.w0);
  j.read("t_end", &s.t_end);
  j.read("eps", &s.eps);
  j.read("eta", &s.eta);
  j.read("seed", &s.seed);
  j.read("boards", &s.boards);
  j.read("boards_min", &s.boards_min);
  j.read("boards_max", &s.boards_max);
  if (j.has("priority")) {
    const std::string p = j.get<std::string>("priority");
    if (p == "interactive") {
      s.priority = Priority::kInteractive;
    } else if (p == "batch") {
      s.priority = Priority::kBatch;
    } else {
      j.fail("priority must be \"interactive\" or \"batch\", got \"" + p +
             "\"");
    }
  }
  j.read("deadline_rounds", &s.deadline_rounds);
  j.read("chaos_fail_quanta", &s.chaos_fail_quanta);
  return s;
}

const std::vector<std::string_view> kServiceConfigKeys = {
    "max_queue_depth",  "quantum_blocksteps", "max_requeues",
    "max_job_failures", "backoff_base_rounds", "boards_per_host",
    "hosts_per_cluster", "clusters",          "checkpoint_dir",
    "checkpoint_every_quanta", "board_deaths"};

void encode_service_config(std::ostream& os, const ServiceConfig& c) {
  os << "{\"max_queue_depth\":" << c.max_queue_depth
     << ",\"quantum_blocksteps\":" << c.quantum_blocksteps
     << ",\"max_requeues\":" << c.max_requeues
     << ",\"max_job_failures\":" << c.max_job_failures
     << ",\"backoff_base_rounds\":" << c.backoff_base_rounds
     << ",\"boards_per_host\":" << c.machine.boards_per_host
     << ",\"hosts_per_cluster\":" << c.machine.hosts_per_cluster
     << ",\"clusters\":" << c.machine.clusters << ",\"checkpoint_dir\":\""
     << json_escape(c.durability.checkpoint_dir)
     << "\",\"checkpoint_every_quanta\":"
     << c.durability.checkpoint_every_quanta << ",\"board_deaths\":[";
  for (std::size_t i = 0; i < c.board_deaths.size(); ++i) {
    os << (i ? "," : "") << "{\"round\":" << c.board_deaths[i].round
       << ",\"board\":" << c.board_deaths[i].board << "}";
  }
  os << "]}";
}

ServiceConfig decode_service_config(
    const obs::JsonReader& j, const std::vector<std::string_view>& allowed,
    const std::vector<std::string_view>& required) {
  j.strict_keys(allowed, required);
  ServiceConfig c;
  j.read("max_queue_depth", &c.max_queue_depth);
  j.read("quantum_blocksteps", &c.quantum_blocksteps);
  j.read("max_requeues", &c.max_requeues);
  j.read("max_job_failures", &c.max_job_failures);
  j.read("backoff_base_rounds", &c.backoff_base_rounds);
  j.read("boards_per_host", &c.machine.boards_per_host);
  j.read("hosts_per_cluster", &c.machine.hosts_per_cluster);
  j.read("clusters", &c.machine.clusters);
  j.read("checkpoint_dir", &c.durability.checkpoint_dir);
  j.read("checkpoint_every_quanta", &c.durability.checkpoint_every_quanta);
  if (!j.has("board_deaths")) return c;
  const obs::JsonValue& deaths = j.at("board_deaths");
  if (!deaths.is_array()) j.fail("board_deaths must be an array");
  for (std::size_t i = 0; i < deaths.items().size(); ++i) {
    const obs::JsonReader d = j.child(
        deaths.items()[i], ".board_deaths[" + std::to_string(i) + "]");
    d.strict_keys({"round", "board"}, {"round", "board"});
    c.board_deaths.push_back(
        {d.get<std::uint64_t>("round"), d.get<std::size_t>("board")});
  }
  return c;
}

void write_job_report(std::ostream& os, const JobReport& r,
                      std::string_view snapshot) {
  os << "{\"id\":" << r.id << ",\"name\":\"" << json_escape(r.name)
     << "\",\"priority\":\"" << priority_name(r.priority)
     << "\",\"state\":\"" << job_state_name(r.state)
     << "\",\"reject_reason\":\"" << reject_reason_name(r.reject_reason)
     << "\",\"message\":\"" << json_escape(r.message) << "\",\"n\":" << r.n
     << ",\"boards\":" << r.boards << ",\"boards_now\":" << r.boards_now
     << ",\"resizes\":" << r.resizes << ",\"t_end\":" << json_number(r.t_end)
     << ",\"t_reached\":" << json_number(r.t_reached)
     << ",\"steps\":" << r.steps << ",\"blocksteps\":" << r.blocksteps
     << ",\"quanta\":" << r.quanta << ",\"preemptions\":" << r.preemptions
     << ",\"revocations\":" << r.revocations << ",\"requeues\":" << r.requeues
     << ",\"failures\":" << r.failures
     << ",\"wait_s\":" << json_number(r.wait_s)
     << ",\"run_s\":" << json_number(r.run_s)
     << ",\"grape_virtual_s\":" << json_number(r.grape_virtual_s)
     << ",\"e0\":" << json_number(r.e0)
     << ",\"e_final\":" << json_number(r.e_final)
     << ",\"energy_error\":" << json_number(r.energy_error())
     << ",\"snapshot\":\"" << json_escape(snapshot) << "\",\"eq10\":";
  write_eq10(os, r.eq10);
  os << "}";
}

void write_service_stats(std::ostream& os, const GrapeService& service) {
  G6_REQUIRE(service.config().pool_boards() > 0);
  const ServiceStats& st = service.stats();
  os << "{\"boards\":" << service.config().pool_boards()
     << ",\"healthy_boards\":" << service.healthy_boards()
     << ",\"rounds\":" << st.rounds << ",\"submitted\":" << st.submitted
     << ",\"rejected\":" << st.rejected << ",\"completed\":" << st.completed
     << ",\"failed\":" << st.failed << ",\"quarantined\":" << st.quarantined
     << ",\"preemptions\":" << st.preemptions
     << ",\"revocations\":" << st.revocations
     << ",\"requeues\":" << st.requeues << ",\"resizes\":" << st.resizes
     << ",\"boards_dead\":" << st.boards_dead
     << ",\"makespan_s\":" << json_number(st.makespan_s) << ",\"eq10\":";
  write_eq10(os, st.eq10);
  os << "}";
}

}  // namespace g6::serve
