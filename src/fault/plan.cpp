#include "fault/plan.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/errors.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"

namespace g6::fault {

bool FaultPlan::any() const {
  return jmem_flip_rate > 0.0 || ipacket_rate > 0.0 || compute_rate > 0.0 ||
         !stuck_chips.empty() || !hard_failures.empty() ||
         link_drop_rate > 0.0 || link_spike_rate > 0.0;
}

FaultPlan FaultPlan::uniform_transients(double rate, std::uint64_t seed) {
  G6_REQUIRE(rate >= 0.0 && rate <= 1.0);
  FaultPlan plan;
  plan.seed = seed;
  plan.jmem_flip_rate = rate;
  plan.ipacket_rate = rate;
  plan.compute_rate = rate;
  return plan;
}

namespace {

using obs::JsonReader;

[[noreturn]] void fail(const std::string& what) { throw FaultError(what); }

/// Optional probability `key`, defaulting to `dflt`.
double rate(const JsonReader& j, const char* key, double dflt) {
  double r = dflt;
  j.read(key, &r);
  if (r < 0.0 || r > 1.0) j.fail(std::string(key) + " outside [0, 1]");
  return r;
}

HardFailure parse_hard_failure(const JsonReader& j) {
  j.strict_keys({"time", "board", "module", "chip"}, {"board"});
  HardFailure f;
  j.read("time", &f.time);
  j.read("board", &f.board);
  j.read("module", &f.module);
  j.read("chip", &f.chip);
  return f;
}

}  // namespace

FaultPlan FaultPlan::from_json(const obs::JsonValue& v) {
  const JsonReader j(v, "fault plan", fail);
  j.strict_keys({"seed", "jmem_flip_rate", "ipacket_rate", "compute_rate",
                "stuck_chips", "hard_failures", "link_drop_rate",
                "link_spike_rate", "link_spike_factor",
                "retransmit_timeout_s"});
  FaultPlan plan;
  j.read("seed", &plan.seed);
  plan.jmem_flip_rate = rate(j, "jmem_flip_rate", plan.jmem_flip_rate);
  plan.ipacket_rate = rate(j, "ipacket_rate", plan.ipacket_rate);
  plan.compute_rate = rate(j, "compute_rate", plan.compute_rate);
  plan.link_drop_rate = rate(j, "link_drop_rate", plan.link_drop_rate);
  plan.link_spike_rate = rate(j, "link_spike_rate", plan.link_spike_rate);
  if (j.has("stuck_chips")) {
    const obs::JsonValue& chips = j.at("stuck_chips");
    if (!chips.is_array()) j.fail("stuck_chips must be an array");
    for (std::size_t i = 0; i < chips.items().size(); ++i) {
      plan.stuck_chips.push_back(j.as<int>(
          chips.items()[i], "stuck_chips[" + std::to_string(i) + "]"));
    }
  }
  if (j.has("hard_failures")) {
    const obs::JsonValue& hard = j.at("hard_failures");
    if (!hard.is_array()) j.fail("hard_failures must be an array");
    for (std::size_t i = 0; i < hard.items().size(); ++i) {
      plan.hard_failures.push_back(parse_hard_failure(
          j.child(hard.items()[i], ".hard_failures[" + std::to_string(i) + "]")));
    }
  }
  j.read("link_spike_factor", &plan.link_spike_factor);
  if (plan.link_spike_factor < 1.0) j.fail("link_spike_factor must be >= 1");
  j.read("retransmit_timeout_s", &plan.retransmit_timeout_s);
  if (plan.retransmit_timeout_s < 0.0) {
    j.fail("retransmit_timeout_s must be >= 0");
  }
  return plan;
}

FaultPlan FaultPlan::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw FaultError("fault plan: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw FaultError("fault plan: read error on '" + path + "'");
  try {
    return from_json(obs::JsonValue::parse(buf.str()));
  } catch (const FaultError&) {
    throw;
  } catch (const std::exception& e) {
    throw FaultError("fault plan: parse error in '" + path + "': " + e.what());
  }
}

FaultPlan FaultPlan::from_env() {
  const char* path = std::getenv("G6_FAULT_PLAN");
  if (path == nullptr || *path == '\0') return FaultPlan{};
  return from_file(path);
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os << "fault plan: seed=" << seed << " jmem=" << jmem_flip_rate
     << " ipacket=" << ipacket_rate << " compute=" << compute_rate
     << " stuck=" << stuck_chips.size() << " hard=" << hard_failures.size()
     << " link_drop=" << link_drop_rate << " link_spike=" << link_spike_rate;
  return os.str();
}

}  // namespace g6::fault
