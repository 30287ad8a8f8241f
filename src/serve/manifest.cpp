#include "serve/manifest.hpp"

#include <fstream>
#include <set>
#include <sstream>

#include "obs/json.hpp"
#include "serve/admission.hpp"
#include "serve/codec.hpp"
#include "util/check.hpp"

namespace g6::serve {

namespace {

using obs::JsonReader;
using obs::JsonValue;

[[noreturn]] void fail(const std::string& what) { throw ManifestError(what); }

ServiceConfig parse_service(const JsonValue& obj) {
  ServiceConfig cfg = decode_service_config(
      JsonReader(obj, "service", fail),
      {"max_queue_depth", "quantum_blocksteps", "max_requeues",
       "max_job_failures", "backoff_base_rounds", "boards_per_host",
       "hosts_per_cluster", "clusters", "board_deaths"},
      {});
  if (cfg.quantum_blocksteps < 1) {
    fail("service.quantum_blocksteps must be >= 1");
  }
  if (cfg.max_requeues < 0) fail("service.max_requeues must be >= 0");
  if (cfg.max_job_failures < 1) fail("service.max_job_failures must be >= 1");
  if (cfg.pool_boards() < 1) fail("service: machine has zero boards");
  for (const BoardDeath& d : cfg.board_deaths) {
    if (d.board >= cfg.pool_boards()) {
      fail("service.board_deaths: board " + std::to_string(d.board) +
           " outside the " + std::to_string(cfg.pool_boards()) +
           "-board machine");
    }
  }
  return cfg;
}

}  // namespace

Manifest parse_manifest(const std::string& text) {
  if (text.empty()) fail("manifest: empty manifest text");
  JsonValue root;
  try {
    root = JsonValue::parse(text);
  } catch (const std::exception& e) {
    fail(std::string("manifest is not valid JSON: ") + e.what());
  }
  const JsonReader r(root, "manifest", fail);
  r.strict_keys({"schema", "service", "jobs"});
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kManifestSchema) {
    fail(std::string("manifest: key 'schema' must be \"") + kManifestSchema +
         "\"");
  }

  Manifest m;
  if (r.has("service")) m.service = parse_service(r.at("service"));

  // "jobs" is optional: a service-only manifest describes the machine a
  // serving daemon (tools/grape6_served) fronts, with every job arriving
  // over the wire. A PRESENT but empty array is still an error — that is
  // a manifest that meant to list jobs and lost them.
  const JsonValue* jobs = root.find("jobs");
  if (jobs == nullptr) return m;
  if (!jobs->is_array()) fail("manifest: key 'jobs' must be an array");
  if (jobs->items().empty()) fail("manifest: 'jobs' is empty");

  std::set<std::string> names;
  for (std::size_t i = 0; i < jobs->items().size(); ++i) {
    const std::string where = "jobs[" + std::to_string(i) + "]";
    JobSpec spec =
        decode_job_spec(JsonReader(jobs->items()[i], where, fail), {"name"});
    const AdmissionDecision d = AdmissionController::validate_spec(spec);
    if (!d.admit) fail(where + " ('" + spec.name + "'): " + d.message);
    if (!names.insert(spec.name).second) {
      fail(where + ": duplicate job name '" + spec.name + "'");
    }
    m.jobs.push_back(std::move(spec));
  }
  return m;
}

Manifest load_manifest(const std::string& path) {
  G6_REQUIRE_MSG(!path.empty(), "empty manifest path");
  std::ifstream in(path);
  if (!in) fail("cannot open manifest file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_manifest(ss.str());
}

}  // namespace g6::serve
