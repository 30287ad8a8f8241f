#include "wire/envelope.hpp"

#include <ostream>
#include <sstream>

#include "serve/codec.hpp"
#include "util/check.hpp"

namespace g6::wire {

namespace {

using obs::JsonReader;
using obs::JsonValue;
using obs::json_escape;
using obs::json_number;

void write_envelope_head(std::ostream& os, const char* kind) {
  os << "{\"schema\":\"" << kWireSchema << "\",\"kind\":\"" << kind << "\"";
}

}  // namespace

void throw_wire_error(const std::string& what) { throw WireError(what); }

Envelope parse_envelope(std::string_view text) {
  G6_REQUIRE(!text.empty());
  Envelope env;
  try {
    env.root = JsonValue::parse(text);
  } catch (const std::exception& e) {
    throw_wire_error(std::string("envelope is not valid JSON: ") + e.what());
  }
  const JsonReader head(env.root, "envelope", throw_wire_error);
  const std::string schema = head.get<std::string>("schema");
  if (schema != kWireSchema) {
    head.fail("schema '" + schema + "' (expected " + kWireSchema + ")");
  }
  env.kind = head.get<std::string>("kind");
  const JsonReader body(env.root, env.kind, throw_wire_error);
  if (env.kind == "request") {
    env.id = body.get<std::uint64_t>("id");
    env.method = body.get<std::string>("method");
  } else if (env.kind == "response") {
    env.id = body.get<std::uint64_t>("id");
    body.at("ok");
  } else if (env.kind == "event") {
    env.event = body.get<std::string>("event");
  } else {
    head.fail("unknown kind '" + env.kind + "'");
  }
  return env;
}

std::string encode_request(std::uint64_t id, std::string_view method,
                           std::string_view payload) {
  std::ostringstream os;
  write_envelope_head(os, "request");
  os << ",\"id\":" << id << ",\"method\":\"" << method << "\"" << payload
     << "}";
  return os.str();
}

std::string encode_progress_event(const serve::JobReport& r) {
  std::ostringstream os;
  write_envelope_head(os, "event");
  os << ",\"event\":\"progress\",\"job\":" << r.id << ",\"name\":\""
     << json_escape(r.name) << "\",\"state\":\""
     << serve::job_state_name(r.state) << "\",\"quanta\":" << r.quanta
     << ",\"t\":" << json_number(r.t_reached) << ",\"steps\":" << r.steps
     << ",\"blocksteps\":" << r.blocksteps << ",\"boards\":" << r.boards_now
     << ",\"resizes\":" << r.resizes << "}";
  return os.str();
}

std::string encode_terminal_event(const serve::JobReport& r) {
  std::ostringstream os;
  write_envelope_head(os, "event");
  os << ",\"event\":\"terminal\",\"job\":" << r.id << ",\"report\":";
  serve::write_job_report(os, r);
  os << "}";
  return os.str();
}

std::string encode_snapshot_event(const serve::JobReport& r,
                                  const ParticleSet& set, double t) {
  std::ostringstream os;
  write_envelope_head(os, "event");
  os << ",\"event\":\"snapshot\",\"job\":" << r.id << ",\"name\":\""
     << json_escape(r.name) << "\",\"snapshot\":";
  encode_snapshot(os, set, t);
  os << "}";
  return os.str();
}

std::string encode_error_event(std::string_view message) {
  std::ostringstream os;
  write_envelope_head(os, "event");
  os << ",\"event\":\"error\",\"message\":\"" << json_escape(message)
     << "\"}";
  return os.str();
}

void encode_snapshot(std::ostream& os, const ParticleSet& set, double t) {
  os << "{\"t\":" << json_number(t) << ",\"n\":" << set.size()
     << ",\"bodies\":[";
  bool first = true;
  for (const Body& b : set.bodies()) {
    if (!first) os << ',';
    first = false;
    os << '[' << json_number(b.mass) << ',' << json_number(b.pos.x) << ','
       << json_number(b.pos.y) << ',' << json_number(b.pos.z) << ','
       << json_number(b.vel.x) << ',' << json_number(b.vel.y) << ','
       << json_number(b.vel.z) << ']';
  }
  os << "]}";
}

ParticleSet decode_snapshot(const obs::JsonValue& j, double* t) {
  const JsonReader r(j, "snapshot", throw_wire_error);
  if (t != nullptr) *t = r.get<double>("t");
  const auto n = r.get<std::size_t>("n");
  const JsonValue& bodies = r.at("bodies");
  if (!bodies.is_array()) r.fail("key 'bodies' must be an array");
  if (bodies.items().size() != n) {
    r.fail("n=" + std::to_string(n) + " but " +
           std::to_string(bodies.items().size()) + " bodies");
  }
  ParticleSet set;
  set.reserve(n);
  for (const JsonValue& row : bodies.items()) {
    if (!row.is_array() || row.items().size() != 7) {
      r.fail("each body is [m,x,y,z,vx,vy,vz]");
    }
    double c[7];
    for (std::size_t k = 0; k < 7; ++k) {
      c[k] = r.as<double>(row.items()[k], "body component");
    }
    Body b;
    b.mass = c[0];
    b.pos = Vec3(c[1], c[2], c[3]);
    b.vel = Vec3(c[4], c[5], c[6]);
    set.add(b);
  }
  return set;
}

}  // namespace g6::wire
