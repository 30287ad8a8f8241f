// grape6-wire-v1 envelope contract: strict parse (anything off-schema
// throws WireError), and lossless round-trips for the two payloads that
// carry physics — job specs (manifest-shaped) and particle snapshots
// (17-digit doubles, binary64-exact).
#include "wire/envelope.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "nbody/particle.hpp"
#include "obs/json.hpp"
#include "serve/codec.hpp"
#include "serve/types.hpp"
#include "util/rng.hpp"

namespace g6::wire {
namespace {

Envelope parse(const std::string& text) { return parse_envelope(text); }

TEST(WireEnvelope, ParsesMinimalRequest) {
  const Envelope env = parse(
      R"({"schema":"grape6-wire-v1","kind":"request","id":7,"method":"ping"})");
  EXPECT_EQ(env.kind, "request");
  EXPECT_EQ(env.id, 7u);
  EXPECT_EQ(env.method, "ping");
}

TEST(WireEnvelope, ParsesResponseAndEvent) {
  const Envelope resp = parse(
      R"({"schema":"grape6-wire-v1","kind":"response","id":3,"ok":true})");
  EXPECT_EQ(resp.kind, "response");
  EXPECT_EQ(resp.id, 3u);

  const Envelope ev = parse(
      R"({"schema":"grape6-wire-v1","kind":"event","event":"progress","job":1})");
  EXPECT_EQ(ev.kind, "event");
  EXPECT_EQ(ev.event, "progress");
}

TEST(WireEnvelope, MalformedJsonThrows) {
  EXPECT_THROW(parse("{nope"), WireError);
  EXPECT_THROW(parse("[1,2,3]"), WireError);  // not an object
  EXPECT_THROW(parse("42"), WireError);
}

TEST(WireEnvelope, WrongSchemaThrows) {
  EXPECT_THROW(
      parse(R"({"schema":"grape6-wire-v0","kind":"request","id":1,"method":"ping"})"),
      WireError);
  EXPECT_THROW(parse(R"({"kind":"request","id":1,"method":"ping"})"),
               WireError);
}

TEST(WireEnvelope, UnknownKindThrows) {
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"notify"})"),
               WireError);
}

TEST(WireEnvelope, RequestMissingIdOrMethodThrows) {
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"request","method":"ping"})"),
               WireError);
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"request","id":1})"),
               WireError);
  // id must be a non-negative integer, not prose or a fraction.
  EXPECT_THROW(
      parse(R"({"schema":"grape6-wire-v1","kind":"request","id":"x","method":"ping"})"),
      WireError);
  EXPECT_THROW(
      parse(R"({"schema":"grape6-wire-v1","kind":"request","id":1.5,"method":"ping"})"),
      WireError);
  EXPECT_THROW(
      parse(R"({"schema":"grape6-wire-v1","kind":"request","id":1e30,"method":"ping"})"),
      WireError);
  EXPECT_THROW(
      parse(R"({"schema":"grape6-wire-v1","kind":"request","id":-1,"method":"ping"})"),
      WireError);
}

TEST(WireEnvelope, ResponseMissingOkThrows) {
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"response","id":1})"),
               WireError);
}

TEST(WireEnvelope, EventMissingNameThrows) {
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"event"})"),
               WireError);
}

// ---------------------------------------------------------------- specs

/// A submit payload's spec, read the way WireServer reads it.
serve::JobSpec decode_spec(const std::string& text) {
  const obs::JsonValue v = obs::JsonValue::parse(text);
  return serve::decode_job_spec(obs::JsonReader(v, "spec", throw_wire_error),
                                {"name"});
}

serve::JobSpec round_trip(const serve::JobSpec& spec) {
  std::ostringstream os;
  serve::encode_job_spec(os, spec);
  return decode_spec(os.str());
}

TEST(WireEnvelope, JobSpecRoundTripsEveryField) {
  serve::JobSpec spec;
  spec.name = "wire \"quoted\" job";
  spec.model = "plummer";
  spec.n = 192;
  spec.w0 = 5.5;
  spec.t_end = 0.125;
  spec.eps = 0.0078125;
  spec.eta = 0.017;
  spec.seed = 424242;
  spec.boards = 2;
  spec.boards_min = 1;
  spec.boards_max = 4;
  spec.priority = serve::Priority::kInteractive;
  spec.deadline_rounds = 9;
  spec.chaos_fail_quanta = 3;

  const serve::JobSpec back = round_trip(spec);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.model, spec.model);
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.w0, spec.w0);
  EXPECT_EQ(back.t_end, spec.t_end);
  EXPECT_EQ(back.eps, spec.eps);
  EXPECT_EQ(back.eta, spec.eta);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.boards, spec.boards);
  EXPECT_EQ(back.boards_min, spec.boards_min);
  EXPECT_EQ(back.boards_max, spec.boards_max);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.deadline_rounds, spec.deadline_rounds);
  EXPECT_EQ(back.chaos_fail_quanta, spec.chaos_fail_quanta);
}

TEST(WireEnvelope, JobSpecDefaultsRoundTrip) {
  serve::JobSpec spec;
  spec.name = "defaults";
  const serve::JobSpec back = round_trip(spec);
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.boards_min, spec.boards_min);
  EXPECT_EQ(back.boards_max, spec.boards_max);
}

TEST(WireEnvelope, JobSpecUnknownKeyThrows) {
  EXPECT_THROW(decode_spec(R"({"name":"x","frobnicate":1})"), WireError);
}

TEST(WireEnvelope, JobSpecBadPriorityThrows) {
  EXPECT_THROW(decode_spec(R"({"name":"x","priority":"rush"})"), WireError);
}

TEST(WireEnvelope, JobSpecOutOfRangeNumbersThrow) {
  // Checked before any cast: none of these may reach a float-to-integer
  // conversion (undefined behaviour for out-of-range values).
  EXPECT_THROW(decode_spec(R"({"name":"x","n":1e30})"), WireError);
  EXPECT_THROW(decode_spec(R"({"name":"x","n":-1})"), WireError);
  EXPECT_THROW(decode_spec(R"({"name":"x","seed":4294967296})"), WireError);
  EXPECT_THROW(decode_spec(R"({"name":"x","chaos_fail_quanta":3e9})"),
               WireError);
  EXPECT_THROW(decode_spec(R"({"name":"x","deadline_rounds":1.5})"),
               WireError);
  EXPECT_EQ(decode_spec(R"({"name":"x","seed":4294967295})").seed,
            4294967295u);
}

TEST(WireEnvelope, JobSpecMissingNameThrows) {
  EXPECT_THROW(decode_spec(R"({"n":64})"), WireError);
}

// --------------------------------------------------------------- golden
//
// The exact bytes of a submit request and the progress / snapshot /
// error events, as this protocol version has always written them: an
// escaped job name and 17-digit doubles (0.1 + 0.2, 1/3) included.

serve::JobSpec awkward_spec() {
  serve::JobSpec s;
  s.name = "we\"ird\\name\n\t";
  s.model = "king";
  s.n = 96;
  s.w0 = 0.1 + 0.2;
  s.t_end = 0.0625;
  s.eps = 1.0 / 3.0;
  s.eta = 0.01;
  s.seed = 4000000000u;
  s.boards = 2;
  s.boards_min = 1;
  s.boards_max = 4;
  s.priority = serve::Priority::kInteractive;
  s.deadline_rounds = 30;
  s.chaos_fail_quanta = 2;
  return s;
}

serve::JobReport awkward_report() {
  serve::JobReport r;
  r.id = 7;
  r.name = awkward_spec().name;
  r.state = serve::JobState::kRunning;
  r.quanta = 3;
  r.t_reached = 0.1 + 0.2;
  r.steps = 12345;
  r.blocksteps = 67;
  r.boards_now = 3;
  r.resizes = 1;
  return r;
}

TEST(WireEnvelopeGolden, SubmitRequestBytes) {
  std::ostringstream spec;
  spec << ",\"spec\":";
  serve::encode_job_spec(spec, awkward_spec());
  EXPECT_EQ(encode_request(5, "submit", spec.str()),
            R"golden({"schema":"grape6-wire-v1","kind":"request","id":5,"method":"submit","spec":{"name":"we\"ird\\name\n\t","model":"king","n":96,"w0":0.30000000000000004,"t_end":0.0625,"eps":0.33333333333333331,"eta":0.01,"seed":4000000000,"boards":2,"boards_min":1,"boards_max":4,"priority":"interactive","deadline_rounds":30,"chaos_fail_quanta":2}})golden");
}

TEST(WireEnvelopeGolden, ProgressEventBytes) {
  EXPECT_EQ(encode_progress_event(awkward_report()),
            R"golden({"schema":"grape6-wire-v1","kind":"event","event":"progress","job":7,"name":"we\"ird\\name\n\t","state":"running","quanta":3,"t":0.30000000000000004,"steps":12345,"blocksteps":67,"boards":3,"resizes":1})golden");
}

TEST(WireEnvelopeGolden, SnapshotEventBytes) {
  ParticleSet set;
  Body a;
  a.mass = 0.5;
  a.pos = Vec3(0.1 + 0.2, -1.0 / 3.0, 1e-300);
  a.vel = Vec3(0.0, -0.0, 123456.789);
  set.add(a);
  Body b;
  b.mass = 0.5;
  b.pos = Vec3(-0.3, 2.0 / 3.0, 0.0);
  b.vel = Vec3(1e-5, 0.7, -2.5);
  set.add(b);
  EXPECT_EQ(encode_snapshot_event(awkward_report(), set, 0.1 + 0.2),
            R"golden({"schema":"grape6-wire-v1","kind":"event","event":"snapshot","job":7,"name":"we\"ird\\name\n\t","snapshot":{"t":0.30000000000000004,"n":2,"bodies":[[0.5,0.30000000000000004,-0.33333333333333331,1e-300,0,-0,123456.789],[0.5,-0.29999999999999999,0.66666666666666663,0,1.0000000000000001e-05,0.69999999999999996,-2.5]]}})golden");
}

TEST(WireEnvelopeGolden, ErrorEventBytes) {
  EXPECT_EQ(encode_error_event("framing: bad \"len\"\n"),
            R"golden({"schema":"grape6-wire-v1","kind":"event","event":"error","message":"framing: bad \"len\"\n"})golden");
}

// ------------------------------------------------------------ snapshots

TEST(WireEnvelope, SnapshotRoundTripIsBinary64Exact) {
  // Awkward doubles on purpose: the 17-significant-digit encoding must
  // bring every bit pattern home (that is what makes client-written
  // snapshot files byte-identical to server-written ones).
  Rng rng(20260809);
  ParticleSet set;
  for (int i = 0; i < 33; ++i) {
    Body b;
    b.mass = 1.0 / 33.0 + 1e-17 * static_cast<double>(i);
    b.pos = Vec3(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                 rng.uniform(-1.0, 1.0));
    b.vel = Vec3(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                 rng.uniform(-0.1, 0.1));
    set.add(b);
  }
  const double t = 0.1 + 0.2;  // famously not 0.3

  std::ostringstream os;
  encode_snapshot(os, set, t);
  double t_back = 0.0;
  const ParticleSet back =
      decode_snapshot(obs::JsonValue::parse(os.str()), &t_back);

  ASSERT_EQ(back.size(), set.size());
  EXPECT_EQ(t_back, t);  // exact, not near
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(back.bodies()[i].mass, set.bodies()[i].mass) << "body " << i;
    EXPECT_EQ(back.bodies()[i].pos.x, set.bodies()[i].pos.x) << "body " << i;
    EXPECT_EQ(back.bodies()[i].pos.y, set.bodies()[i].pos.y) << "body " << i;
    EXPECT_EQ(back.bodies()[i].pos.z, set.bodies()[i].pos.z) << "body " << i;
    EXPECT_EQ(back.bodies()[i].vel.x, set.bodies()[i].vel.x) << "body " << i;
    EXPECT_EQ(back.bodies()[i].vel.y, set.bodies()[i].vel.y) << "body " << i;
    EXPECT_EQ(back.bodies()[i].vel.z, set.bodies()[i].vel.z) << "body " << i;
  }
}

TEST(WireEnvelope, SnapshotCountMismatchThrows) {
  EXPECT_THROW(decode_snapshot(obs::JsonValue::parse(
                   R"({"t":0,"n":2,"bodies":[[1,0,0,0,0,0,0]]})"),
                               nullptr),
               WireError);
}

TEST(WireEnvelope, SnapshotMalformedBodyThrows) {
  EXPECT_THROW(decode_snapshot(obs::JsonValue::parse(
                   R"({"t":0,"n":1,"bodies":[[1,0,0,0,0,0]]})"),  // 6 comps
                               nullptr),
               WireError);
  EXPECT_THROW(decode_snapshot(obs::JsonValue::parse(
                   R"({"t":0,"n":1,"bodies":[["m",0,0,0,0,0,0]]})"),
                               nullptr),
               WireError);
  EXPECT_THROW(
      decode_snapshot(obs::JsonValue::parse(R"({"t":0,"n":1})"), nullptr),
      WireError);
}

}  // namespace
}  // namespace g6::wire
