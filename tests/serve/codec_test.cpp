// The serving formats this codebase must not drift: golden journal
// lines (one per record type, the exact bytes journals already on disk
// hold, so they replay unchanged), the JobSpec codec shared by manifest,
// journal and wire, and the report/stats encoders, which carry every key
// and value of the older wire payloads plus the report file's
// `snapshot` and `eq10`.
#include "serve/codec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "serve/journal.hpp"
#include "serve/manifest.hpp"
#include "serve/service.hpp"
#include "wire/envelope.hpp"

namespace g6::serve {
namespace {

using obs::JsonValue;

/// Awkward on purpose: an escaped name, 17-digit doubles (0.1 + 0.2,
/// 1/3) and a seed above 2^31.
JobSpec awkward_spec() {
  JobSpec s;
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
  s.priority = Priority::kInteractive;
  s.deadline_rounds = 30;
  s.chaos_fail_quanta = 2;
  return s;
}

/// One record per type, all fields set, seq = type + 1.
JournalRecord awkward_record(JournalRecordType type) {
  JournalRecord rec;
  rec.seq = static_cast<std::uint64_t>(type) + 1;
  rec.type = type;
  rec.round = 11;
  rec.job = 3;
  rec.spec = awkward_spec();
  rec.config.max_queue_depth = 8;
  rec.config.quantum_blocksteps = 4;
  rec.config.durability.checkpoint_dir = "serve.wal.ckpts";
  rec.config.durability.checkpoint_every_quanta = 2;
  rec.config.board_deaths.push_back({5, 1});
  rec.config.board_deaths.push_back({9, 0});
  rec.reason = "queue-full";
  rec.message = "queue \"full\"\n(retry)";
  rec.file = "ckpts/job_3_q5.ckpt";
  rec.tag = job_run_tag(rec.spec);
  rec.quanta = 5;
  rec.t = 0.1 + 0.2;
  rec.e0 = -0.25000000000000017;
  rec.e_final = -1.0 / 3.0;
  rec.steps = 123456789012ULL;
  rec.blocksteps = 678;
  rec.requeues = 1;
  rec.failures = 2;
  rec.hold_until = 17;
  rec.board = 3;
  rec.boards = 2;
  rec.records = 42;
  return rec;
}

// grape6-serve-journal-v1 lines, in JournalRecordType order.
const char* const kGoldenJournal[] = {
    R"golden({"seq":1,"type":"open","round":11,"schema":"grape6-serve-journal-v1","config":{"max_queue_depth":8,"quantum_blocksteps":4,"max_requeues":2,"max_job_failures":3,"backoff_base_rounds":1,"boards_per_host":4,"hosts_per_cluster":4,"clusters":1,"checkpoint_dir":"serve.wal.ckpts","checkpoint_every_quanta":2,"board_deaths":[{"round":5,"board":1},{"round":9,"board":0}]}})golden",
    R"golden({"seq":2,"type":"recovered","round":11,"records":42})golden",
    R"golden({"seq":3,"type":"submitted","round":11,"job":3,"spec":{"name":"we\"ird\\name\n\t","model":"king","n":96,"w0":0.30000000000000004,"t_end":0.0625,"eps":0.33333333333333331,"eta":0.01,"seed":4000000000,"boards":2,"boards_min":1,"boards_max":4,"priority":"interactive","deadline_rounds":30,"chaos_fail_quanta":2}})golden",
    R"golden({"seq":4,"type":"admitted","round":11,"job":3})golden",
    R"golden({"seq":5,"type":"rejected","round":11,"job":3,"reason":"queue-full","message":"queue \"full\"\n(retry)"})golden",
    R"golden({"seq":6,"type":"started","round":11,"job":3,"boards":2})golden",
    R"golden({"seq":7,"type":"quantum","round":11,"job":3,"quanta":5,"t":0.30000000000000004,"steps":123456789012,"blocksteps":678})golden",
    R"golden({"seq":8,"type":"checkpointed","round":11,"job":3,"quanta":5,"file":"ckpts/job_3_q5.ckpt","tag":"serve job=we\"ird\\name\n\t model=king n=96 w0=0.30000000000000004 t_end=0.0625 eps=0.33333333333333331 eta=0.01 seed=4000000000 boards=2"})golden",
    R"golden({"seq":9,"type":"requeued","round":11,"job":3,"reason":"queue-full","requeues":1,"failures":2,"hold_until":17})golden",
    R"golden({"seq":10,"type":"board-death","round":11,"board":3})golden",
    R"golden({"seq":11,"type":"finished","round":11,"job":3,"quanta":5,"t":0.30000000000000004,"e0":-0.25000000000000017,"e_final":-0.33333333333333331,"steps":123456789012,"blocksteps":678})golden",
    R"golden({"seq":12,"type":"failed","round":11,"job":3,"reason":"queue-full","message":"queue \"full\"\n(retry)"})golden",
    R"golden({"seq":13,"type":"quarantined","round":11,"job":3,"failures":2,"file":"ckpts/job_3_q5.ckpt"})golden",
    R"golden({"seq":14,"type":"drained","round":11,"reason":"queue-full"})golden",
    R"golden({"seq":15,"type":"lease-resized","round":11,"job":3,"boards":2,"reason":"queue-full"})golden",
};

TEST(ServeCodecGolden, JournalLinesAreByteStable) {
  constexpr int kTypes = static_cast<int>(JournalRecordType::kLeaseResized) + 1;
  static_assert(sizeof(kGoldenJournal) / sizeof(kGoldenJournal[0]) == kTypes);
  for (int t = 0; t < kTypes; ++t) {
    const auto type = static_cast<JournalRecordType>(t);
    EXPECT_EQ(encode_record(awkward_record(type)), kGoldenJournal[t])
        << journal_record_type_name(type);
    // Lines already on disk decode and re-encode to the same bytes.
    EXPECT_EQ(encode_record(decode_record(kGoldenJournal[t])),
              kGoldenJournal[t])
        << journal_record_type_name(type);
  }
}

void expect_same_spec(const JobSpec& a, const JobSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.w0, b.w0);
  EXPECT_EQ(a.t_end, b.t_end);
  EXPECT_EQ(a.eps, b.eps);
  EXPECT_EQ(a.eta, b.eta);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.boards, b.boards);
  EXPECT_EQ(a.boards_min, b.boards_min);
  EXPECT_EQ(a.boards_max, b.boards_max);
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.deadline_rounds, b.deadline_rounds);
  EXPECT_EQ(a.chaos_fail_quanta, b.chaos_fail_quanta);
}

TEST(ServeCodec, ManifestSpecRoundTripsThroughJournalAndWire) {
  const Manifest m = parse_manifest(R"({
    "schema": "grape6-serve-manifest-v1",
    "jobs": [{"name": "odd \"one\"", "model": "king", "n": 96,
              "w0": 0.30000000000000004, "t_end": 0.0625,
              "eps": 0.33333333333333331, "eta": 0.01, "seed": 4000000000,
              "boards": 2, "boards_min": 1, "boards_max": 4,
              "priority": "interactive", "deadline_rounds": 30,
              "chaos_fail_quanta": 2}]
  })");
  ASSERT_EQ(m.jobs.size(), 1u);
  const JobSpec& spec = m.jobs[0];
  EXPECT_EQ(spec.w0, 0.1 + 0.2);
  EXPECT_EQ(spec.eps, 1.0 / 3.0);

  std::ostringstream os;
  encode_job_spec(os, spec);

  // Journal: the spec inside a `submitted` record, all 14 keys required.
  JournalRecord rec;
  rec.seq = 2;
  rec.type = JournalRecordType::kSubmitted;
  rec.job = 1;
  rec.spec = spec;
  const std::string line = encode_record(rec);
  EXPECT_NE(line.find(os.str()), std::string::npos);
  expect_same_spec(decode_record(line).spec, spec);

  // Wire: the spec of a submit request, read the way WireServer reads it.
  const JsonValue v = JsonValue::parse(os.str());
  expect_same_spec(
      decode_job_spec(obs::JsonReader(v, "spec", wire::throw_wire_error),
                      {"name"}),
      spec);
}

/// Every member of `older` is in `newer` with an equal value; returns the
/// keys only `newer` has.
std::set<std::string> added_keys(const JsonValue& older,
                                 const JsonValue& newer) {
  std::set<std::string> added;
  for (const auto& [key, value] : newer.members()) added.insert(key);
  for (const auto& [key, value] : older.members()) {
    const JsonValue* now = newer.find(key);
    EXPECT_NE(now, nullptr) << "lost key '" << key << "'";
    if (now == nullptr) continue;
    added.erase(key);
    EXPECT_EQ(now->type(), value.type()) << key;
    if (value.is_number()) EXPECT_EQ(now->as_number(), value.as_number()) << key;
    if (value.is_string()) EXPECT_EQ(now->as_string(), value.as_string()) << key;
  }
  return added;
}

TEST(ServeCodec, JobReportKeepsTheWireKeysAndAddsSnapshotAndEq10) {
  JobReport rep;
  rep.id = 7;
  rep.name = awkward_spec().name;
  rep.priority = Priority::kInteractive;
  rep.state = JobState::kRunning;
  rep.message = "tab\there";
  rep.n = 96;
  rep.boards = 2;
  rep.boards_now = 3;
  rep.resizes = 1;
  rep.t_end = 0.0625;
  rep.t_reached = 0.1 + 0.2;
  rep.steps = 12345;
  rep.blocksteps = 67;
  rep.quanta = 3;
  rep.preemptions = 4;
  rep.revocations = 1;
  rep.requeues = 1;
  rep.failures = 2;
  rep.wait_s = 0.001;
  rep.run_s = 1.0 / 7.0;
  rep.grape_virtual_s = 2.5e-5;
  rep.e0 = -0.25000000000000017;
  rep.e_final = -0.2500000000000018;
  rep.eq10.host_s = 0.125;
  rep.eq10.grape_s = 0.1 + 0.2;
  rep.eq10.total_s = 0.5;
  rep.eq10.steps = 12345;
  rep.eq10.blocksteps = 67;

  // The wire `report` object before the encoders were shared.
  const JsonValue older = JsonValue::parse(
      R"golden({"id":7,"name":"we\"ird\\name\n\t","priority":"interactive","state":"running","reject_reason":"none","message":"tab\there","n":96,"boards":2,"boards_now":3,"resizes":1,"t_end":0.0625,"t_reached":0.30000000000000004,"steps":12345,"blocksteps":67,"quanta":3,"preemptions":4,"revocations":1,"requeues":1,"failures":2,"wait_s":0.001,"run_s":0.14285714285714285,"grape_virtual_s":2.5000000000000001e-05,"e0":-0.25000000000000017,"e_final":-0.25000000000000178,"energy_error":0})golden");
  std::ostringstream os;
  write_job_report(os, rep, "out_job.snap");
  const JsonValue newer = JsonValue::parse(os.str());
  EXPECT_EQ(added_keys(older, newer),
            (std::set<std::string>{"snapshot", "eq10"}));
  EXPECT_EQ(newer.at("snapshot").as_string(), "out_job.snap");
  EXPECT_EQ(newer.at("eq10").at("grape_s").as_number(), 0.1 + 0.2);
  EXPECT_EQ(newer.at("eq10").at("steps").as_number(), 12345.0);
}

TEST(ServeCodec, ServiceStatsKeepTheWireKeysAndAddMakespanAndEq10) {
  const GrapeService service;
  // The wire `stats` object of an idle default service before the
  // encoders were shared.
  const JsonValue older = JsonValue::parse(
      R"golden({"boards":16,"healthy_boards":16,"rounds":0,"submitted":0,"rejected":0,"completed":0,"failed":0,"quarantined":0,"preemptions":0,"revocations":0,"requeues":0,"resizes":0,"boards_dead":0})golden");
  std::ostringstream os;
  write_service_stats(os, service);
  const JsonValue newer = JsonValue::parse(os.str());
  EXPECT_EQ(added_keys(older, newer),
            (std::set<std::string>{"makespan_s", "eq10"}));
}

}  // namespace
}  // namespace g6::serve
