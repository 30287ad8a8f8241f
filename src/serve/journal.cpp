#include "serve/journal.hpp"

#include <fstream>
#include <iterator>
#include <sstream>

#include "obs/json.hpp"
#include "serve/codec.hpp"
#include "util/check.hpp"

namespace g6::serve {

namespace {

using obs::JsonReader;
using obs::JsonValue;
using obs::json_escape;
using obs::json_number;

[[noreturn]] void fail(const std::string& what) {
  throw JournalError("journal: " + what);
}

// ---- encoding -----------------------------------------------------------

std::string quote(const std::string& s) { return '"' + json_escape(s) + '"'; }

// ---- decoding -----------------------------------------------------------

JournalRecordType type_from_name(const std::string& name,
                                 const std::string& where) {
  for (int t = 0; t <= static_cast<int>(JournalRecordType::kLeaseResized);
       ++t) {
    const auto rt = static_cast<JournalRecordType>(t);
    if (name == journal_record_type_name(rt)) return rt;
  }
  fail(where + ": unknown record type '" + name + "'");
}

/// The keys each record type carries after seq/type/round, in encoding
/// order — the one table both encode_record and decode_record follow.
const std::vector<std::string_view>& record_keys(JournalRecordType t) {
  static const std::vector<std::string_view> kKeys[] = {
      {"schema", "config"},                                     // open
      {"records"},                                              // recovered
      {"job", "spec"},                                          // submitted
      {"job"},                                                  // admitted
      {"job", "reason", "message"},                             // rejected
      {"job", "boards"},                                        // started
      {"job", "quanta", "t", "steps", "blocksteps"},            // quantum
      {"job", "quanta", "file", "tag"},                         // checkpointed
      {"job", "reason", "requeues", "failures", "hold_until"},  // requeued
      {"board"},                                                // board-death
      {"job", "quanta", "t", "e0", "e_final", "steps", "blocksteps"},  // finished
      {"job", "reason", "message"},                             // failed
      {"job", "failures", "file"},                              // quarantined
      {"reason"},                                               // drained
      {"job", "boards", "reason"},                              // lease-resized
  };
  static_assert(std::size(kKeys) ==
                static_cast<std::size_t>(JournalRecordType::kLeaseResized) + 1);
  return kKeys[static_cast<int>(t)];
}

}  // namespace

const char* journal_record_type_name(JournalRecordType t) {
  switch (t) {
    case JournalRecordType::kOpen:
      return "open";
    case JournalRecordType::kRecovered:
      return "recovered";
    case JournalRecordType::kSubmitted:
      return "submitted";
    case JournalRecordType::kAdmitted:
      return "admitted";
    case JournalRecordType::kRejected:
      return "rejected";
    case JournalRecordType::kStarted:
      return "started";
    case JournalRecordType::kQuantum:
      return "quantum";
    case JournalRecordType::kCheckpointed:
      return "checkpointed";
    case JournalRecordType::kRequeued:
      return "requeued";
    case JournalRecordType::kBoardDeath:
      return "board-death";
    case JournalRecordType::kFinished:
      return "finished";
    case JournalRecordType::kFailed:
      return "failed";
    case JournalRecordType::kQuarantined:
      return "quarantined";
    case JournalRecordType::kDrained:
      return "drained";
    case JournalRecordType::kLeaseResized:
      return "lease-resized";
  }
  return "?";
}

std::string encode_record(const JournalRecord& rec) {
  std::ostringstream os;
  os << "{\"seq\":" << rec.seq
     << ",\"type\":" << quote(journal_record_type_name(rec.type))
     << ",\"round\":" << rec.round;
  for (const std::string_view key : record_keys(rec.type)) {
    os << ",\"" << key << "\":";
    if (key == "schema") {
      os << quote(kJournalSchema);
    } else if (key == "config") {
      encode_service_config(os, rec.config);
    } else if (key == "spec") {
      encode_job_spec(os, rec.spec);
    } else if (key == "records") {
      os << rec.records;
    } else if (key == "job") {
      os << rec.job;
    } else if (key == "reason") {
      os << quote(rec.reason);
    } else if (key == "message") {
      os << quote(rec.message);
    } else if (key == "file") {
      os << quote(rec.file);
    } else if (key == "tag") {
      os << quote(rec.tag);
    } else if (key == "quanta") {
      os << rec.quanta;
    } else if (key == "t") {
      os << json_number(rec.t);
    } else if (key == "e0") {
      os << json_number(rec.e0);
    } else if (key == "e_final") {
      os << json_number(rec.e_final);
    } else if (key == "steps") {
      os << rec.steps;
    } else if (key == "blocksteps") {
      os << rec.blocksteps;
    } else if (key == "requeues") {
      os << rec.requeues;
    } else if (key == "failures") {
      os << rec.failures;
    } else if (key == "hold_until") {
      os << rec.hold_until;
    } else if (key == "board") {
      os << rec.board;
    } else {
      G6_ASSERT(key == "boards");
      os << rec.boards;
    }
  }
  os << "}";
  return os.str();
}

JournalRecord decode_record(std::string_view line) {
  JsonValue root;
  try {
    root = JsonValue::parse(line);
  } catch (const std::exception& e) {
    fail(std::string("record is not valid JSON: ") + e.what());
  }
  JournalRecord rec;
  rec.type = type_from_name(
      JsonReader(root, "record", fail).get<std::string>("type"), "record");
  const JsonReader r(root,
                     std::string("record '") +
                         journal_record_type_name(rec.type) + "'",
                     fail);

  // Strict both ways: each record type has exactly these keys.
  std::vector<std::string_view> keys = {"seq", "type", "round"};
  const std::vector<std::string_view>& more = record_keys(rec.type);
  keys.insert(keys.end(), more.begin(), more.end());
  r.strict_keys(keys, keys);

  // Every key below is either required for this type or absent.
  r.read("seq", &rec.seq);
  r.read("round", &rec.round);
  r.read("job", &rec.job);
  if (r.has("schema") && r.get<std::string>("schema") != kJournalSchema) {
    r.fail("schema '" + r.get<std::string>("schema") + "' (expected " +
           kJournalSchema + ")");
  }
  if (r.has("config")) {
    rec.config = decode_service_config(r.child(r.at("config"), ".config"),
                                       kServiceConfigKeys, kServiceConfigKeys);
  }
  if (r.has("spec")) {
    rec.spec = decode_job_spec(r.child(r.at("spec"), ".spec"), kJobSpecKeys);
  }
  r.read("records", &rec.records);
  r.read("reason", &rec.reason);
  r.read("message", &rec.message);
  r.read("file", &rec.file);
  r.read("tag", &rec.tag);
  r.read("quanta", &rec.quanta);
  r.read("t", &rec.t);
  r.read("e0", &rec.e0);
  r.read("e_final", &rec.e_final);
  r.read("steps", &rec.steps);
  r.read("blocksteps", &rec.blocksteps);
  r.read("requeues", &rec.requeues);
  r.read("failures", &rec.failures);
  r.read("hold_until", &rec.hold_until);
  r.read("board", &rec.board);
  r.read("boards", &rec.boards);
  return rec;
}

JournalReplay replay_journal(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string content = buf.str();
  if (content.empty()) fail(path + " is empty");

  JournalReplay replay;
  std::size_t pos = 0;
  std::uint64_t line_no = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) {
      // Unterminated final line: the one torn write the append protocol
      // permits. Drop it — the transition it described never took effect.
      replay.torn_tail = true;
      break;
    }
    ++line_no;
    const std::string_view line(content.data() + pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) fail(path + ": empty line " + std::to_string(line_no));
    JournalRecord rec;
    try {
      rec = decode_record(line);
    } catch (const JournalError& e) {
      fail(path + " line " + std::to_string(line_no) + ": " + e.what());
    }
    if (rec.seq != line_no) {
      fail(path + " line " + std::to_string(line_no) + ": sequence number " +
           std::to_string(rec.seq) + " (expected " + std::to_string(line_no) +
           ")");
    }
    if (line_no == 1 && rec.type != JournalRecordType::kOpen) {
      fail(path + ": first record must be 'open'");
    }
    if (line_no > 1 && rec.type == JournalRecordType::kOpen) {
      fail(path + " line " + std::to_string(line_no) +
           ": duplicate 'open' record");
    }
    replay.records.push_back(std::move(rec));
  }
  if (replay.records.empty()) {
    fail(path + ": no complete records (torn 'open' line?)");
  }
  return replay;
}

std::string job_run_tag(const JobSpec& spec) {
  std::ostringstream os;
  os << "serve job=" << spec.name << " model=" << spec.model
     << " n=" << spec.n << " w0=" << json_number(spec.w0)
     << " t_end=" << json_number(spec.t_end) << " eps=" << json_number(spec.eps)
     << " eta=" << json_number(spec.eta) << " seed=" << spec.seed
     << " boards=" << spec.boards;
  return os.str();
}

Journal::Journal(const std::string& path, bool truncate,
                 std::uint64_t start_seq)
    : log_(path, truncate), next_seq_(start_seq) {
  G6_REQUIRE_MSG(start_seq >= 1, "journal sequence numbers are 1-based");
}

void Journal::append(JournalRecord rec) {
  rec.seq = next_seq_++;
  log_.append(encode_record(rec));
}

}  // namespace g6::serve
