#include "wire/client.hpp"

#include <sstream>

#include "serve/codec.hpp"
#include "util/check.hpp"
#include "wire/envelope.hpp"

namespace g6::wire {

namespace {

/// Strict view of a server envelope: a missing or mistyped key is a
/// WireError naming it.
obs::JsonReader server_doc(const obs::JsonValue& doc) {
  return obs::JsonReader(doc, "response", throw_wire_error);
}

}  // namespace

RemoteClient::RemoteClient(const std::string& endpoint)
    : sock_(connect_to(parse_endpoint(endpoint))) {
  G6_REQUIRE(sock_.valid());
}

std::optional<obs::JsonValue> RemoteClient::read_envelope() {
  std::string payload;
  while (true) {
    const FrameDecoder::Status st = decoder_.next(&payload);
    if (st == FrameDecoder::Status::kFrame) {
      return parse_envelope(payload).root;  // WireError if off-schema
    }
    if (st == FrameDecoder::Status::kError) {
      throw WireError("server sent a bad frame: " + decoder_.error());
    }
    std::string chunk;
    const long n = sock_.recv_some(&chunk);
    if (n == 0) {
      if (decoder_.buffered() != 0) {
        throw WireError("server closed mid-frame (torn frame)");
      }
      return std::nullopt;  // orderly EOF between frames
    }
    if (n > 0) decoder_.feed(chunk);
    // n < 0 cannot happen on a blocking socket; recv_some loops for us.
  }
}

obs::JsonValue RemoteClient::request(const std::string& method,
                                     const std::string& extra_json) {
  const std::uint64_t id = next_id_++;
  sock_.send_all(encode_frame(encode_request(id, method, extra_json)));
  while (true) {
    std::optional<obs::JsonValue> doc = read_envelope();
    if (!doc) {
      throw WireError("server closed before responding to '" + method + "'");
    }
    const obs::JsonReader r = server_doc(*doc);
    const auto kind = r.get<std::string>("kind");
    if (kind == "event") {
      // Unsolicited push racing our response: keep it for next_event().
      inbox_.push_back({r.get<std::string>("event"), std::move(*doc)});
      continue;
    }
    if (kind != "response") {
      throw WireError("unexpected '" + kind + "' envelope from server");
    }
    if (r.get<std::uint64_t>("id") != id) {
      throw WireError("response id mismatch (single in-flight request "
                      "protocol violated)");
    }
    if (!r.get<bool>("ok")) {
      throw WireError("server rejected '" + method +
                      "': " + r.get<std::string>("error"));
    }
    return std::move(*doc);
  }
}

void RemoteClient::ping() { request("ping", ""); }

serve::SubmitResult RemoteClient::submit(const serve::JobSpec& spec) {
  std::ostringstream os;
  os << ",\"spec\":";
  serve::encode_job_spec(os, spec);
  const obs::JsonValue doc = request("submit", os.str());
  const obs::JsonReader fields = server_doc(doc);
  serve::SubmitResult r;
  r.id = fields.get<serve::JobId>("job");
  r.accepted = fields.get<bool>("accepted");
  last_reason_ = fields.get<std::string>("reason");
  r.message = fields.get<std::string>("message");
  // The enum name survives the wire as text; keep the enum itself
  // coarse (accepted vs not) and let callers read last_reject_reason()
  // for the precise cause.
  r.reason = r.accepted ? serve::RejectReason::kNone
                        : serve::RejectReason::kQueueFull;
  for (int i = 0; i <= static_cast<int>(serve::RejectReason::kQuarantined);
       ++i) {
    const auto reason = static_cast<serve::RejectReason>(i);
    if (last_reason_ == serve::reject_reason_name(reason)) {
      r.reason = reason;
      break;
    }
  }
  return r;
}

void RemoteClient::subscribe(bool snapshots, bool all_jobs) {
  std::ostringstream os;
  os << ",\"snapshots\":" << (snapshots ? "true" : "false")
     << ",\"all\":" << (all_jobs ? "true" : "false");
  request("subscribe", os.str());
}

std::optional<WireEvent> RemoteClient::next_event(bool wait) {
  while (inbox_pos_ >= inbox_.size()) {
    inbox_.clear();
    inbox_pos_ = 0;
    if (!wait) return std::nullopt;
    std::optional<obs::JsonValue> doc = read_envelope();
    if (!doc) return std::nullopt;  // server is done streaming
    const obs::JsonReader r = server_doc(*doc);
    const auto kind = r.get<std::string>("kind");
    if (kind != "event") {
      throw WireError("unsolicited '" + kind + "' envelope while waiting "
                      "for events");
    }
    inbox_.push_back({r.get<std::string>("event"), std::move(*doc)});
  }
  WireEvent ev = std::move(inbox_[inbox_pos_]);
  ++inbox_pos_;
  if (inbox_pos_ >= inbox_.size()) {
    inbox_.clear();
    inbox_pos_ = 0;
  }
  return ev;
}

obs::JsonValue RemoteClient::report_json(serve::JobId id) {
  return server_doc(request("report", ",\"job\":" + std::to_string(id)))
      .at("report");
}

std::string RemoteClient::state_name(serve::JobId id) {
  return server_doc(request("state", ",\"job\":" + std::to_string(id)))
      .get<std::string>("state");
}

ParticleSet RemoteClient::final_state(serve::JobId id, double* t) {
  const obs::JsonValue doc =
      request("final", ",\"job\":" + std::to_string(id));
  return decode_snapshot(server_doc(doc).at("snapshot"), t);
}

obs::JsonValue RemoteClient::stats_json() {
  return server_doc(request("stats", "")).at("stats");
}

void RemoteClient::drain() { request("drain", ""); }

}  // namespace g6::wire
