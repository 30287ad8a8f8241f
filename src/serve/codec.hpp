#pragma once
// The serving layer's JSON record codecs — one owner per record shape.
//
//   JobSpec     the job object of a manifest entry, a journal `submitted`
//               record and a wire `submit` request (same 14 keys, same
//               bytes); decoded through one strict reader whose required
//               keys the caller names: {"name"} for manifests and the wire,
//               all of kJobSpecKeys for the journal.
//   ServiceConfig  the `service` section of a manifest and the journal's
//               `open` record.
//   JobReport   the per-job object of the report file
//               (grape6-serve-report-v1), the wire `report` response and
//               the `terminal` event.
//   stats       the `service` block of the report file and the wire
//               `stats` response.
//
// Doubles are written with obs::json_number (17 significant digits), so
// every value reads back as the identical binary64.

#include <iosfwd>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "serve/types.hpp"

namespace g6::serve {

class GrapeService;

/// Every JobSpec key, in encoding order.
extern const std::vector<std::string_view> kJobSpecKeys;

/// Write `spec` as a JSON object with all of kJobSpecKeys.
void encode_job_spec(std::ostream& os, const JobSpec& spec);

/// Read a JobSpec object: keys outside kJobSpecKeys, keys missing from
/// `required`, wrong types and out-of-range integers fail through `j`;
/// absent optional keys keep the JobSpec defaults. Value-level checks
/// (n >= 2, known model, ...) are admission's job.
JobSpec decode_job_spec(const obs::JsonReader& j,
                        const std::vector<std::string_view>& required);

/// Every ServiceConfig key, in encoding order.
extern const std::vector<std::string_view> kServiceConfigKeys;

/// Write the service shape with all of kServiceConfigKeys (the journal's
/// `open` record). The journal path and stop flag are process state and
/// are never written.
void encode_service_config(std::ostream& os, const ServiceConfig& c);

/// Read a service-shape object: keys outside `allowed` or missing from
/// `required` fail through `j`; absent keys keep the defaults. Value
/// checks (quantum >= 1, deaths on real boards, ...) are the caller's.
ServiceConfig decode_service_config(
    const obs::JsonReader& j, const std::vector<std::string_view>& allowed,
    const std::vector<std::string_view>& required);

/// Write one job's report object. `snapshot` names the job's final
/// snapshot file ("" when none was written).
void write_job_report(std::ostream& os, const JobReport& r,
                      std::string_view snapshot = "");

/// Write the service-wide counters object (machine size, job tallies,
/// makespan and the merged Eq 10 split).
void write_service_stats(std::ostream& os, const GrapeService& service);

}  // namespace g6::serve
