#pragma once
// The two workloads. Each runs its plan, checks the outputs into the
// report, and sets the end-to-end metrics (untraced) or the per-layer
// metrics (traced: one untraced pass for the overhead baseline, then one
// traced pass whose spans and counters are rolled up).

#include "common.hpp"
#include "gen.hpp"

namespace twinbench {

void run_served(const Options& opt, const MixedPlan& plan, Report& report);
void run_integrate(const Options& opt, const IntegratePlan& plan,
                   Report& report);

}  // namespace twinbench
