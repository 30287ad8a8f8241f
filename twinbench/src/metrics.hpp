#pragma once
// The metric names and units twinbench prints. BENCHMARK.json declares
// the same sets; test_twinbench.py holds the two in step.

namespace twinbench {

struct MetricDecl {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0), on every workload.
inline constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"jobs_per_hour", "1/h"},
    {"turnaround_p50_s", "s"},
    {"turnaround_p95_s", "s"},
    {"recover_s", "s"},
    {"speed_mflops", "Mflops"},
    {"peak_rss_mb", "MB"},
};

/// Printed by every traced run (--trace 1), on every workload; a layer
/// that does no work on a workload reports 0.
inline constexpr MetricDecl kPerLayer[] = {
    // grape (+hw): the emulated machine
    {"grape.pipeline_s", "s"},
    {"grape.reduce_s", "s"},
    {"grape.jsend_s", "s"},
    {"grape.submit_s", "s"},
    {"grape.interactions", "count"},
    {"grape.passes", "count"},
    {"grape.retries", "count"},
    {"grape.ns_per_interaction", "ns"},
    {"grape.lane_fill", "ratio"},
    {"grape.retry_frac", "ratio"},
    // the simulated machine: exact, schedule-independent counts
    {"sim.grape_s", "s"},
    {"sim.dma_s", "s"},
    {"sim.steps", "count"},
    {"sim.blocksteps", "count"},
    {"sim.state_hash", "hash"},
    // hermite: host-side integrator work
    {"hermite.predict_s", "s"},
    {"hermite.correct_s", "s"},
    {"hermite.jsend_s", "s"},
    {"hermite.step_p50_s", "s"},
    {"hermite.block_size_mean", "count"},
    // exec: the shared pool
    {"exec.tasks", "count"},
    {"exec.steals", "count"},
    {"exec.inline_tasks", "count"},
    {"exec.task_s", "s"},
    {"exec.cpu_util", "ratio"},
    {"exec.speedup_1t", "ratio"},
    // serve: admission, scheduling, leases
    {"serve.round_s", "s"},
    {"serve.job_s", "s"},
    {"serve.rounds", "count"},
    {"serve.quanta", "count"},
    {"serve.preemptions", "count"},
    {"serve.resizes", "count"},
    {"serve.wait_p50_s", "s"},
    {"serve.wait_p95_s", "s"},
    {"serve.board_busy_frac", "ratio"},
    {"serve.preempt_frac", "ratio"},
    // durability: serve journal + fault checkpoints
    {"serve.journal.records", "count"},
    {"serve.checkpoint.writes", "count"},
    {"durable.journal_bytes", "B"},
    {"durable.checkpoint_bytes", "B"},
    {"durable.bookkeeping_s", "s"},
    {"recovery.records", "count"},
    {"recovery.jobs_restored", "count"},
    // wire: framing, envelopes, the poll loop
    {"wire.submit_rtt_p50_s", "s"},
    {"wire.submit_rtt_p99_s", "s"},
    {"wire.requests", "count"},
    {"wire.events", "count"},
    {"wire.frames_out", "count"},
    {"wire.bytes_out", "B"},
    {"wire.rpc_p50_s", "s"},
    // nbody: initial conditions
    {"nbody.ic_s", "s"},
    // load generator / trace validity
    {"loadgen.late_p99_s", "s"},
    {"loadgen.failed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
};

}  // namespace twinbench
