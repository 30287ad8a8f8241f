#!/usr/bin/env python3
"""Crash-recovery checks for the durable serving layer (docs/RELIABILITY.md,
"Serving durability").

Three modes, each an end-to-end exercise of tools/grape6_served's
write-ahead journal, quantum checkpoints and --recover replay:

identity   Run a mixed manifest (including a scheduled board death) to
           completion once for reference, then run it again durably and
           kill -9 the process mid-flight; --recover must finish the run
           with every final snapshot BYTE-IDENTICAL to the uninterrupted
           reference. This is the serving layer's durability contract:
           a crash is invisible to the physics.

chaos      A 12-job manifest — poison job, deadline-doomed job, board
           deaths from a fault plan — killed at seeded-random journal
           lengths, recovered, killed again (up to --kills times), then
           recovered to completion. Asserts exactly-once terminal
           states (every job exactly one terminal state, service
           counters consistent, no double-counting across recoveries)
           and byte-identical snapshots for the jobs that completed.

sigterm    SIGTERM mid-flight: the service must drain gracefully (clean
           exit, `drained` journal record, checkpoints on disk), and
           --recover must then finish bit-identically.

Exits non-zero with a diagnostic on any violation.
"""

import argparse
import filecmp
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

MACHINE = {
    "boards_per_host": 4,
    "hosts_per_cluster": 1,
    "clusters": 1,
    "quantum_blocksteps": 2,
    "max_queue_depth": 16,
}

# Mixed manifest for identity/sigterm: several models, one 2-board job,
# enough rounds that a mid-flight kill always lands before completion.
IDENTITY_JOBS = [
    {"name": "i-a", "model": "plummer", "n": 48, "t_end": 0.0625,
     "seed": 31, "boards": 1, "priority": "interactive"},
    {"name": "i-b", "model": "uniform", "n": 32, "t_end": 0.0625,
     "seed": 32, "boards": 1, "priority": "batch"},
    {"name": "i-c", "model": "king", "w0": 5.0, "n": 48, "t_end": 0.0625,
     "seed": 33, "boards": 2, "priority": "batch"},
    {"name": "i-d", "model": "hernquist", "n": 48, "t_end": 0.0625,
     "seed": 34, "boards": 1, "priority": "batch"},
    {"name": "i-e", "model": "plummer", "n": 64, "t_end": 0.0625,
     "seed": 35, "boards": 1, "priority": "batch"},
    {"name": "i-f", "model": "disk", "n": 48, "t_end": 0.0625,
     "seed": 36, "boards": 1, "priority": "batch"},
]

# Board 1 dies at round 1, while the round-0 dispatch still leases it, so
# recovery must also replay a revocation/re-queue without re-firing the
# death (the journal's board-death record marks it fired).
IDENTITY_DEATHS = [{"round": 1, "board": 1}]

# Chaos manifest: 12 jobs. "poison" faults every quantum until it is
# quarantined; "doomed" carries an impossible deadline; the rest must
# complete despite kills and the fault plan's two board deaths.
CHAOS_JOBS = (
    [{"name": f"c-{i:02d}", "model": ["plummer", "uniform", "hernquist"][i % 3],
      "n": 32 + 16 * (i % 3), "t_end": 0.0625, "seed": 100 + i,
      "boards": 2 if i == 4 else 1, "priority": "batch"}
     for i in range(10)]
    + [{"name": "poison", "model": "plummer", "n": 32, "t_end": 0.0625,
        "seed": 666, "boards": 1, "chaos_fail_quanta": 100},
       {"name": "doomed", "model": "plummer", "n": 48, "t_end": 0.0625,
        "seed": 667, "boards": 1, "deadline_rounds": 2}]
)

# Board-level hard failures only; entry times are scheduler rounds.
CHAOS_FAULT_PLAN = {
    "seed": 7,
    "hard_failures": [
        {"time": 2.0, "board": 1},
        {"time": 5.0, "board": 3},
    ],
}

TERMINAL = {"completed", "failed", "rejected", "quarantined"}


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)


def write_manifest(path, jobs, deaths=None):
    service = dict(MACHINE)
    if deaths:
        service["board_deaths"] = deaths
    write_json(path, {"schema": "grape6-serve-manifest-v1",
                      "service": service, "jobs": jobs})


def run(cmd, ok=(0,)):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in ok:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def journal_lines(path):
    try:
        with open(path, "rb") as f:
            return f.read().count(b"\n")
    except FileNotFoundError:
        return 0


def run_until_lines_then_kill(cmd, journal, target_lines, sig,
                              timeout_s=180.0):
    """Start cmd; once the journal holds >= target_lines complete records,
    send `sig`. Returns (signalled, returncode). If the process finishes
    before the journal gets there, no signal is sent."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + timeout_s
    signalled = False
    while proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise SystemExit(f"FAIL: {' '.join(cmd)} hung past {timeout_s}s")
        if journal_lines(journal) >= target_lines:
            proc.send_signal(sig)
            signalled = True
            break
        time.sleep(0.02)
    rc = proc.wait()
    proc.stdout.read()
    return signalled, rc


def compare_snapshots(names, got_prefix, ref_prefix):
    mismatches = []
    for name in names:
        got = f"{got_prefix}_{name}.snap"
        ref = f"{ref_prefix}_{name}.snap"
        for p in (got, ref):
            if not os.path.exists(p):
                raise SystemExit(f"FAIL: missing snapshot {p}")
        if not filecmp.cmp(got, ref, shallow=False):
            mismatches.append(name)
    if mismatches:
        raise SystemExit("FAIL: snapshots differ after recovery for: "
                         + ", ".join(mismatches))


def load_report(path):
    with open(path) as f:
        return json.load(f)


def check_exactly_once(report, jobs):
    """Every submitted job has exactly one terminal state, and the
    service counters agree with the per-job tally — the journal replay
    must not double-count work finished before a crash."""
    states = {}
    for j in report["jobs"]:
        if j["name"] in states:
            raise SystemExit(f"FAIL: job '{j['name']}' reported twice")
        states[j["name"]] = j["state"]
    expected = {j["name"] for j in jobs}
    if set(states) != expected:
        raise SystemExit(f"FAIL: job set mismatch: {sorted(states)} != "
                         f"{sorted(expected)}")
    non_terminal = {n: s for n, s in states.items() if s not in TERMINAL}
    if non_terminal:
        raise SystemExit(f"FAIL: non-terminal states after recovery: "
                         f"{non_terminal}")
    svc = report["service"]
    for state, counter in (("completed", "completed"), ("failed", "failed"),
                           ("quarantined", "quarantined"),
                           ("rejected", "rejected")):
        tally = sum(1 for s in states.values() if s == state)
        if svc[counter] != tally:
            raise SystemExit(
                f"FAIL: service.{counter}={svc[counter]} but {tally} "
                f"job(s) are {state} — terminal states not exactly-once")
    return states


def mode_identity(serve):
    write_manifest("identity.json", IDENTITY_JOBS, IDENTITY_DEATHS)

    # Uninterrupted reference (durable too: same code path, no kill).
    run([serve, "--manifest=identity.json", "--out=ref",
         "--journal=ref.wal", "--checkpoint-every=1",
         "--report-out=ref_report.json"])
    ref = load_report("ref_report.json")
    if ref["service"]["completed"] != len(IDENTITY_JOBS):
        raise SystemExit("FAIL: reference run did not complete all jobs")
    if ref["service"]["boards_dead"] != 1 or ref["service"]["revocations"] < 1:
        raise SystemExit("FAIL: scheduled board death did not revoke a "
                         "lease in the reference run")

    # Durable run, kill -9 once some quanta are journaled (open + 6
    # submitted + 6 admitted = 13 records; 24 means real mid-flight work,
    # well before these jobs can drain).
    killed, rc = run_until_lines_then_kill(
        [serve, "--manifest=identity.json", "--out=crash",
         "--journal=crash.wal", "--checkpoint-every=1"],
        "crash.wal", target_lines=24, sig=signal.SIGKILL)
    if not killed:
        raise SystemExit("FAIL: run finished before the kill landed — "
                         "enlarge the manifest")
    if rc != -signal.SIGKILL:
        raise SystemExit(f"FAIL: expected SIGKILL death, got rc={rc}")

    run([serve, "--recover=crash.wal", "--out=crash",
         "--report-out=crash_report.json"])
    report = load_report("crash_report.json")
    check_exactly_once(report, IDENTITY_JOBS)
    if report["service"]["completed"] != len(IDENTITY_JOBS):
        raise SystemExit("FAIL: recovery did not complete all jobs")
    if report["service"]["boards_dead"] != 1:
        raise SystemExit("FAIL: fired board death lost across recovery")
    compare_snapshots([j["name"] for j in IDENTITY_JOBS], "crash", "ref")
    print(f"OK identity: kill -9 at >=24 journal records, recovery "
          f"bit-identical for {len(IDENTITY_JOBS)} jobs "
          f"(board death survived replay)")


def mode_chaos(serve, seed, kills):
    write_manifest("chaos.json", CHAOS_JOBS)
    write_json("chaos_plan.json", CHAOS_FAULT_PLAN)

    # Reference: uninterrupted run of the same chaos (exit 3: the poison
    # and deadline jobs are SUPPOSED to end badly).
    run([serve, "--manifest=chaos.json", "--fault-plan=chaos_plan.json",
         "--out=ref", "--journal=ref.wal", "--checkpoint-every=1",
         "--report-out=ref_report.json"], ok=(3,))
    ref_states = check_exactly_once(load_report("ref_report.json"),
                                    CHAOS_JOBS)
    if ref_states["poison"] != "quarantined":
        raise SystemExit("FAIL: poison job not quarantined in reference")
    if ref_states["doomed"] != "failed":
        raise SystemExit("FAIL: deadline job did not fail in reference")

    rng = random.Random(seed)
    cmd = [serve, "--manifest=chaos.json", "--fault-plan=chaos_plan.json",
           "--out=got", "--journal=got.wal", "--checkpoint-every=1"]
    landed = 0
    for _ in range(kills):
        # 27 records = open + 12 submitted + (up to) 12 admitted + slack:
        # always kill after real scheduling work has been journaled.
        target = journal_lines("got.wal") + rng.randrange(5, 40) + (
            27 if landed == 0 else 0)
        killed, rc = run_until_lines_then_kill(
            cmd, "got.wal", target_lines=target, sig=signal.SIGKILL)
        if not killed:
            break  # ran to completion before the kill; recovery below is a no-op replay
        landed += 1
        cmd = [serve, "--recover=got.wal", "--out=got"]
    run(cmd + ["--report-out=got_report.json"], ok=(0, 3))

    report = load_report("got_report.json")
    states = check_exactly_once(report, CHAOS_JOBS)
    if states != ref_states:
        diff = {n: (ref_states[n], states[n]) for n in states
                if states[n] != ref_states[n]}
        raise SystemExit(f"FAIL: terminal states diverge from the "
                         f"uninterrupted reference: {diff}")
    completed = [n for n, s in states.items() if s == "completed"]
    compare_snapshots(completed, "got", "ref")
    for j in report["jobs"]:
        if j["name"] == "poison" and j["reject_reason"] != "quarantined":
            raise SystemExit("FAIL: poison job lost its quarantine reason")
        if j["name"] == "doomed" and j["reject_reason"] != "deadline-exceeded":
            raise SystemExit("FAIL: deadline job lost its failure reason")
    print(f"OK chaos: {landed} kill(s) (seed {seed}), exactly-once "
          f"terminal states for {len(CHAOS_JOBS)} jobs, {len(completed)} "
          f"snapshots bit-identical, poison quarantined, deadline enforced")


def mode_sigterm(serve):
    write_manifest("identity.json", IDENTITY_JOBS, IDENTITY_DEATHS)
    run([serve, "--manifest=identity.json", "--out=ref",
         "--journal=ref.wal", "--checkpoint-every=1",
         "--report-out=ref_report.json"])

    _, rc = run_until_lines_then_kill(
        [serve, "--manifest=identity.json", "--out=got",
         "--journal=got.wal", "--checkpoint-every=1"],
        "got.wal", target_lines=24, sig=signal.SIGTERM)
    if rc != 0:
        raise SystemExit(f"FAIL: SIGTERM drain exited {rc}, wanted 0")
    with open("got.wal") as f:
        last = json.loads(f.readlines()[-1])
    if last["type"] != "drained":
        raise SystemExit(f"FAIL: journal does not end in a drained record "
                         f"(got '{last['type']}')")

    run([serve, "--recover=got.wal", "--out=got",
         "--report-out=got_report.json"])
    report = load_report("got_report.json")
    check_exactly_once(report, IDENTITY_JOBS)
    if report["service"]["completed"] != len(IDENTITY_JOBS):
        raise SystemExit("FAIL: resume after drain did not complete all jobs")
    compare_snapshots([j["name"] for j in IDENTITY_JOBS], "got", "ref")
    print(f"OK sigterm: graceful drain at >=24 journal records, resume "
          f"bit-identical for {len(IDENTITY_JOBS)} jobs")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--served", required=True,
                    help="path to grape6_served (run in-process)")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", required=True,
                    choices=["identity", "chaos", "sigterm"])
    ap.add_argument("--seed", type=int, default=20260809,
                    help="chaos kill-schedule seed")
    ap.add_argument("--kills", type=int, default=3,
                    help="max kill -9 rounds in chaos mode")
    args = ap.parse_args()

    # Start from an empty workdir: a journal left over from a previous run
    # would satisfy the kill trigger before the fresh process even starts.
    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    os.chdir(args.workdir)

    if args.mode == "identity":
        mode_identity(args.served)
    elif args.mode == "chaos":
        mode_chaos(args.served, args.seed, args.kills)
    else:
        mode_sigterm(args.served)


if __name__ == "__main__":
    main()
