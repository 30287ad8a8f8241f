#!/usr/bin/env python3
"""End-to-end identity check for the serving layer (docs/SERVING.md).

Runs tools/grape6_served in-process on a 10-job mixed-priority manifest — including a
scheduled board death that forces a lease revocation and re-queue — then
re-runs every job as a single-job manifest on an otherwise idle service
and byte-compares the final snapshots. The serving layer's core promise
is that multiplexing is invisible to the physics: shared vs standalone
must be bit-identical, file-level.

Exits non-zero (with a diff summary) on any mismatch, missing snapshot,
or report inconsistency.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys

# 10 jobs, mixed sizes/priorities/models, on a 4-board machine. Board 1
# dies at round 1: the round-0 dispatch leased it (first-fit from board
# 0), so the owning job must be revoked, re-queued and completed
# elsewhere. (Round 1, not later: these jobs are small enough that early
# leases can drain within a few rounds, and a death on a free board
# would exercise nothing.)
JOBS = [
    {"name": "int-a", "model": "plummer", "n": 48, "t_end": 0.0625,
     "seed": 11, "boards": 1, "priority": "interactive"},
    {"name": "int-b", "model": "uniform", "n": 32, "t_end": 0.0625,
     "seed": 12, "boards": 1, "priority": "interactive"},
    {"name": "bat-a", "model": "plummer", "n": 64, "t_end": 0.0625,
     "seed": 13, "boards": 1, "priority": "batch"},
    {"name": "bat-b", "model": "king", "w0": 5.0, "n": 48, "t_end": 0.0625,
     "seed": 14, "boards": 1, "priority": "batch"},
    {"name": "bat-c", "model": "hernquist", "n": 48, "t_end": 0.0625,
     "seed": 15, "boards": 2, "priority": "batch"},
    {"name": "bat-d", "model": "plummer", "n": 32, "t_end": 0.0625,
     "seed": 16, "boards": 1, "priority": "batch"},
    # Autoscaling lease bounds; t_end outlives the pack so the freed
    # boards grow this lease — shared-run resizes must stay invisible to
    # the physics just like multiplexing does.
    {"name": "bat-e", "model": "uniform", "n": 48, "t_end": 0.25,
     "seed": 17, "boards": 1, "boards_min": 1, "boards_max": 2,
     "priority": "batch"},
    {"name": "bat-f", "model": "disk", "n": 48, "t_end": 0.0625,
     "seed": 18, "boards": 2, "priority": "batch"},
    {"name": "bat-g", "model": "plummer", "n": 48, "t_end": 0.0625,
     "seed": 19, "boards": 1, "priority": "batch"},
    {"name": "bat-h", "model": "bhbinary", "n": 34, "t_end": 0.0625,
     "seed": 20, "boards": 1, "priority": "batch"},
]

SERVICE = {
    "boards_per_host": 4,
    "hosts_per_cluster": 1,
    "clusters": 1,
    "quantum_blocksteps": 4,
    "max_queue_depth": 16,
    "board_deaths": [{"round": 1, "board": 1}],
}


def write_manifest(path, service, jobs):
    with open(path, "w") as f:
        json.dump({"schema": "grape6-serve-manifest-v1",
                   "service": service, "jobs": jobs}, f, indent=2)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--served", required=True, help="path to grape6_served")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)

    # Shared run: all 10 jobs on one service, with the board death.
    write_manifest("shared.json", SERVICE, JOBS)
    run([args.served, "--manifest=shared.json", "--out=shared",
         "--report-out=shared_report.json"])

    with open("shared_report.json") as f:
        report = json.load(f)
    svc = report["service"]
    if svc["completed"] != len(JOBS):
        raise SystemExit(
            f"FAIL: {svc['completed']}/{len(JOBS)} jobs completed")
    if svc["boards_dead"] != 1:
        raise SystemExit("FAIL: the scheduled board death did not land")
    if svc["revocations"] < 1:
        raise SystemExit("FAIL: board death revoked no lease — the death "
                         "must hit a leased board to exercise re-queue")
    if sum(j.get("resizes", 0) for j in report["jobs"]) < 1:
        raise SystemExit("FAIL: no lease was autoscaled in the shared run — "
                         "bat-e's bounds must produce at least one resize")

    # Standalone runs: one job per service, full healthy machine, no
    # neighbors, no deaths. Identical physics is the contract.
    solo_service = {k: v for k, v in SERVICE.items() if k != "board_deaths"}
    mismatches = []
    for job in JOBS:
        name = job["name"]
        write_manifest(f"solo_{name}.json", solo_service, [job])
        run([args.served, f"--manifest=solo_{name}.json", f"--out=solo_{name}"])
        shared_snap = f"shared_{name}.snap"
        solo_snap = f"solo_{name}_{name}.snap"
        for snap in (shared_snap, solo_snap):
            if not os.path.exists(snap):
                raise SystemExit(f"FAIL: missing snapshot {snap}")
        if not filecmp.cmp(shared_snap, solo_snap, shallow=False):
            mismatches.append(name)

    if mismatches:
        raise SystemExit(
            "FAIL: shared vs standalone snapshots differ for: "
            + ", ".join(mismatches))

    revoked = [j["name"] for j in report["jobs"] if j["revocations"] > 0]
    print(f"OK: {len(JOBS)} jobs bit-identical shared vs standalone "
          f"(revoked under board death: {', '.join(revoked)})")


if __name__ == "__main__":
    main()
