#!/usr/bin/env python3
"""Remote-identity check for the wire layer (docs/SERVING.md, "Wire
protocol").

Starts tools/grape6_served on a unix socket, drives a 10-job
mixed-priority manifest — including autoscaling lease-bound jobs —
through tools/grape6_loadgen over several concurrent connections with
streaming subscriptions, then byte-compares THREE snapshot writers:

  * remote_<name>.snap  — streamed over the wire, written by the client;
  * served_<name>.snap  — written by the daemon after the drain;
  * local_<name>.snap   — an in-process grape6_served run (no --listen)
                          of the same manifest, no sockets anywhere.

All three must be bit-identical for every job: the wire is not allowed
to touch the physics, and the 17-digit snapshot encoding must round-trip
binary64 exactly. Also asserts the streaming contract (exactly-once
terminals, at least one progress event per job) and that autoscaling
actually resized at least one lease during the served run.

Exits non-zero with a diff summary on any violation.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys

# 10 jobs, mixed sizes/priorities/models on a 4-board machine. Three
# carry autoscaling lease bounds; "auto-long" outlives the pack so a
# board is guaranteed to free up while it still runs — the grow path
# must fire at least once.
JOBS = [
    {"name": "int-a", "model": "plummer", "n": 48, "t_end": 0.0625,
     "seed": 21, "boards": 1, "priority": "interactive"},
    {"name": "int-b", "model": "uniform", "n": 32, "t_end": 0.0625,
     "seed": 22, "boards": 1, "priority": "interactive"},
    {"name": "auto-long", "model": "plummer", "n": 64, "t_end": 0.125,
     "seed": 23, "boards": 1, "boards_min": 1, "boards_max": 2,
     "priority": "batch"},
    {"name": "auto-a", "model": "king", "w0": 5.0, "n": 48, "t_end": 0.0625,
     "seed": 24, "boards": 1, "boards_min": 1, "boards_max": 2,
     "priority": "batch"},
    {"name": "auto-b", "model": "hernquist", "n": 48, "t_end": 0.0625,
     "seed": 25, "boards": 1, "boards_min": 1, "boards_max": 2,
     "priority": "batch"},
    {"name": "bat-a", "model": "plummer", "n": 64, "t_end": 0.0625,
     "seed": 26, "boards": 1, "priority": "batch"},
    {"name": "bat-b", "model": "uniform", "n": 48, "t_end": 0.0625,
     "seed": 27, "boards": 1, "priority": "batch"},
    {"name": "bat-c", "model": "disk", "n": 48, "t_end": 0.0625,
     "seed": 28, "boards": 2, "priority": "batch"},
    {"name": "bat-d", "model": "plummer", "n": 32, "t_end": 0.0625,
     "seed": 29, "boards": 1, "priority": "batch"},
    {"name": "bat-e", "model": "bhbinary", "n": 34, "t_end": 0.0625,
     "seed": 30, "boards": 1, "priority": "batch"},
]

SERVICE = {
    "boards_per_host": 4,
    "hosts_per_cluster": 1,
    "clusters": 1,
    "quantum_blocksteps": 4,
    "max_queue_depth": 16,
}


def write_manifest(path, service, jobs=None):
    doc = {"schema": "grape6-serve-manifest-v1", "service": service}
    if jobs is not None:
        doc["jobs"] = jobs  # omitted entirely for the daemon-shape manifest
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--served", required=True, help="path to grape6_served")
    ap.add_argument("--loadgen", required=True, help="path to grape6_loadgen")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    for tool in ("served", "loadgen"):
        setattr(args, tool, os.path.abspath(getattr(args, tool)))

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)

    # The daemon gets the service shape only; the JOBS arrive over the
    # wire from loadgen (preloading them too would collide on names).
    write_manifest("service.json", SERVICE)
    write_manifest("jobs.json", SERVICE, JOBS)
    endpoint = "unix:g6wire.sock"

    served = subprocess.Popen(
        [args.served, f"--listen={endpoint}", "--manifest=service.json",
         "--out=served",
         "--report-out=served_report.json"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = served.stdout.readline()  # blocks until the bind happened
        if "listening on" not in line:
            raise SystemExit(f"FAIL: unexpected served banner: {line!r}")

        run([args.loadgen, f"--connect={endpoint}", "--manifest=jobs.json",
             "--connections=4", "--snapshots-out=remote",
             "--report-out=load.json", "--drain=true"])

        served_out, _ = served.communicate(timeout=120)
        if served.returncode != 0:
            sys.stderr.write(served_out)
            raise SystemExit(f"FAIL: grape6_served exited {served.returncode}")
    finally:
        if served.poll() is None:
            served.kill()

    # Streaming contract, as measured by the client.
    with open("load.json") as f:
        load = json.load(f)
    if load["completed"] != len(JOBS) or load["failed"] != 0:
        raise SystemExit(f"FAIL: {load['completed']}/{len(JOBS)} completed, "
                         f"{load['failed']} failed")
    if not load["exactly_once_terminals"]:
        raise SystemExit("FAIL: terminal events were not exactly-once")
    if load["jobs_without_progress"] != 0:
        raise SystemExit(f"FAIL: {load['jobs_without_progress']} job(s) "
                         "streamed no progress events")
    if load["snapshots"] != len(JOBS):
        raise SystemExit(f"FAIL: {load['snapshots']}/{len(JOBS)} snapshots "
                         "streamed")

    # Autoscaling must have resized at least one lease server-side.
    with open("served_report.json") as f:
        report = json.load(f)
    resizes = sum(j.get("resizes", 0) for j in report["jobs"])
    if resizes < 1:
        raise SystemExit("FAIL: no lease was autoscaled during the served "
                         "run — the grow path never fired")

    # Standalone in-process reference: same manifest, no sockets.
    run([args.served, "--manifest=jobs.json", "--out=local"])

    mismatches = []
    for job in JOBS:
        name = job["name"]
        remote, servd, local = (f"remote_{name}.snap", f"served_{name}.snap",
                                f"local_{name}.snap")
        for snap in (remote, servd, local):
            if not os.path.exists(snap):
                raise SystemExit(f"FAIL: missing snapshot {snap}")
        if not filecmp.cmp(remote, local, shallow=False):
            mismatches.append(f"{name} (remote vs local)")
        if not filecmp.cmp(servd, local, shallow=False):
            mismatches.append(f"{name} (served vs local)")

    if mismatches:
        raise SystemExit("FAIL: snapshots differ for: " + ", ".join(mismatches))

    autoscaled = [j["name"] for j in report["jobs"] if j.get("resizes", 0) > 0]
    print(f"OK: {len(JOBS)} jobs streamed remotely, snapshots bit-identical "
          f"client/daemon/standalone; {resizes} lease resize(s) on: "
          f"{', '.join(autoscaled)}")


if __name__ == "__main__":
    main()
