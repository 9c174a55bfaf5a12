#!/usr/bin/env python3
"""End-to-end and layer-traced benchmark of the xgft scenario runner.

Run from the root of the repository:

    python3 perfbench/run.py --workload cg_campaign --seed 1 --seconds 20 --trace 0

Builds the `perfbench` worker binary from source (its own Cargo
workspace, offline), then:

* `--trace 0`: starts PROCESSES fresh worker processes one after another.
  Each parses the workload's spec text and runs it cold through
  `run_scenario` (its set-up time), then repeats warm passes at 2 workers
  for its share of `--seconds`, checking every pass. Reports the median
  set-up time over processes, the median warm pass over all passes, and
  the median peak RSS.
* `--trace 1`: starts one worker process that decomposes every workload
  into the library's public layer calls at 1 worker and reports the
  per-layer metrics.

The last line of standard output is the result JSON object; the line
before it records the provenance (nproc, workers, rustc, revision).
See perfbench/README.md for the metric catalogue.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("million_flow", "cg_campaign", "chaos_timeline")
# Fresh processes per end-to-end run: set-up is measured once per process.
PROCESSES = 5
# A run must end within 180 s once the binary is built.
RUN_DEADLINE_S = 170.0
# Sources whose digest identifies the measured code when git is absent.
SOURCE_DIRS = ("crates", "shims", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")
SKIP_DIRS = {"target", ".bench_build", ".bench_out", ".git"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Build the worker binary; exit non-zero if that fails."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    return os.path.join(target, "release", "perfbench")


def command_output(command):
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for top in SOURCE_DIRS:
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(d for d in subdirs if d not in SKIP_DIRS)
            paths.extend(os.path.join(directory, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def provenance(workers):
    return {
        "nproc": os.cpu_count(),
        "workers": workers,
        "rustc": command_output(["rustc", "-V"]),
        # Only this checkout's own repository, never an enclosing one.
        "git_revision": command_output(["git", "rev-parse", "HEAD"])
        if os.path.exists(os.path.join(ROOT, ".git"))
        else None,
        "source_digest": source_digest(),
    }


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        try:
            return json.loads(line)
        except ValueError:
            continue
    return None


def run_worker(command, timeout):
    """Run one worker process to completion; return (json, error)."""
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    sys.stderr.write(done.stderr)
    result = last_json_line(done.stdout)
    if done.returncode != 0 or result is None:
        return None, f"worker exited with {done.returncode}"
    return result, None


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(binary, workload, seed, seconds):
    budget = seconds / PROCESSES
    setups, passes, rss, processes = [], [], [], []
    attempted = failed = 0
    workers = None
    for _ in range(PROCESSES):
        command = [binary, "pass", "--workload", workload, "--seed", str(seed), "--budget", repr(budget)]
        result, error = run_worker(command, RUN_DEADLINE_S / PROCESSES)
        if error:
            log(error)
            attempted += 1
            failed += 1
            continue
        for e in result["errors"]:
            log(e)
        workers = result["workers"]
        attempted += result["attempted"]
        failed += result["failed"]
        setups.append(result["setup_s"])
        passes.extend(result["run_s"])
        rss.append(result["peak_rss_mib"])
        processes.append({k: result[k] for k in ("setup_s", "attempted", "failed", "peak_rss_mib")})
        processes[-1]["warm_passes"] = len(result["run_s"])
    info = dict(provenance(workers), processes=processes)
    outcome = {
        "correct": failed == 0 and len(setups) == PROCESSES,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            "setup_s": {"value": median(setups), "unit": "s"},
            "run_s": {"value": median(passes), "unit": "s"},
            "peak_rss_mib": {"value": median(rss), "unit": "MiB"},
        },
    }
    return info, outcome


def traced(binary, seed, seconds):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-seed{seed}.jsonl")
    command = [binary, "trace", "--seed", str(seed), "--seconds", repr(float(seconds)), "--spans", spans]
    result, error = run_worker(command, RUN_DEADLINE_S)
    info = dict(provenance(1), spans=os.path.relpath(spans, ROOT))
    if error:
        log(error)
        return info, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return info, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    binary = build()
    if args.trace:
        info, outcome = traced(binary, args.seed, args.seconds)
    else:
        info, outcome = end_to_end(binary, args.workload, args.seed, args.seconds)
    info["workload"] = args.workload
    info["seed"] = args.seed
    print(json.dumps({"info": info}))
    print(json.dumps(outcome))


if __name__ == "__main__":
    main()
