#!/usr/bin/env python3
"""Run one workload of the HPG-MxP benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the measuring program (perfbench/src) against the repository's
crates, runs it once with a pinned environment, prints every metric by
name with its unit and direction, a record line with the configuration,
and, last, one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json (tracing
off); --trace 1 the per-layer metrics (spans armed). See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Rayon threads per rank; the program checks it sees this many.
THREADS = {"memwall-128": 2, "halo-32-p2": 1}

# A run must end within 180 s; leave room for the output.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the measuring program; return the path of its executable."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail(f"no repository sources next to {HERE} (crates/core is missing)")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, target, "release", "hpgmxp-perfbench")


def child_env(workload, trace):
    """The caller's environment minus every knob of the program, plus
    the pinned configuration of this workload."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("HPGMXP_", "RAYON_"))}
    env.update({
        "HPGMXP_TRACE": "spans" if trace else "off",
        "HPGMXP_SIMD": "auto",
        "HPGMXP_COLL": "rd",
        "HPGMXP_COMM": "thread",
        "RAYON_NUM_THREADS": str(THREADS[workload]),
    })
    if trace:
        # Room for every span of the traced round without wrapping.
        env["HPGMXP_TRACE_CAPACITY"] = str(1 << 20)
    return env


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["per_layer" if a.trace else "end_to_end"]

    exe = build()
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=child_env(a.workload, a.trace),
                           stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {CHILD_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"{a.workload} exited with code {r.returncode}")
    out = json.loads(r.stdout.strip().splitlines()[-1])

    raw = out["metrics"]
    metrics, not_measured = {}, []
    for s in specs:
        name = s["name"]
        if name in raw:
            value = raw[name]
        elif a.trace:
            # A layer the workload does not exercise (e.g. halo exchange
            # on one rank) reads 0 and is named in the record line.
            value = 0.0
            not_measured.append(name)
        else:
            fail(f"end-to-end metric {name} missing from the program's output")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value}")
        metrics[name] = {"value": value, "unit": s["unit"]}
        print(f"{name:44s} {value:>16.6g} {s['unit']:8s} ({s['better']} is better)")
    print(f"operations: {out['failed']} failed of {out['attempted']} attempted")
    for f in out["failures"]:
        print(f"FAILED: {f}")

    config = dict(out["config"], git_commit=git_commit())
    print(json.dumps({"record": {"config": config, "derived": out["derived"],
                                 "not_measured": not_measured}}))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
