#!/usr/bin/env python3
"""Repository benchmark: one workload, one process, one result line.

    python3 perfbench/run.py --workload sweep_pwt|sweep_vawo|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and with it the
repository's libraries) in Release under .bench_build/, trains the two
models into a cache owned by that build when it is missing (untimed),
runs the workload and prints a report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. A failed output check
prints correct=false and exits 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import report  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep_pwt", "sweep_vawo", "serve_mix")
# On-disk caches would turn compiles into file loads; the rest change
# what or how the program runs.
FORBIDDEN_ENV = ("RDO_TRACE", "RDO_PLAN_CACHE_DIR", "RDO_LUT_CACHE_DIR",
                 "RDO_OPT_PASSES", "RDO_THREADS")
RUN_BUDGET_S = 170


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def die(msg):
    log("error: " + msg)
    sys.exit(2)


def source_hash():
    """Digest of the sources the trained weights depend on (the library,
    the training recipe in perfbench.cpp and the build), so a tree with
    different code never loads another tree's weights."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [HERE / "CMakeLists.txt", HERE / "perfbench.cpp"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    logf = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rdo_perfbench",
                  "-j", "4"])
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = logf.read_text().splitlines()[-20:]
                die("build failed:\n" + "\n".join(tail))
    return BUILD / "rdo_perfbench"


def run_binary(args, timeout):
    try:
        proc = subprocess.run(args, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("timed out after %.0f s: %s" % (timeout, " ".join(args)))
    if proc.returncode != 0:
        die("exit code %d: %s" % (proc.returncode, " ".join(args)))


def fmt(value):
    return ("%.6g" % value) if isinstance(value, float) else str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    started = time.monotonic()

    bad_env = [v for v in FORBIDDEN_ENV if v in os.environ]
    if bad_env:
        die("refusing to time with %s set" % ", ".join(bad_env))
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no repository sources next to perfbench/ (run from a checkout)")

    exe = build()
    cache = BUILD / ("models-" + source_hash())
    if not (cache / "lenet.bin").exists() or not (cache / "resnet.bin").exists():
        log("training the benchmark models into %s (untimed)" % cache)
        run_binary([str(exe), "prepare", "--cache", str(cache)], 800)

    out_dir = BUILD / "out"
    out_dir.mkdir(exist_ok=True)
    raw_path = out_dir / ("%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace))
    if raw_path.exists():
        raw_path.unlink()
    remaining = RUN_BUDGET_S - (time.monotonic() - started)
    run_binary([str(exe), "run", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", fmt(a.seconds), "--trace", str(a.trace),
                "--cache", str(cache), "--out", str(raw_path)],
               max(remaining, 30.0))
    raw = json.loads(raw_path.read_text())

    env = raw["env"]
    print("workload %s seed %d seconds %s trace %d | nproc %d pool_threads %d "
          "compiler %s build %s" % (a.workload, a.seed, fmt(a.seconds), a.trace,
                                    env["nproc"], env["pool_threads"],
                                    env["compiler"], env["build_type"]))
    for c in raw["checks"]:
        print("check %-34s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                      c["detail"]))
    e2e, notes = report.end_to_end(raw)
    for name, (value, unit) in e2e.items():
        print("e2e   %-36s %14s %-8s %s" % (name, fmt(value), unit, notes[name]))
    if a.trace:
        layers, table = report.per_layer(raw)
        for name, row in sorted(table.items()):
            print("span  %-36s count %6d busy %10.4f s self %10.4f s"
                  % (name, row["count"], row["busy_s"], row["self_s"]))
        for name, share in sorted(report.uncovered_share(raw["spans"]).items()):
            print("op    %-36s uncovered share %.4f" % (name, share))
        trial_writes = sum(o["write_ms"] for o in raw["ops"] if o["kind"] == "trial")
        if trial_writes:
            print("op    core.tune busy is %.0f%% of the trials' write time"
                  % (100.0 * layers["core.tune.busy_s"][0] / (trial_writes / 1e3)))
        one = [o["read_ms"] for o in raw["ops"] if "read_ms" in o and o["images"] == 1]
        if one:
            fp = layers["core.plan_fingerprint.p50_ms"][0]
            print("op    one-image reads: p50 %.4g ms (n=%d); plan_fingerprint "
                  "p50 is %.0f%% of it" % (report.median_or_zero(one), len(one),
                                           100.0 * fp / report.median_or_zero(one)))
        for name, (value, unit) in layers.items():
            print("layer %-36s %14s %s" % (name, fmt(value), unit))
        metrics = layers
    else:
        metrics = e2e

    ops = report.counted_ops(raw)
    failed = sum(1 for o in ops if not o["ok"])
    correct = all(c["ok"] for c in raw["checks"]) and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
