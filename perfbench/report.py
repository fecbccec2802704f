"""Turns one raw run file written by rdo_perfbench into reported metrics.

End-to-end metrics come from the untimed-vs-timed op log of a run with
--trace 0; per-layer metrics come from the spans and counters of a run with
--trace 1. Both are plain functions of the raw document, so test_report.py
can pin the arithmetic.
"""

import math
import statistics

# (name, unit) in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("accuracy_pct", "%"),
    ("success_pct", "%"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("core.tune.p50_ms", "ms"),
    ("core.tune.busy_s", "s"),
    ("core.pwt.batches", "count/tune"),
    ("core.pwt.offset_updates_per_batch", "count/batch"),
    ("core.compile_plan.calls", "count"),
    ("core.compile_plan.p50_ms", "ms"),
    ("core.compile_plan.busy_s", "s"),
    ("core.compile.lut_build_s", "s"),
    ("core.compile.prepare_s", "s"),
    ("core.compile.vawo_solve_s", "s"),
    ("core.plan_fingerprint.p50_ms", "ms"),
    ("core.backend_construct.p50_ms", "ms"),
    ("core.program_cycle.p50_ms", "ms"),
    ("rram.weights_programmed", "count/cycle"),
    ("rram.device_pulses_per_s", "1/s"),
    ("core.evaluate.p50_ms", "ms"),
    ("core.evaluate.images_per_s", "1/s"),
    ("core.evaluate.gflops", "GFLOP/s"),
    ("sim.construct.p50_ms", "ms"),
    ("sim.program_cycle.p50_ms", "ms"),
    ("sim.evaluate.p50_ms", "ms"),
    ("sim.evaluate.images_per_s", "1/s"),
    ("nn.pool.parallel_loops_per_op", "count/op"),
    ("nn.pool.inline_loops_per_op", "count/op"),
    ("nn.pool.steal_ratio", "ratio"),
    ("serve.parse.p50_us", "us"),
    ("serve.plan_hit_rate", "ratio"),
    ("serve.backend_reuse_rate", "ratio"),
    ("serve.plan_evictions", "count"),
    ("serve.pooled_backends", "count"),
    ("data.generate_s", "s"),
    ("models.load_s", "s"),
    ("obs.trace_overhead_pct", "%"),
]

# Percentiles a tail metric may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# The fewest reads a 25-second run of each workload completes, slow host
# periods included (see README.md, "Steadiness"). read_p95_ms reports the
# percentile the percentile rule picks for that count, fixed per workload
# so that it means the same thing in every run whatever the throughput.
MIN_READS = {"serve_mix": 350, "sweep_vawo": 100, "sweep_pwt": 10}


def percentile(samples, p):
    """Nearest-rank percentile: (value, samples strictly beyond its rank)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def rule_percentile(n, want=95.0):
    """The percentile rule: the highest percentile up to `want` that
    leaves at least MIN_BEYOND of `n` samples beyond it; 50 (the median)
    when none does."""
    for p in TAIL_CANDIDATES:
        if p <= want and n - max(1, math.ceil(p / 100.0 * n)) >= MIN_BEYOND:
            return p
    return 50.0


def tail(samples, p):
    """(value, samples beyond it) of percentile `p`; p50 is the median."""
    if p == 50.0:
        return statistics.median(samples), len(samples) // 2
    return percentile(samples, p)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def counted_ops(raw):
    """Trials or requests; grid-point compiles are not ops."""
    return [o for o in raw["ops"] if o["kind"] != "compile"]


def end_to_end(raw):
    """(metrics, notes): every END_TO_END metric plus sample counts."""
    ops = counted_ops(raw)
    reads = [o["read_ms"] for o in ops if "read_ms" in o]
    writes = [o["write_ms"] for o in ops if "write_ms" in o]
    ok = sum(1 for o in ops if o["ok"])
    n_reads = len(reads)
    p95 = rule_percentile(MIN_READS[raw["workload"]])
    read_tail, beyond = tail(reads, p95)
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": len(ops) / raw["window_s"],
        "read_p50_ms": statistics.median(reads),
        "read_p95_ms": read_tail,
        "write_p50_ms": statistics.median(writes),
        "accuracy_pct": 100.0 * raw["accuracy_weighted"] / raw["accuracy_samples"],
        "success_pct": 100.0 * ok / len(ops),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(raw["setup_s"]),
        "ops_per_s": "%d ops in %.2f s" % (len(ops), raw["window_s"]),
        "read_p50_ms": "n=%d" % n_reads,
        "read_p95_ms": "p%g of n=%d, %d beyond%s" % (
            p95, n_reads, beyond,
            "" if beyond >= MIN_BEYOND else " (fewer than %d)" % MIN_BEYOND),
        "write_p50_ms": "n=%d" % len(writes),
        "accuracy_pct": "%d samples of the fixed op prefix" % raw["accuracy_samples"],
        "success_pct": "%d of %d ops as expected" % (ok, len(ops)),
        "peak_rss_mb": "VmHWM when the timed phase ends",
    }
    return {n: (values[n], u) for n, u in END_TO_END}, notes


def covered(interval, children):
    """Length of the part of `interval` that the union of `children`
    (intervals, possibly overlapping) covers."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children)
    total, end = 0.0, lo
    for a, b in clipped:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def layer_table(spans):
    """Per span name: count, busy seconds, self seconds and durations (ms).
    Self time is a span's duration minus what its child spans cover."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append((s["start_us"], s["end_us"]))
    table = {}
    for s in spans:
        iv = (s["start_us"], s["end_us"])
        dur = iv[1] - iv[0]
        own = dur - covered(iv, kids.get(s["id"], []))
        row = table.setdefault(s["name"], {"count": 0, "busy_s": 0.0,
                                           "self_s": 0.0, "ms": []})
        row["count"] += 1
        row["busy_s"] += dur / 1e6
        row["self_s"] += own / 1e6
        row["ms"].append(dur / 1e3)
    return table


def uncovered_share(spans):
    """Per op-span name: mean share of the op's time no child span covers
    (the benchmark's own work between public calls)."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append((s["start_us"], s["end_us"]))
    shares = {}
    for s in spans:
        if s["parent"] != 0:
            continue
        iv = (s["start_us"], s["end_us"])
        dur = iv[1] - iv[0]
        if dur > 0:
            shares.setdefault(s["name"], []).append(
                (dur - covered(iv, kids.get(s["id"], []))) / dur)
    return {k: statistics.fmean(v) for k, v in shares.items()}


def per_layer(raw):
    """Every PER_LAYER metric. A layer that does not run on the workload
    reports 0 (see README.md, "Per-layer metrics")."""
    table = layer_table(raw["spans"])
    c = raw["counters"]
    s = raw["samples"]

    def ms(name):
        return table[name]["ms"] if name in table else []

    def busy(*names):
        return sum(table[n]["busy_s"] for n in names if n in table)

    def count(name):
        return table[name]["count"] if name in table else 0

    ops = counted_ops(raw)
    pool = raw["pool"]
    eval_busy = busy("core.evaluate")
    hits, misses = c.get("serve.plan_hits", 0), c.get("serve.plan_misses", 0)
    reuses = c.get("serve.backend_reuses", 0)
    creates = c.get("serve.backend_creates", 0)
    book = raw["trace_bookkeeping_s"]
    values = {
        "core.tune.p50_ms": median_or_zero(ms("core.tune")),
        "core.tune.busy_s": busy("core.tune"),
        "core.pwt.batches": ratio(c.get("pwt.batches", 0), count("core.tune")),
        "core.pwt.offset_updates_per_batch":
            ratio(c.get("pwt.offset_updates", 0), c.get("pwt.batches", 0)),
        "core.compile_plan.calls": count("core.compile_plan"),
        "core.compile_plan.p50_ms": median_or_zero(ms("core.compile_plan")),
        "core.compile_plan.busy_s": busy("core.compile_plan"),
        "core.compile.lut_build_s": c.get("compile.lut_build_s", 0.0),
        "core.compile.prepare_s": c.get("compile.prepare_s", 0.0),
        "core.compile.vawo_solve_s": c.get("compile.vawo_solve_s", 0.0),
        "core.plan_fingerprint.p50_ms":
            median_or_zero(s.get("core.plan_fingerprint_ms", [])),
        "core.backend_construct.p50_ms":
            median_or_zero(ms("core.backend_construct")),
        "core.program_cycle.p50_ms": median_or_zero(ms("core.program_cycle")),
        "rram.weights_programmed": ratio(c.get("rram.weights_programmed", 0),
                                         c.get("rram.program_cycles", 0)),
        "rram.device_pulses_per_s":
            ratio(c.get("rram.device_pulses", 0),
                  busy("core.program_cycle", "sim.program_cycle")),
        "core.evaluate.p50_ms": median_or_zero(ms("core.evaluate")),
        "core.evaluate.images_per_s": ratio(c.get("core.eval_images", 0), eval_busy),
        "core.evaluate.gflops":
            ratio(2.0 * c["macs_per_image"] * c.get("core.eval_images", 0),
                  eval_busy) / 1e9,
        "sim.construct.p50_ms": median_or_zero(ms("sim.construct")),
        "sim.program_cycle.p50_ms": median_or_zero(ms("sim.program_cycle")),
        "sim.evaluate.p50_ms": median_or_zero(ms("sim.evaluate")),
        "sim.evaluate.images_per_s":
            ratio(c.get("sim.eval_images", 0), busy("sim.evaluate")),
        "nn.pool.parallel_loops_per_op": ratio(pool["parallel_loops"], len(ops)),
        "nn.pool.inline_loops_per_op": ratio(pool["inline_loops"], len(ops)),
        "nn.pool.steal_ratio":
            ratio(pool["chunks_stolen"], pool["chunks_executed"]),
        "serve.parse.p50_us": median_or_zero(s.get("serve.parse_us", [])),
        "serve.plan_hit_rate": ratio(hits, hits + misses),
        "serve.backend_reuse_rate": ratio(reuses, reuses + creates),
        "serve.plan_evictions": c.get("serve.plan_evictions", 0),
        "serve.pooled_backends": c.get("serve.pooled_backends", 0),
        "data.generate_s": statistics.median(raw["data_generate_s"]),
        "models.load_s": statistics.median(raw["model_load_s"]),
        "obs.trace_overhead_pct": 100.0 * ratio(book, raw["window_s"] - book),
    }
    return {n: (values[n], u) for n, u in PER_LAYER}, table
