#!/usr/bin/env python3
"""Layered end-to-end benchmark of the BClean service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (and through it
the library) in Release under .bench_build/, then for one workload:

  1. `bclean_perf gen` writes the seeded dirty/clean CSVs (own process);
  2. `bclean_perf run` measures the workload for about S seconds (own
     process, so generation and scoring stay out of its time and memory);
  3. `bclean_perf score` computes repair P/R/F1 of the first cold clean of
     each dirty table the workload used.

It prints a human-readable report, then as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing beside the sources
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bclean_perf")

WORKLOADS = ("batch-soccer-200k", "session-hospital-10k",
             "outofcore-inpatient-50k")

# (name, unit) of every metric the result line carries; BENCHMARK.json
# lists the same names (perfbench/test_stats.py checks).
END_TO_END = (
    ("setup_s", "s"),
    ("clean_s", "s"),
    ("warm_clean_s", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("f1", "ratio"),
    ("ops_ok_frac", "ratio"),
)

# Model-build layers in construction order, as the traced rebuilds span
# them; the medians of their self times plus service.open_overhead_s
# account for the median traced setup.
BUILD_LAYERS = (
    ("data.domain_stats_s", "data.domain_stats"),
    ("core.uc_mask_s", "core.uc_mask"),
    ("core.compensatory_build_s", "core.compensatory_build"),
    ("fdx.similarity_obs_s", "fdx.similarity_obs"),
    ("matrix.glasso_ldl_s", "matrix.glasso_ldl"),
    ("bn.cpt_fit_s", "bn.cpt_fit"),
)

SERVICE_STATS = (
    "engine_cache_hits", "engine_cache_misses", "parts_layers_reused",
    "repair_caches_created", "repair_caches_declined", "jobs_rejected",
    "jobs_failed", "incremental_updates",
)

# Counts that the workload's shape or the repair output fix, so that no
# direction of change is better: printed in the traced report, not carried
# in the result line.
SHAPE_COUNTS = (
    "engine.cells_changed",
    "service.stats.sessions_opened",
    "service.stats.sharded_sessions_opened",
    "service.stats.jobs_queued",
    "service.stats.jobs_completed",
    "trace.spans",
)

PER_LAYER = (
    (("data.csv_read_s", "s"), ("data.csv_write_s", "s"))
    + tuple((metric, "s") for metric, _ in BUILD_LAYERS)
    + (
        ("fdx.similarity_calls", "count"),
        ("bn.edges", "count"),
        ("engine.clean_pass_s", "s"),
        ("engine.clean_pass_nocache_s", "s"),
        ("engine.cells_scanned", "count"),
        ("engine.cells_skipped_by_filter", "count"),
        ("engine.cells_inferred", "count"),
        ("engine.candidates_evaluated", "count"),
        ("engine.cache_hit_ratio", "ratio"),
        ("engine.warm_cache_hit_ratio", "ratio"),
        ("engine.pass_cache_hit_ratio", "ratio"),
        ("engine.candidates_per_s", "1/s"),
        ("engine.clean_cpu_util", "ratio"),
        ("service.open_overhead_s", "s"),
        ("service.update_incremental", "count"),
        ("service.update_fallback", "count"),
        ("service.reclean_cache_hit_ratio", "ratio"),
    )
    + tuple(("service.stats." + name, "count") for name in SERVICE_STATS)
    + (
        ("shard.spill_bytes", "bytes"),
        ("shard.chunks", "count"),
        ("shard.peak_resident_bytes", "bytes"),
        ("shard.clean_cpu_util", "ratio"),
        ("trace.overhead_s", "s"),
    )
)

BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
SCORE_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def call(argv, timeout, what):
    """Runs argv to completion (killed and reaped on timeout); returns its
    stdout, or raises BenchError with the captured stderr."""
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} timed out after {timeout}s") from exc
    except OSError as exc:
        raise BenchError(f"{what}: {exc}") from exc
    if done.returncode != 0:
        raise BenchError(f"{what} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}{done.stderr[-4000:]}")
    return done.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError(f"no source tree at {ROOT}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        call(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, "configure")
    call(["cmake", "--build", BUILD_DIR, "--target", "bclean_perf", "-j",
          str(os.cpu_count() or 1)], BUILD_TIMEOUT_S, "build")


def sample_note(values):
    return f"n={len(values)}, median"


def latency_lines(samples):
    """Report lines for the interactive latencies a workload measured."""
    lines = []
    for name, label in (("update_s", "update"), ("reclean_s", "reclean"),
                        ("edit_s", "edit"),
                        ("update_incremental_s", "update_incremental"),
                        ("update_fallback_s", "update_fallback"),
                        ("dispatcher.queue_wait_s", "dispatcher.queue_wait"),
                        ("dispatcher.run_s", "dispatcher.run")):
        values = samples.get(name)
        if not values:
            continue
        lines.append(f"  {label}_p50_s = {stats.median(values):.6f} s "
                     f"(n={len(values)}, p50)")
        tail = stats.tail_percentile(len(values))
        if tail is None:
            lines.append(f"  {label}_tail_s = n/a (n={len(values)}: fewer "
                         f"than {2 * stats.TAIL_MIN_BEYOND} samples)")
        else:
            lines.append(f"  {label}_tail_s = "
                         f"{stats.percentile(values, tail):.6f} s "
                         f"(n={len(values)}, p{tail:g})")
    return lines


def end_to_end(record, scores, cells):
    samples = record["samples"]
    for name in ("setup_s", "clean_s", "warm_clean_s"):
        if not samples.get(name):
            raise BenchError(f"the run recorded no {name} samples")
    cells_per_s = [cells / (setup + clean) for setup, clean in
                   zip(samples["setup_s"], samples["clean_s"])]
    attempted, failed = record["attempted"], record["failed"]
    values = {
        "setup_s": (stats.median(samples["setup_s"]),
                    sample_note(samples["setup_s"])),
        "clean_s": (stats.median(samples["clean_s"]),
                    sample_note(samples["clean_s"])),
        "warm_clean_s": (stats.median(samples["warm_clean_s"]),
                         sample_note(samples["warm_clean_s"])),
        "cells_per_s": (stats.median(cells_per_s), sample_note(cells_per_s)),
        "peak_rss_mb": (record["values"]["peak_rss_mb"], "process peak"),
        "f1": (stats.median([s["f1"] for s in scores]),
               f"median over {len(scores)} table(s); "
               f"P={stats.median([s['precision'] for s in scores]):.6f} "
               f"R={stats.median([s['recall'] for s in scores]):.6f}"),
        "ops_ok_frac": (1.0 - failed / attempted,
                        f"ops_failed_frac={failed / attempted:g}"),
    }
    return values


def per_layer(record):
    """Per-layer metrics of a traced run. A layer's time is the median self
    time of its spans; service.open_overhead_s is the median top-level setup
    minus the median CSV read inside those setups minus the medians of the
    build layers."""
    spans = record["spans"]
    values = record["values"]
    selfs = stats.self_times(spans)
    # Setups nested in another span (the out-of-core run's in-memory twin)
    # are not the setups the layers account for.
    setup_spans = stats.under_root(spans, "setup")

    def self_time(name, among=spans):
        samples = stats.self_time_samples(among, name, selfs)
        if not samples:
            raise BenchError(f"the traced run recorded no {name} span")
        return stats.median(samples)

    out = {
        "data.csv_read_s": self_time("data.csv_read", setup_spans),
        "data.csv_write_s": self_time("data.csv_write"),
    }
    for metric, span in BUILD_LAYERS:
        out[metric] = self_time(span)
    out["engine.clean_pass_s"] = self_time("engine.clean_pass")
    out["engine.clean_pass_nocache_s"] = self_time("engine.clean_pass_nocache")
    setups = stats.span_durations(setup_spans, "setup")
    if not setups:
        raise BenchError("the traced run recorded no setup span")
    out["setup_s"] = stats.median(setups)
    if stats.span_durations(spans, "shard.build"):
        # Out-of-core: the streaming build replaces the in-memory layers.
        out["shard.stream_build_s"] = build = self_time("shard.build")
    else:
        build = sum(out[metric] for metric, _ in BUILD_LAYERS)
        out["build_layers_s"] = build = build + self_time("engine.create")
    out["service.open_overhead_s"] = (out["setup_s"] - out["data.csv_read_s"]
                                      - build)
    for name, _ in PER_LAYER:
        if name not in out and name in values:
            out[name] = values[name]
    for name in SHAPE_COUNTS:
        if name in values:
            out[name] = values[name]
    samples = record["samples"]
    out["service.update_incremental"] = len(
        samples.get("update_incremental_s", []))
    out["service.update_fallback"] = len(samples.get("update_fallback_s", []))
    out.setdefault("service.reclean_cache_hit_ratio", 0.0)
    for name in ("shard.spill_bytes", "shard.chunks",
                 "shard.peak_resident_bytes", "shard.clean_cpu_util"):
        out.setdefault(name, 0.0)  # in-memory workloads never spill
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = values["trace.span_cost_s"] * len(spans)
    return out


def layer_report(record, layers):
    spans = record["spans"]
    selfs = stats.self_times(spans)
    totals = {}
    for span in spans:
        totals.setdefault(span["name"], [0.0, 0])
        totals[span["name"]][0] += selfs[span["id"]]
        totals[span["name"]][1] += 1
    lines = ["self time by span (all occurrences):"]
    for name, (total, count) in sorted(totals.items(),
                                       key=lambda kv: -kv[1][0]):
        lines.append(f"  {name:32s} {total:10.6f} s  x{count}")
    setups = stats.span_durations(stats.under_root(spans, "setup"), "setup")
    if "shard.stream_build_s" in layers:
        build, what = layers["shard.stream_build_s"], "streaming build"
    else:
        build, what = layers["build_layers_s"], "build layers"
    lines.append(f"median of {len(setups)} traced setups "
                 f"{layers['setup_s']:.6f} s = csv read "
                 f"{layers['data.csv_read_s']:.6f} + {what} {build:.6f} + "
                 f"open overhead {layers['service.open_overhead_s']:.6f} "
                 f"(medians; by definition of the overhead)")
    lines.append("  setups: " + ", ".join(f"{t:.6f}" for t in setups))
    cost = record["values"]["trace.span_cost_s"]
    lines.append(f"tracing cost {cost * 1e9:.1f} ns per span (timed on a "
                 f"scratch tracer) x {len(spans)} spans = "
                 f"{layers['trace.overhead_s']:.6f} s")
    lines.append("shape and output counts (not in the result line): " +
                 ", ".join(f"{name}={layers[name]:g}" for name in SHAPE_COUNTS
                           if name in layers))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    run_dir = os.path.join(BUILD_DIR, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        shape = json.loads(call(
            [BINARY, "gen", "--workload", args.workload, "--seed",
             str(args.seed), "--dir", run_dir], GEN_TIMEOUT_S, "gen"))
        call([BINARY, "run", "--workload", args.workload, "--seed",
              str(args.seed), "--seconds", f"{args.seconds:g}", "--trace",
              str(args.trace), "--dir", run_dir], RUN_TIMEOUT_S, "run")
        with open(os.path.join(run_dir, "record.json")) as f:
            record = json.load(f)
        scores = []
        if not args.trace:
            scores = [json.loads(call(
                [BINARY, "score", "--dir", run_dir, "--table", str(table)],
                SCORE_TIMEOUT_S, "score")) for table in range(shape["tables"])]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = record["env"]
    print(f"workload {args.workload}: {env['dataset']} x {shape['rows']} rows "
          f"x {shape['cols']} attributes, {shape['tables']} dirty table(s) "
          f"with {shape['errors']} injected errors, seed {args.seed}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    bad_groups = stats.disagreeing_groups(record["digest_groups"])
    attempted = record["attempted"] + len(record["digest_groups"])
    failed = record["failed"] + len(bad_groups)
    for error in record["errors"]:
        print(f"FAILED: {error}")
    for group in bad_groups:
        print(f"FAILED: digest group {group}: {record['digest_groups'][group]}")
    print(f"checks: {len(record['digest_groups'])} digest groups "
          f"({', '.join(sorted(record['digest_groups']))})")
    record["attempted"], record["failed"] = attempted, failed

    if args.trace:
        metrics = per_layer(record)
        units = dict(PER_LAYER)
        for line in layer_report(record, metrics):
            print(line)
        print("per-layer metrics:")
        for name, _ in PER_LAYER:
            print(f"  {name} = {metrics[name]:.9g} {units[name]}")
        if "shard.stream_build_s" in metrics:
            print(f"  shard.stream_build_s = "
                  f"{metrics['shard.stream_build_s']:.9g} s "
                  "(BuildShardedModel minus its CSV parse)")
        for line in latency_lines(record["samples"]):
            print(line)
    else:
        for table, score in enumerate(scores):
            print(f"table {table}: P={score['precision']:.6f} "
                  f"R={score['recall']:.6f} F1={score['f1']:.6f}")
        values = end_to_end(record, scores, shape["rows"] * shape["cols"])
        units = dict(END_TO_END)
        measured = record["values"]["measured_s"]
        print(f"end-to-end metrics (measured {measured:.1f} s):")
        for name, (value, note) in values.items():
            print(f"  {name} = {value:.9g} {units[name]} ({note})")
        for line in latency_lines(record["samples"]):
            print(line)
        metrics = {name: value for name, (value, _) in values.items()}

    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
