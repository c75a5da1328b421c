#!/usr/bin/env python3
"""Validate BENCH_<name>.json telemetry records (bench/bench_common.h schema).

Usage: validate_bench_json.py <dir-or-file> [...]

Checks every record parses as JSON, carries schema_version 1, and has the
required top-level and telemetry keys.  Exits non-zero on the first problem
so CI fails loudly instead of uploading broken artifacts.
"""
import glob
import json
import math
import os
import sys

REQUIRED_KEYS = (
    "schema_version",
    "bench",
    "git",
    "threads",
    "scale_mode",
    "wall_s",
    "ok",
    "metrics",
    "telemetry",
)
TELEMETRY_KEYS = ("counters", "gauges", "spans")
SCALE_MODES = ("fast", "default", "full")
# Per-bench metrics the perf trajectory depends on: a record missing one of
# these is a silent hole in the cross-PR history, so fail loudly instead.
REQUIRED_METRICS = {
    "selection_sweep": ("speedup_vs_reference", "panel_speedup",
                        "allocs_per_call", "results_match",
                        "kernel_tier", "gram_gflops", "gram_peak_fraction"),
    "kernels": ("dispatched_tier", "forced_tier", "scalar_timed", "kernel_n",
                "gemm_gflops", "gemm_peak_fraction",
                "syrk_gflops", "syrk_peak_fraction",
                "trsm_gflops", "trsm_peak_fraction",
                "gemm_speedup_vs_scalar", "syrk_speedup_vs_scalar",
                "trsm_speedup_vs_scalar",
                # Column-parallel factorizations: required, but no floor in
                # SPEEDUP_FLOORS; their rates scale with the runner's core
                # count, not its SIMD tier.
                "qr_gflops", "qrcp_gflops", "pivoted_chol_gflops"),
    "streaming": ("streaming_e1", "batch_e1", "e1_ratio", "e1_ratio_budget",
                  "guardband_monotone", "clean_false_alarms",
                  "drift_detected", "drift_latency_dies",
                  "drift_budget_dies"),
    "server": ("requests_per_s", "concurrent_sessions",
               "batched_speedup_vs_serial", "batch_mean_size",
               "bit_identical", "cache_hit_zero_refactor"),
    "table1_path_selection": ("max_e1",),
    "fig2_singular_values": ("rank_base", "rank_random_x3",
                             "eff_rank_5_base", "eff_rank_5_random_x3"),
    "ablation_clustering": ("all_tolerance_met", "max_sharded_e1"),
    "shard_scale": ("n_paths", "shards", "levels", "eps_r", "tolerance_met",
                    "repair_promotions", "peak_panel_bytes",
                    "mem_budget_bytes", "dense_bytes", "mem_ok",
                    "parity_factor", "parity_ratio_path", "parity_ratio_gate",
                    "parity_ok", "thread_invariant"),
}
# Perf-regression gate: minimum dispatched-tier-over-scalar speedups, keyed
# by bench.  Ratios cancel the runner's clock, so the floors hold on any
# throttled CI machine.  Enforced only when the sweep actually timed a
# scalar leg (scalar_timed; any forced REPRO_KERNEL tier skips the scalar
# leg and reports speedup 1.0 by construction) AND the dispatched tier is a
# SIMD tier — scalar-vs-scalar is identically 1.0.  Records predating
# scalar_timed fall back to the dispatched_tier test alone.
# No bench record may show a dense SVD: SubsetSelector and Figure 2 work on
# the smaller Gram side of A and the library holds no SVD at all (the
# Golub-Reinsch oracle lives in the test suite), so a `linalg.svd` span or a
# non-zero `core.select.svd_route` counter in any record means an SVD crept
# back into a bench binary.
# Figure 2 on s1423 at default scale (EXPERIMENTS.md claims 3-4): the 5 %
# effective rank of the base configuration and of the 3x random scaling.
FIG2_DEFAULT_EFF_RANK_5 = {"eff_rank_5_base": 30, "eff_rank_5_random_x3": 85}
# The paper's tolerance: the Monte-Carlo e1 of every Table 1 row and of
# every Ablation C sharded selection must stay below it.
PAPER_EPSILON = 0.05
SPEEDUP_FLOORS = {
    "kernels": {
        "gemm_speedup_vs_scalar": 1.5,
        "syrk_speedup_vs_scalar": 1.5,
        "trsm_speedup_vs_scalar": 1.05,
    },
}


def reject_constant(name):
    # Python's json module accepts bare NaN/Infinity by default; a record (or
    # scraped metrics document) carrying one is NOT valid JSON and every
    # strict consumer downstream would choke on it.
    raise ValueError(f"non-finite JSON constant {name!r} (invalid JSON)")


def strict_load(f):
    return json.load(f, parse_constant=reject_constant)


def check_metric_values(metrics, prefix="metrics"):
    """Every metric scalar must be machine-consumable: numbers finite,
    nothing unparsable hiding inside nested metric_json blocks."""
    for key, value in metrics.items():
        where = f"{prefix}[{key!r}]"
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where} is non-finite ({value!r})")
        if isinstance(value, dict):
            check_metric_values(value, where)
        elif isinstance(value, list):
            check_metric_values(dict(enumerate(value)), where)


def collect(args):
    paths = []
    for arg in args:
        if os.path.isdir(arg):
            paths.extend(sorted(glob.glob(os.path.join(arg, "BENCH_*.json"))))
        else:
            paths.append(arg)
    return paths


def validate(path):
    with open(path) as f:
        rec = strict_load(f)
    for key in REQUIRED_KEYS:
        if key not in rec:
            raise ValueError(f"missing key {key!r}")
    if rec["schema_version"] != 1:
        raise ValueError(f"schema_version {rec['schema_version']!r} != 1")
    if rec["scale_mode"] not in SCALE_MODES:
        raise ValueError(f"scale_mode {rec['scale_mode']!r} not in {SCALE_MODES}")
    if not isinstance(rec["metrics"], dict):
        raise ValueError("metrics is not an object")
    if not rec["metrics"]:
        raise ValueError("metrics is empty: every bench must report at least "
                         "one scalar")
    check_metric_values(rec["metrics"])
    for metric in REQUIRED_METRICS.get(rec["bench"], ()):
        if metric not in rec["metrics"]:
            raise ValueError(f"metrics missing {metric!r} "
                             f"(required for bench {rec['bench']!r})")
    floors = SPEEDUP_FLOORS.get(rec["bench"], {})
    scalar_timed = bool(rec["metrics"].get("scalar_timed", True))
    if (floors and scalar_timed
            and rec["metrics"].get("dispatched_tier") != "scalar"):
        for metric, floor in floors.items():
            value = float(rec["metrics"][metric])
            if value < floor:
                raise ValueError(
                    f"perf regression: {metric} = {value:.3g} below the "
                    f"{floor} floor (dispatched_tier = "
                    f"{rec['metrics'].get('dispatched_tier')!r})")
    if rec["bench"] == "streaming":
        # Robustness gate for the streaming calibrator (ISSUE 7 acceptance):
        # streaming accuracy must track the batch robust predictor, the
        # adaptive guard-band must never inflate on a clean stream, the
        # drift detector must flag the injected shift inside the latency
        # budget, and the clean stream must produce zero false alarms.
        met = rec["metrics"]
        ratio = float(met["e1_ratio"])
        ratio_budget = float(met["e1_ratio_budget"])
        if ratio > ratio_budget:
            raise ValueError(
                f"streaming regression: e1_ratio = {ratio:.3f} above the "
                f"{ratio_budget} budget (streaming e1 no longer tracks the "
                f"batch robust predictor)")
        if not met["guardband_monotone"]:
            raise ValueError("streaming regression: adaptive guard-band "
                             "inflated on the clean stream")
        if int(met["clean_false_alarms"]) != 0:
            raise ValueError(
                f"streaming regression: {met['clean_false_alarms']} drift "
                f"false alarm(s) on the clean stream")
        if not met["drift_detected"]:
            raise ValueError("streaming regression: injected drift was "
                             "never flagged")
        latency = int(met["drift_latency_dies"])
        budget = int(met["drift_budget_dies"])
        if latency < 0 or latency > budget:
            raise ValueError(
                f"streaming regression: drift latency {latency} dies "
                f"exceeds the {budget}-die budget")
    if rec["bench"] == "server":
        # Selection-service gate (ISSUE 8 acceptance): batched answers must
        # be bit-identical to serial ones, a cached session must do zero
        # re-selection work, and at default scale the panel path must beat
        # per-request predicts by >= 2x with >= 8 concurrent sessions.
        # (REPRO_FAST pools are too small for the speedup floor to be
        # meaningful, so the perf half of the gate binds at default scale.)
        met = rec["metrics"]
        if not met["bit_identical"]:
            raise ValueError("server regression: batched predictions are not "
                             "bit-identical to serial predictions")
        if not met["cache_hit_zero_refactor"]:
            raise ValueError("server regression: a cached session repeated "
                             "O(n*r^2) selection work on a repeat query")
        if rec["scale_mode"] == "default":
            sessions = int(met["concurrent_sessions"])
            if sessions < 8:
                raise ValueError(f"server record used {sessions} concurrent "
                                 f"sessions (need >= 8)")
            speedup = float(met["batched_speedup_vs_serial"])
            if speedup < 2.0:
                raise ValueError(
                    f"server regression: batched_speedup_vs_serial = "
                    f"{speedup:.3g} below the 2.0 floor at default scale")
    if rec["bench"] == "shard_scale":
        # Sharded out-of-core gate (ISSUE 10 acceptance): the pipeline must
        # meet the global tolerance after repair, stay bit-identical across
        # thread counts, and keep sharded quality within the pinned parity
        # factor of the monolithic greedy sweep.  The memory ceiling is the
        # point of the bench: peak leased panel bytes must stay under the
        # harness budget at every scale, and at default/full scale (the
        # million-path pools) strictly under a quarter of the dense n*m
        # footprint the monolithic route would need.
        met = rec["metrics"]
        if not met["tolerance_met"]:
            raise ValueError("shard regression: global tolerance not met "
                             "after the verify/repair pass")
        if not met["thread_invariant"]:
            raise ValueError("shard regression: sharded selection is not "
                             "bit-identical across thread counts")
        if not met["parity_ok"]:
            raise ValueError(
                f"shard regression: sharded quality outside the "
                f"{met['parity_factor']}x parity envelope (path ratio "
                f"{float(met['parity_ratio_path']):.3f}, gate ratio "
                f"{float(met['parity_ratio_gate']):.3f})")
        peak = int(met["peak_panel_bytes"])
        budget = int(met["mem_budget_bytes"])
        if not met["mem_ok"] or peak > budget:
            raise ValueError(
                f"shard regression: peak panel memory {peak} bytes above "
                f"the {budget}-byte ceiling")
        if rec["scale_mode"] in ("default", "full"):
            dense = int(met["dense_bytes"])
            if peak * 4 > dense:
                raise ValueError(
                    f"shard regression: peak panel memory {peak} bytes is "
                    f"not out-of-core (>= 1/4 of the {dense}-byte dense "
                    f"footprint)")
    if rec["bench"] == "table1_path_selection":
        max_e1 = float(rec["metrics"]["max_e1"])
        if not max_e1 < PAPER_EPSILON:
            raise ValueError(
                f"table1 regression: max_e1 = {max_e1:.4g} not below "
                f"eps = {PAPER_EPSILON}")
    if rec["bench"] == "fig2_singular_values":
        # Scaling the random sensitivities cannot change rank(A), and it
        # must flatten the decay (Figure 2(b)); at default scale the
        # effective ranks are the ones EXPERIMENTS.md reports.
        met = rec["metrics"]
        if int(met["rank_base"]) != int(met["rank_random_x3"]):
            raise ValueError(
                f"fig2 regression: rank_base = {met['rank_base']} but "
                f"rank_random_x3 = {met['rank_random_x3']} (scaling the "
                f"random columns cannot change rank(A))")
        if not int(met["eff_rank_5_random_x3"]) > int(met["eff_rank_5_base"]):
            raise ValueError(
                f"fig2 regression: eff_rank_5_random_x3 = "
                f"{met['eff_rank_5_random_x3']} not above eff_rank_5_base = "
                f"{met['eff_rank_5_base']}")
        if rec["scale_mode"] == "default":
            for metric, want in FIG2_DEFAULT_EFF_RANK_5.items():
                if int(met[metric]) != want:
                    raise ValueError(f"fig2 regression: {metric} = "
                                     f"{met[metric]} at default scale, "
                                     f"expected {want}")
    if rec["bench"] == "ablation_clustering":
        # Ablation C runs the sharded pipeline at several shard counts: every
        # run must meet the global tolerance after its verify/repair pass,
        # and every sharded selection must predict with MC e1 below eps.
        met = rec["metrics"]
        if not met["all_tolerance_met"]:
            raise ValueError("ablation_clustering regression: a sharded run "
                             "missed the global tolerance after repair")
        max_e1 = float(met["max_sharded_e1"])
        if not max_e1 < PAPER_EPSILON:
            raise ValueError(
                f"ablation_clustering regression: max_sharded_e1 = "
                f"{max_e1:.4g} not below eps = {PAPER_EPSILON}")
    for key in TELEMETRY_KEYS:
        if key not in rec["telemetry"]:
            raise ValueError(f"telemetry missing {key!r}")
    svd_spans = [name for name in rec["telemetry"]["spans"]
                 if name == "linalg.svd" or name.startswith("linalg.svd.")]
    if svd_spans:
        raise ValueError(f"dense SVD in a bench record: spans {svd_spans} "
                         f"(selection and Figure 2 must factor the smaller "
                         f"Gram side)")
    svd_route = int(rec["telemetry"]["counters"].get(
        "core.select.svd_route", 0))
    if svd_route != 0:
        raise ValueError(f"core.select.svd_route = {svd_route}: a "
                         f"selection took the dense SVD route")
    # An enabled run whose snapshot is empty means the registry was reset or
    # never flushed — a broken record, not a quiet one.  Older records lack
    # the flag; fall back to the environment the validator runs under.
    enabled = rec.get("telemetry_enabled",
                      os.environ.get("REPRO_TELEMETRY", "1") != "0")
    if enabled and not any(rec["telemetry"][key] for key in TELEMETRY_KEYS):
        raise ValueError("telemetry_enabled but the snapshot is empty "
                         "(no counters, gauges, or spans)")
    return rec


def main(argv):
    if argv[1:2] == ["--raw"]:
        # Strict-parse arbitrary JSON documents (no bench schema): used by
        # the CI server-smoke job on scraped /metrics responses.  Rejects
        # NaN/Infinity literals, so a non-finite gauge that leaked into the
        # wire format fails the job.
        for path in argv[2:]:
            with open(path) as f:
                strict_load(f)
            print(f"{path}: strict JSON ok")
        if not argv[2:]:
            print("--raw needs at least one file", file=sys.stderr)
            return 1
        return 0
    paths = collect(argv[1:] or ["."])
    if not paths:
        print("no BENCH_*.json records found", file=sys.stderr)
        return 1
    for path in paths:
        try:
            rec = validate(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            return 1
        tele = rec["telemetry"]
        print(
            f"{path}: ok ({rec['bench']}, {len(tele['spans'])} spans, "
            f"{len(tele['counters'])} counters, wall {rec['wall_s']}s)"
        )
    print(f"{len(paths)} record(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
