"""bpfusion benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (fuse-resolution, verify-modular or smatrix-cli; see
README.md) in fresh interpreters, checks every output, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ones.  The line before it is a diagnostics record, and the
whole run record is written under perfbench/out/.

The amount of work is fixed by --seconds and the workload's nominal
cost per operation, never by the clock, so every run of the same
arguments does the same operations however fast the host is.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# seconds per operation on the reference host (README); sets the work per run
NOMINAL_OP_S = {
    "fuse-resolution": 0.18,
    "verify-modular": 2.3,
    "smatrix-cli": 0.9,
}
# set-up-only interpreters before and after the timed one in an untraced run;
# setup_s is the median of these and the timed interpreter's own set-up.  They
# bracket the run because the host's speed holds for seconds at a time, so
# samples taken back to back would all see one moment of it
SETUP_SAMPLES_EACH_SIDE = 3
DEADLINE_S = 170.0  # the whole run, all interpreters together

# settings every worker interpreter gets, so runs do not depend on the caller's shell
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONPATH": str(ROOT / "src"),
}


class RunError(RuntimeError):
    pass


def host_reference_ms() -> float:
    """A fixed pure-Python Fraction loop; its time tracks the host's speed."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 20001):
        x += Fraction(1, i % 97 + 1)
    return (time.perf_counter() - t0) * 1000


def spawn(workload: str, seed: int, n_ops: int, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BPFUSION_TOL"}
    env.update(WORKER_ENV)
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--ops", str(n_ops),
        "--mode", mode, "--spawned-ns", str(spawned),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the next interpreter")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise RunError(f"{mode} worker did not finish within the run's {DEADLINE_S:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(work: dict, setups: list[float]) -> dict:
    op_s = work["op_s"]
    if not op_s:
        raise RunError(f"all {work['attempted']} operations failed:\n{work['failures'][0]}")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(op_s) / sum(op_s), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(op_s) * 1000, "unit": "ms"},
        "op_p90_ms": {"value": quantile(op_s, 90) * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": work["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(trace: dict, overhead_s: float) -> dict:
    names = trace["names"]

    def stat(name, key):
        return names.get(name, {}).get(key, 0)

    cache = trace["sl3_caches"]["fusion_table"]
    lookups = cache["hits"] + cache["misses"]
    metrics = {
        "levels.orbit_of.calls": (stat("levels.orbit_of", "calls"), "count"),
        "levels.orbit_of_s": (stat("levels.orbit_of", "incl_s"), "s"),
        "sl3.kac_walton.calls": (stat("sl3.kac_walton", "calls"), "count"),
        "sl3.fusion_table.lookups": (lookups, "count"),
        "sl3.fusion_table.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "sl3.self_s": (trace["layer_self_s"].get("sl3", 0.0), "s"),
        "w3modular.smatrix_builds": (stat("w3modular.smatrix_build", "calls"), "count"),
        "w3modular.smatrix_build_s": (stat("w3modular.smatrix_build", "incl_s"), "s"),
        "w3modular.smatrix_entry.calls": (stat("w3modular.smatrix_entry", "calls"), "count"),
        "w3modular.entry.calls": (stat("w3modular.entry", "calls"), "count"),
        "w3modular.entry_s": (stat("w3modular.entry", "incl_s"), "s"),
        "w3modular.w3_verlinde_s": (stat("w3modular.w3_verlinde", "incl_s"), "s"),
        "w3modular.w3_fusion.calls": (stat("w3modular.w3_fusion", "calls"), "count"),
        "w3modular.w3_fusion_s": (stat("w3modular.w3_fusion", "incl_s"), "s"),
        "labels.resolution.calls": (stat("labels.resolution", "calls"), "count"),
        "labels.resolution.terms": (stat("labels.resolution", "items"), "count"),
        "labels.resolution_s": (stat("labels.resolution", "incl_s"), "s"),
        "labels.rewrite_gaps_s": (stat("labels.rewrite_gaps", "incl_s"), "s"),
        "verlinde.fuse_standard.calls": (stat("verlinde.fuse_standard", "calls"), "count"),
        "verlinde.fuse_standard_s": (stat("verlinde.fuse_standard", "self_s"), "s"),
        "verlinde.fuse_general_s": (stat("verlinde.fuse_general", "self_s"), "s"),
        "verlinde.oracle.calls": (stat("verlinde.oracle", "calls"), "count"),
        "verlinde.oracle_s": (stat("verlinde.oracle", "incl_s"), "s"),
        "verify.w3-unitarity_s": (stat("verify.w3-unitarity", "incl_s"), "s"),
        "verify.w3-sigma-phase_s": (stat("verify.w3-sigma-phase", "incl_s"), "s"),
        "verify.w3-verlinde_s": (stat("verify.w3-verlinde", "incl_s"), "s"),
        "verify.fusion-oracle_s": (stat("verify.fusion-oracle", "incl_s"), "s"),
        "cli.parse_s": (stat("cli.parse", "incl_s"), "s"),
        "cli.emit_s": (stat("cli.emit", "incl_s"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    n_ops = max(1, round(seconds / NOMINAL_OP_S[workload]))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    record["host_ref_ms_before"] = host_reference_ms()
    if trace:
        work = spawn(workload, seed, n_ops, "run", deadline)
        traced = spawn(workload, seed, n_ops, "trace", deadline)
        workers = [work, traced]
        overhead_s = sum(traced["op_s"]) - sum(work["op_s"])
        metrics = per_layer(traced["trace"], overhead_s)
        record["trace_stats"] = traced["trace"]
    else:
        def setup_samples():
            return [spawn(workload, seed, n_ops, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES_EACH_SIDE)]

        setups = setup_samples()
        work = spawn(workload, seed, n_ops, "run", deadline)
        setups += [work["setup_s"]] + setup_samples()
        workers = [work]
        metrics = end_to_end(work, setups)
        record["setup_samples_s"] = setups
    record["host_ref_ms_after"] = host_reference_ms()
    record.update(
        op_s=work["op_s"],
        timed_s=sum(work["op_s"]),
        failures=[e for w in workers for e in w["failures"]],
        check_errors=[e for w in workers for e in w["errors"]],
    )
    result = {
        "correct": all(w["n_errors"] == 0 for w in workers),
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": metrics,
    }
    record["result"] = result
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_OP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bpfusion" / "__init__.py").is_file():
        print(f"error: no bpfusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    diagnostics = {
        key: record[key]
        for key in ("host_ref_ms_before", "host_ref_ms_after", "timed_s", "setup_samples_s")
        if key in record
    }
    for error in record["check_errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print("diagnostics " + json.dumps(diagnostics))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
