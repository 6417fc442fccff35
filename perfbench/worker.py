"""One workload run in a fresh interpreter: set-up, timed operations, checks.

run.py starts this script; it is not meant to be run by hand.  It prints
one JSON record as its last line of output.

--mode setup   set up and stop (one set-up time sample)
--mode run     set up, run and check the operations, untraced
--mode trace   the same, with the per-layer tracer on during set-up and
               the operations (never during the checks)

Set-up time runs from --spawned-ns, read from CLOCK_MONOTONIC by the
parent just before it started this interpreter, to the start of the
first timed operation.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_ERRORS = 5  # failures and check errors kept in the record
SL3_MEMOISED = ("weight_multiplicities", "tensor_decompose", "fusion_table")  # lru_cache'd in sl3


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import bpfusion

    if Path(bpfusion.__file__).resolve().parent != SRC / "bpfusion":
        print(f"error: imported bpfusion from {bpfusion.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    import workloads
    from bpfusion import sl3
    from tracer import Tracer

    tracer = Tracer() if args.mode == "trace" else None
    timed = tracer.wrap if tracer else (lambda name, fn: fn)
    workload = workloads.build(args.workload, args.seed, args.ops, timed)
    memoised = {name: getattr(sl3, name) for name in SL3_MEMOISED}
    caches = {name: {"hits": 0, "misses": 0} for name in SL3_MEMOISED}  # while traced

    @contextlib.contextmanager
    def tracing():
        if tracer is None:
            yield
            return
        before = {name: fn.cache_info() for name, fn in memoised.items()}
        try:
            with tracer:
                yield
        finally:
            for name, fn in memoised.items():
                after = fn.cache_info()
                caches[name]["hits"] += after.hits - before[name].hits
                caches[name]["misses"] += after.misses - before[name].misses

    with tracing():
        workload.warm_up()
    setup_s = (now_ns() - args.spawned_ns) / 1e9
    record = {"mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    op_s: list[float] = []
    failures: list[str] = []  # operations that raised; counted, not checked
    errors: list[str] = []  # check failures on the outputs of the others
    clock = time.perf_counter
    for group in workload.groups:
        outputs = []
        for op in group.ops:
            with tracing():
                t0 = clock()
                try:
                    outputs.append(op())
                except Exception:  # a failed operation is counted, not fatal
                    failures.append(traceback.format_exc(limit=3))
                    continue
                finally:
                    dt = clock() - t0
            op_s.append(dt)
        if len(outputs) == len(group.ops):
            errors += group.check(outputs)

    record.update(
        attempted=sum(len(g.ops) for g in workload.groups),
        failed=len(failures),
        failures=failures[:MAX_ERRORS],
        op_s=op_s,
        errors=errors[:MAX_ERRORS],
        n_errors=len(errors),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        record["trace"] = tracer.to_json()
        record["trace"]["sl3_caches"] = caches
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
