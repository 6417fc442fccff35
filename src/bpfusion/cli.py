"""Command-line front end: label algebra, S-matrices, fusion, verification."""
from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import verify as verify_mod
from .labels import (
    HWLabel,
    StandardLabel,
    gap_charges,
    orbit_type,
    parse_label,
    resolution,
)
from .levels import (
    LabelError,
    LevelParams,
    OrbitClass,
    RSLabel,
    enumerate_infwts,
    enumerate_surv,
    hw_data,
    level_params,
    orbit_of,
    w3_data,
)
from .verlinde import (
    NotStabilisedError,
    OracleError,
    fuse,
    simple_currents,
    standard_kernel,
    type3_kernel,
)
from .w3modular import DEFAULT_TOL, W3SMatrix

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2


class ToleranceError(ValueError):
    """A numerical tolerance that is not a finite number > 0."""


def parse_tol(text: str, source: str) -> float:
    """The tolerance given as `text` by `source` (--tol or BPFUSION_TOL)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ToleranceError(f"{source} must be a finite number > 0, got {text!r}")
    return tol


def _complex_rows(m: np.ndarray) -> list:
    """A complex matrix as rows of {"re", "im"} dicts of Python floats."""
    return [[{"re": x, "im": y} for x, y in zip(re, im)] for re, im in zip(m.real.tolist(), m.imag.tolist())]


def _json_text(o, level: int = 0) -> str:
    """The text of `json.dumps(o, indent=2)`, byte for byte, for a tree of
    dicts with str keys, lists, tuples, str, int, float, bool and None, and
    of 2-D complex ndarrays as their `_complex_rows`.  On Python 3.11
    `indent` turns off json's C encoder, so this writer does json's work."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    pad, inner = "\n" + "  " * level, "\n" + "  " * (level + 1)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join(_json_text(x, level + 1) for x in o) + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        fields = []
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            fields.append(encode_basestring_ascii(key) + ": " + _json_text(value, level + 1))
        return "{" + inner + ("," + inner).join(fields) + pad + "}"
    if isinstance(o, np.ndarray) and o.ndim == 2 and o.dtype == complex:
        if not (o.size and np.isfinite(o).all()):
            return _json_text(_complex_rows(o), level)
        # one float.__repr__ per distinct bit pattern (keyed on the bits, as -0.0 == 0.0
        # and the two hash alike, yet json spells them apart) and one % per row
        bits, inverse = np.unique(np.ascontiguousarray(o).view(np.int64), return_inverse=True)
        reprs = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
        item = inner + "  {" + inner + '    "re": %s,' + inner + '    "im": %s' + inner + "  }"
        row = "[" + ",".join([item] * o.shape[1]) + inner + "]"
        rows = [row % tuple(texts) for texts in reprs[inverse.reshape(len(o), -1)].tolist()]
        return "[" + inner + ("," + inner).join(rows) + pad + "]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(args, payload):
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(_json_text(payload) + "\n")
        return
    if args.table:
        _print_table(payload)
    else:
        print(_json_text(payload))


def _print_table(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, np.ndarray):
        payload = _complex_rows(payload)
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list, np.ndarray)):
                print(f"{pad}{key}:")
                _print_table(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            _print_table(value, indent)
            if isinstance(value, dict):
                print()
    else:
        print(f"{pad}{payload}")


def cmd_list_modules(params: LevelParams, args) -> dict:
    rows = []
    for lab in enumerate_surv(params):
        data = hw_data(params, lab)
        rows.append(
            {
                "label": str(lab),
                "j": str(data.j),
                "delta": str(data.delta),
                "type": orbit_type(params, lab),
            }
        )
    families = []
    for orb in enumerate_infwts(params):
        wd = w3_data(params, orb)
        families.append(
            {
                "orbit": str(orb),
                "w3_delta": str(wd.delta),
                "gap_charges": sorted(str(j) for j in gap_charges(params, orb)),
            }
        )
    return {
        "u": params.u,
        "v": params.v,
        "k": str(params.k),
        "c_bp": str(params.c_bp),
        "highest_weight": rows,
        "standard_families": families,
    }


def cmd_orbit(params: LevelParams, args) -> dict:
    label = parse_label(params, args.labels[0])
    if isinstance(label, RSLabel):
        orb = orbit_of(params, label)
    elif isinstance(label, OrbitClass):
        orb = label
    else:
        raise LabelError("orbit expects a weight label or orbit string")
    wd = w3_data(params, orb)
    return {
        "orbit": str(orb),
        "members": [str(m) for m in orb.members],
        "w3_delta": str(wd.delta),
        "w3_w_rational": str(wd.w_rational),
        "w3_w": wd.w_float(params),
    }


def cmd_smatrix_w3(params: LevelParams, args) -> dict:
    smat = W3SMatrix(params)
    return {"orbits": [str(orb) for orb in smat.orbits], "entries": smat.matrix}


def cmd_kernel_bp(params: LevelParams, args) -> dict:
    a = parse_label(params, args.labels[0])
    b = parse_label(params, args.labels[1])
    if not isinstance(b, StandardLabel):
        raise LabelError("the second kernel argument must be a standard label")
    if isinstance(a, StandardLabel):
        entry = standard_kernel(params, a, b)
        kind = "standard"
    elif isinstance(a, HWLabel):
        entry = type3_kernel(params, a, b)
        kind = "type3"
    else:
        raise LabelError("the first kernel argument must be standard or highest-weight")
    return {
        "kind": kind,
        "a": str(a),
        "b": str(b),
        "value": {"re": entry.value.real, "im": entry.value.imag},
        "w3_factor": {"re": entry.w3_factor.real, "im": entry.w3_factor.imag},
        "phase_exponent": str(entry.phase_exponent),
        "denominator": None if entry.denominator is None else entry.denominator.real,
    }


def cmd_fuse(params: LevelParams, args) -> dict:
    a = parse_label(params, args.labels[0])
    b = parse_label(params, args.labels[1])
    product = fuse(params, a, b)
    return {"lhs": str(a), "rhs": str(b), "result": product.to_json()}


def cmd_resolve(params: LevelParams, args) -> dict:
    label = parse_label(params, args.labels[0])
    if isinstance(label, RSLabel):
        label = parse_label(params, f"I{args.labels[0]}")
    if not isinstance(label, HWLabel):
        raise LabelError("resolve expects a highest-weight label")
    depth = 9 * params.v if args.depth is None else args.depth
    res = resolution(params, label, depth)
    return {"label": str(label), "depth": depth, "terms": res.to_json()}


def cmd_simple_currents(params: LevelParams, args) -> dict:
    currents = simple_currents(params)
    payload = {
        "currents": [
            {"label": str(lab), "j": str(j), "delta": str(delta)} for lab, j, delta in currents
        ]
    }
    if not currents:
        payload["note"] = "u = 3: both candidates collapse onto the vacuum orbit"
    return payload


def cmd_verify(params: LevelParams, args) -> dict:
    text, source = (args.tol, "--tol") if args.tol is not None else (os.environ.get("BPFUSION_TOL"), "BPFUSION_TOL")
    tol = DEFAULT_TOL if text is None else parse_tol(text, source)
    names = [args.suite] if args.suite else sorted(verify_mod.SUITES)
    results = {}
    ok = True
    for name in names:
        if name not in verify_mod.SUITES:
            raise LabelError(f"unknown suite {name!r}; choose from {sorted(verify_mod.SUITES)}")
        passed, detail = verify_mod.SUITES[name](params, tol)
        results[name] = {"pass": passed, "detail": detail}
        ok = ok and passed
    return {"ok": ok, "suites": results}


COMMANDS = {
    "list-modules": (cmd_list_modules, 0),
    "orbit": (cmd_orbit, 1),
    "smatrix-w3": (cmd_smatrix_w3, 0),
    "kernel-bp": (cmd_kernel_bp, 2),
    "fuse": (cmd_fuse, 2),
    "resolve": (cmd_resolve, 1),
    "simple-currents": (cmd_simple_currents, 0),
    "verify": (cmd_verify, 0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bpfusion")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, nlabels) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("u", type=int)
        p.add_argument("v", type=int)
        if nlabels:
            p.add_argument("labels", nargs=nlabels, metavar="LABEL")
        p.add_argument("--table", action="store_true")
        p.add_argument("--out", default=None)
        if name == "resolve":
            p.add_argument("--depth", type=int, default=None, help="cut this many flows above the label (default 9v)")
        if name == "verify":
            p.add_argument("--tol", default=None)
            p.add_argument("--suite", default=None)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """`build_parser`'s parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 for verification failures only
        return EXIT_DOMAIN if exc.code not in (0, None) else EXIT_OK
    handler, _ = COMMANDS[args.command]
    try:
        params = level_params(args.u, args.v)
        payload = handler(params, args)
        _emit(args, payload)
    except (ValueError, ZeroDivisionError, NotStabilisedError, OSError) as exc:
        # AdmissibilityError, LabelError, GapDivergenceError and ToleranceError
        # land here, and an --out file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OracleError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if args.command == "verify" and not payload["ok"]:
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
