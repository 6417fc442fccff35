"""Per-layer call counts and times, taken from outside the library.

The tracer replaces a bpfusion function by a timing wrapper in every
bpfusion module namespace that holds it, so calls made through that
name (the library's own calls included) are counted.  Methods are
wrapped on their class.  Everything is restored on exit, and nothing
under ``src/`` changes.

For each traced name the tracer keeps the number of calls, the
inclusive time of its outermost calls (recursion is not counted twice),
its self time (time not spent in other traced calls) and, where asked
for, the number of items the calls returned.  Self time is also summed
per layer, the first dotted part of the name.
"""
from __future__ import annotations

import functools
import sys
import time

# metric name -> (defining module, attribute); "Class.method" patches the class
TARGETS = {
    "levels.orbit_of": ("bpfusion.levels", "orbit_of"),
    "sl3.kac_walton": ("bpfusion.sl3", "kac_walton"),
    "sl3.fusion_table": ("bpfusion.sl3", "fusion_table"),
    "w3modular.smatrix_build": ("bpfusion.w3modular", "W3SMatrix.__init__"),
    "w3modular.entry": ("bpfusion.w3modular", "W3SMatrix.entry"),
    "w3modular.smatrix_entry": ("bpfusion.w3modular", "w3_smatrix_entry"),
    "w3modular.w3_fusion": ("bpfusion.w3modular", "w3_fusion"),
    "w3modular.w3_fusion_with_label": ("bpfusion.w3modular", "w3_fusion_with_label"),
    "w3modular.w3_verlinde": ("bpfusion.w3modular", "w3_verlinde"),
    "labels.resolution": ("bpfusion.labels", "resolution"),
    "labels.rewrite_gaps": ("bpfusion.labels", "rewrite_gaps"),
    "verlinde.fuse_standard": ("bpfusion.verlinde", "fuse_standard"),
    "verlinde.fuse_general": ("bpfusion.verlinde", "fuse_general"),
    "verlinde.oracle": ("bpfusion.verlinde", "verlinde_oracle"),
    "cli.parse": ("bpfusion.cli", "build_parser"),
    "cli.emit": ("bpfusion.cli", "_emit"),
}

# names whose calls also count the items (terms) they return
COUNT_ITEMS = {"labels.resolution"}

# names left unwrapped in their own module: sl3 calls fusion_table only from
# kac_walton, which is traced, and a second wrapper on each of those calls
# would add its cost to sl3's self time; cache_info() counts the lookups
OUTSIDE_ONLY = {"sl3.fusion_table"}


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.items = 0


class Tracer:
    """Wraps the TARGETS while active; accumulates across activations."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.layer_self: dict[str, float] = {}
        self._stack: list[float] = []  # child time of each open traced call
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """A timing wrapper around fn that records under `name`."""
        stat = self.stats.setdefault(name, Stat())
        layer = name.split(".", 1)[0]
        self.layer_self.setdefault(layer, 0.0)
        layer_self = self.layer_self
        stack = self._stack
        depth = [0]
        count_items = name in COUNT_ITEMS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                own = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.self_s += own
                layer_self[layer] += own
                if depth[0] == 0:
                    stat.incl_s += dt
            if count_items:
                stat.items += len(result)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "bpfusion"]
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._parse_wrapper(name, original) if name == "cli.parse" else self.wrap(name, original)
            for module in modules:
                if name in OUTSIDE_ONLY and module is owner:
                    continue
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        return self

    def _parse_wrapper(self, name, build_parser):
        # argument parsing is building the parser plus parse_args on it
        timed_build = self.wrap(name, build_parser)

        def traced_build_parser():
            parser = timed_build()
            parser.parse_args = self.wrap(name, parser.parse_args)
            return parser

        return traced_build_parser

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def to_json(self) -> dict:
        return {
            "names": {
                name: {"calls": s.calls, "incl_s": s.incl_s, "self_s": s.self_s, "items": s.items}
                for name, s in sorted(self.stats.items())
            },
            "layer_self_s": dict(sorted(self.layer_self.items())),
        }
