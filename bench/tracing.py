"""Spans and work counters around fparray's layers, patched in from outside.

Nothing in the package changes.  `Tracer.install` wraps each public
function of the layer modules, and because `from .x import y` binds a
copy, it replaces every module-level name in the package that refers to
the same function object.  A span records name, start, end and the span
it ran inside; spans stay in memory until `write`.  A span's self time is
its duration minus its child spans' durations (children of one span run
one after another, so their durations do not overlap).  Generator
functions are not wrapped: a span would end before their work is done.

Three counters are not spans:

- `gf.mul_calls` / `gf.add_calls` come from class-level wrappers on
  `FiniteField.mul_val` / `add_val` that count calls and take no time
  stamps (there are millions of them).
- `bounds.search.nodes` is the search's own node count, one per call of
  its inner `expand`.  It is read from the finished `exact_max_size`
  frame's local `state`.  The frame is caught by a one-shot
  `sys.settrace` hook that removes itself at the first call event, so
  the search itself runs untraced: a hook left on for the whole search
  doubles its time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from pathlib import Path

# layer name used in metric names -> module
LAYERS = {
    "core": "fparray.core",
    "gf": "fparray.gf",
    "constructions": "fparray.constructions",
    "combinators": "fparray.combinators",
    "bounds": "fparray.bounds",
    "cli.formats": "fparray.cli.formats",
    "cli": "fparray.cli",
}

# Spans of these functions form their own group; others count to their layer.
GROUPS = {
    "bounds.exact_max_size": "bounds.search",
    "bounds.bounds_report": "bounds.report",
    "bounds.sphere_volume": "bounds.volume",
    "bounds.gv_lower": "bounds.volume",
    "bounds.hamming_upper": "bounds.volume",
    "bounds.multiset_derangements": "bounds.volume",
    "bounds.partition_terms": "bounds.volume",
    "bounds.laguerre": "bounds.volume",
    "gf.census_permutation_polynomials": "gf.census",
    "gf.is_permutation_polynomial": "gf.census",
    "gf.LinearizedPolynomial.value_table": "gf.value_table",
    "gf.associate_matrix": "gf.associate_matrix",
    "core.verify": "core.verify",
    "cli.main": "cli.main",
}


def group_of(name: str) -> str:
    if name in GROUPS:
        return GROUPS[name]
    layer, _, func = name.rpartition(".")
    if layer == "cli.formats":
        return "cli.formats.parse" if func.startswith("parse_") else "cli.formats.write"
    if layer == "constructions":
        return "constructions.build"
    if func == "__post_init__":
        return "constructions.validate"
    return layer


class Tracer:
    """Patches the package, records spans and counters, and restores it."""

    def __init__(self) -> None:
        # span: [name, group, start, end, parent index, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.mul_calls = 0
        self.add_calls = 0
        self.nodes = 0
        self._search_frame: types.FrameType | None = None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer, modname in LAYERS.items():
            for attr, obj in vars(sys.modules[modname]).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != modname or inspect.isgeneratorfunction(obj):
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname == "fparray" or modname.startswith("fparray."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        self._patch(module, attr, wrappers[id(obj)])

        gf = sys.modules["fparray.gf"]
        linpoly = gf.LinearizedPolynomial
        self._patch(linpoly, "value_table",
                    self._wrap(linpoly.value_table, "gf.LinearizedPolynomial.value_table"))
        constructions = sys.modules["fparray.constructions"]
        for cls in list(vars(constructions).values()):
            if (isinstance(cls, type) and cls.__module__ == constructions.__name__
                    and "__post_init__" in vars(cls)):
                name = f"constructions.{cls.__name__}.__post_init__"
                self._patch(cls, "__post_init__", self._wrap(cls.__post_init__, name))

        mul, add = gf.FiniteField.mul_val, gf.FiniteField.add_val

        def mul_val(field, a, b):
            self.mul_calls += 1
            return mul(field, a, b)

        def add_val(field, a, b):
            self.add_calls += 1
            return add(field, a, b)

        self._patch(gf.FiniteField, "mul_val", mul_val)
        self._patch(gf.FiniteField, "add_val", add_val)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        group = group_of(name)
        spans, stack = self.spans, self._stack
        count_nodes = name == "bounds.exact_max_size"
        signature = inspect.signature(fn) if group in ("bounds.search", "bounds.report") else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, group, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if count_nodes:
                previous = sys.gettrace()
                sys.settrace(self._catch_frame)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                if count_nodes:
                    sys.settrace(previous)
                    self._count_nodes()
                stack.pop()
            span[5] = _info(group, name, signature, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _catch_frame(self, frame, event, arg):
        self._search_frame = frame
        sys.settrace(None)

    def _count_nodes(self) -> None:
        frame, self._search_frame = self._search_frame, None
        state = frame.f_locals.get("state") if frame is not None else None
        if isinstance(state, dict):
            self.nodes += state.get("nodes", 0)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per group: span durations minus their children's."""
        spans = self.spans
        out: dict[str, float] = {}
        for name, group, start, end, parent, info in spans:
            out[group] = out.get(group, 0.0) + (end - start)
            if parent >= 0:
                parent_group = spans[parent][1]
                out[parent_group] -= end - start
        return out

    def metrics(self, setup_probe_s: float, traced_wall: float, untraced_wall: float) -> dict:
        spans = self.spans
        selfs = self.self_times()

        def of(group):
            return [s for s in spans if s[1] == group and s[5] is not None]

        def outermost(group):
            return [s for s in of(group) if s[4] < 0 or spans[s[4]][1] != group]

        def duration(group_spans):
            return sum(s[3] - s[2] for s in group_spans)

        searches = of("bounds.search")
        chain = [
            s for s in searches
            if s[5]["lam"] == 1 and s[4] >= 0 and spans[s[4]][1] == "bounds.report"
            and spans[s[4]][5] is not None and spans[s[4]][5]["lam"] > 1
        ]
        census = {i for i, s in enumerate(spans) if s[0] == "gf.census_permutation_polynomials"}
        candidates = sum(1 for s in spans if s[0] == "gf.is_permutation_polynomial" and s[4] in census)
        hits = sum(spans[i][5] or 0 for i in census)
        verifies = of("core.verify")
        parses, writes = outermost("cli.formats.parse"), outermost("cli.formats.write")
        return {
            "bounds.search.self_s": selfs.get("bounds.search", 0.0),
            "bounds.search.nodes": self.nodes,
            "bounds.search.proven_frac": (
                sum(s[5]["proven"] for s in searches) / len(searches) if searches else 0.0
            ),
            "bounds.search.setup_s": setup_probe_s,
            "bounds.report.chain_s": duration(chain),
            "bounds.volume.self_s": selfs.get("bounds.volume", 0.0),
            "bounds.volume.calls": sum(1 for s in spans if s[0] == "bounds.sphere_volume"),
            "gf.mul_calls": self.mul_calls,
            "gf.add_calls": self.add_calls,
            "gf.census.self_s": selfs.get("gf.census", 0.0),
            "gf.census.candidates": candidates,
            "gf.census.hit_frac": hits / candidates if candidates else 0.0,
            "gf.value_table.self_s": selfs.get("gf.value_table", 0.0),
            "gf.associate_matrix.self_s": selfs.get("gf.associate_matrix", 0.0),
            "constructions.build.self_s": selfs.get("constructions.build", 0.0),
            "constructions.validate.self_s": selfs.get("constructions.validate", 0.0),
            "constructions.rows_out": sum(s[5] for s in outermost("constructions.build")),
            "core.verify.self_s": selfs.get("core.verify", 0.0),
            "core.verify.calls": len(verifies),
            "core.verify.pairs": sum(s[5] for s in verifies),
            "combinators.self_s": selfs.get("combinators", 0.0),
            "combinators.rows_out": sum(s[5] for s in outermost("combinators")),
            "cli.formats.parse_s": duration(parses),
            "cli.formats.write_s": duration(writes),
            "cli.formats.bytes_in": sum(s[5] for s in parses),
            "cli.formats.bytes_out": sum(s[5] for s in writes),
            "cli.main.self_s": selfs.get("cli.main", 0.0),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }

    def search_calls(self) -> list[dict]:
        """Keyword arguments of every `exact_max_size` call that returned."""
        return [s[5]["call"] for s in self.spans if s[1] == "bounds.search" and s[5] is not None]

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for name, group, start, end, parent, info in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")


def _info(group, name, signature, args, kwargs, result):
    """The per-span numbers the metrics need, read from arguments and results."""
    if group == "bounds.search":
        arguments = dict(signature.bind(*args, **kwargs).arguments)
        return {"lam": arguments["lam"], "proven": bool(result.proven), "call": arguments}
    if group == "bounds.report":
        return {"lam": signature.bind(*args, **kwargs).arguments["lam"]}
    if group in ("constructions.build", "combinators"):
        fpa = sys.modules["fparray.core"].FrequencyPermutationArray
        return result.size if isinstance(result, fpa) else 0
    if group == "cli.formats.parse":
        return len(args[0])
    if group == "cli.formats.write":
        return len(result)
    if group == "core.verify":
        return args[0].size * (args[0].size - 1) // 2
    if name == "gf.census_permutation_polynomials":
        return result.total
    return 0
