"""Spans around calls into cantorkit's public functions, placed from outside.

`Tracer.install` replaces each traced function with a wrapper in every
cantorkit module whose namespace holds it, so calls between modules (cli
to constructions, render to constructions, constructions to exact) are
seen where the caller looks the name up. A wrapper records a span (name,
start, end, parent, round) in memory and may count something about the
call's result; the spans are written out when the run ends. A layer's self
time is the duration of its spans minus the time of their child spans.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import oracle

# Per-layer time metrics and the public functions whose self time they sum.
LAYER_TIMES = {
    "exact.normalize_s": ("union_normalize",),
    "constructions.next_stage_s": ("next_stage",),
    "constructions.limit_membership_s": ("limit_membership",),
    "constructions.stage_membership_s": ("stage_membership",),
    "analysis.census_s": ("scale_census",),
    "analysis.automaton_s": ("expansion_membership", "allowed_expansion", "cantor_function"),
    "analysis.charcheck_s": ("characterization_equivalence_check",),
    "render.render_s": ("render_svg",),
    "spec_io.parse_s": ("parse_spec", "parse_fraction"),
    "spec_io.format_s": ("fraction_str", "emit_spec"),
    "cli.format_s": ("cmd_construct", "cmd_analyze", "cmd_member", "cmd_render", "cmd_cantorfun"),
}
# Traced for the structure of the trace only.
STRUCTURE = ("iterate",)


def _count_stage(counts, args, stage) -> None:
    counts["components"] += len(stage.intervals)
    bits = max((e.denominator.bit_length() for iv in stage.intervals for e in (iv.lo, iv.hi)),
               default=0)
    counts["max_den_bits"] = max(counts["max_den_bits"], bits)


def _count_normalize(counts, args, result) -> None:
    counts["normalize_calls"] += 1


def _count_verdict(counts, args, verdict) -> None:
    counts["queries"] += 1
    depth = getattr(verdict, "depth", None)
    # A cycle verdict carries no depth; it adds its cycle length.
    counts["walk_steps"] += verdict.cycle_length if depth is None else depth
    counts["decided"] += type(verdict).__name__ != "UndecidedMemberToDepth"


def _count_census(counts, args, census) -> None:
    counts["census_components"] += len(args[0].intervals)
    counts["census_entries"] += len(census)


def _count_render(counts, args, svg) -> None:
    rows, rects = oracle.svg_rows(svg)
    counts["rects"] += rects
    counts["painted_spans"] += sum(len(row) for row in rows)


HOOKS = {
    "next_stage": _count_stage,
    "union_normalize": _count_normalize,
    "limit_membership": _count_verdict,
    "scale_census": _count_census,
    "render_svg": _count_render,
}


class Tracer:
    """Collects spans and per-round counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.round = -1  # -1 is the set-up, then 0, 1, ... for the rounds
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        self._patched: list = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.round])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self.counts[self.round], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a cantorkit module holds it."""
        import cantorkit
        import cantorkit.cli
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cantorkit" or n.startswith("cantorkit.")]
        for name in STRUCTURE + tuple(n for names in LAYER_TIMES.values() for n in names):
            fn = getattr(cantorkit, name, None) or getattr(cantorkit.cli, name, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                if module.__dict__.get(name) is fn:
                    self._patched.append((module, name, fn))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def self_times(self) -> dict[tuple[int, str], float]:
        """Self time summed by (round, span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, rnd) in enumerate(self.spans):
            out[(rnd, name)] += end - start - child[i]
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures, with units, for one set-up plus one round (median over rounds)."""
        selfs = self.self_times()
        rounds = sorted({s[4] for s in self.spans if s[4] >= 0})

        def per_run(value_of) -> float:
            return value_of(-1) + (statistics.median(value_of(r) for r in rounds) if rounds else 0)

        out = {metric: (per_run(lambda r, names=names: sum(selfs[(r, n)] for n in names)), "s")
               for metric, names in LAYER_TIMES.items()}
        c = {key: per_run(lambda r, key=key: self.counts[r][key])
             for key in ("normalize_calls", "components", "walk_steps", "queries", "decided",
                         "census_components", "census_entries", "rects", "painted_spans")}

        def ratio(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0

        out.update({
            "exact.normalize_calls": (c["normalize_calls"], "count"),
            "exact.max_den_bits": (
                max((v["max_den_bits"] for v in self.counts.values()), default=0), "bits"),
            "constructions.components_emitted": (c["components"], "count"),
            "constructions.walk_steps": (c["walk_steps"], "count"),
            "constructions.decided_ratio": (ratio("decided", "queries"), "ratio"),
            "analysis.census_components_per_entry": (
                ratio("census_components", "census_entries"), "ratio"),
            "render.rects_emitted": (c["rects"], "count"),
            "render.rects_per_painted_span": (ratio("rects", "painted_spans"), "ratio"),
        })
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
