"""The unit a workload is made of: one timed call and the check of its answer."""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
OK = "ok"
FAILED = "failed"


def child_env() -> dict:
    """Environment for a Python child that must import this checkout's cantorkit."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@dataclass
class Op:
    """One operation of a workload round.

    `run` makes the call and returns its output. `check` returns OK, FAILED
    (the program did not answer: an escaped exception, a wrong exit code)
    or any other string, which says why the answer is wrong. `size` gives
    the bytes of text, JSON and SVG the output holds. Operations with the
    same `request` make one request, whose time is the sum of theirs; by
    default each operation is a request of its own.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    size: Callable[[Any], int] = lambda out: 0
    request: Any = None


def text_size(out: Any) -> int:
    return len(out.encode()) if isinstance(out, str) else 0


def frac_text(x: Fraction) -> str:
    """num/den in lowest terms, as cantorkit prints fractions."""
    return f"{x.numerator}/{x.denominator}"
