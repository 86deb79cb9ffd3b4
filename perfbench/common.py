"""Shared shapes for the workloads: an operation, a round of operations,
the seeded shuffle of a round, and the in-process command line."""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import splitinv.cli as cli


def _same(out: Any) -> Any:
    return out


@dataclass
class Op:
    """One timed call into splitinv.

    ``run`` is the timed call.  ``check`` validates its output outside the
    timed section and returns an error message, or None when the output is
    right.  ``key`` turns an output into a value that compares with ``==``;
    later rounds repeat the same inputs, so their outputs must have the key
    of the checked first round.  An exception whose type is in
    ``known_fault`` counts the operation as failed; any other exception is
    an error of the run.  ``work`` names the calibration kernel its time is
    scaled by: "object", or "arith" for tight integer arithmetic.
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    key: Callable[[Any], Any] = _same
    known_fault: Tuple[type, ...] = ()
    work: str = "object"


@dataclass
class Workload:
    """One round of operations, and the untimed warm-up calls made during
    set-up: one per kind of operation, by default the first of the round."""

    name: str
    ops: List[Op]                       # one round, in execution order
    warmup: Optional[List[Op]] = None

    def __post_init__(self):
        if self.warmup is None:
            firsts = {}
            for op in self.ops:
                firsts.setdefault(op.kind, op)
            self.warmup = list(firsts.values())


def interleave(groups: List[List[Op]], rng: random.Random) -> List[Op]:
    """Shuffle the operations of a round with the workload's generator."""
    ops = [op for g in groups for op in g]
    rng.shuffle(ops)
    return ops


def run_cli(argv: List[str]) -> Tuple[int, str, str]:
    """splitinv.cli.main in process: (exit code, standard output, standard error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()
