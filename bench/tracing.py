"""Spans around calls into dkinv's public functions, recorded from outside.

The program has no tracing of its own, so ``Tracer.patched()`` rebinds each
traced function to a timing wrapper for the duration of one command call:
module-level functions in every ``dkinv`` module namespace that holds them
(``from .linalg import mat_exp`` copies the name), methods on their class.
Every span records its function, start, end and parent.  The span stack is
thread-local because ``recover`` samples on a thread pool; a span that opens
on a worker thread with an empty stack is parented to the innermost span open
on the thread that started the command, which is blocked waiting for it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

# (metric prefix, module, attribute): "Class.method" names a method,
# "Class.__init__" times construction.
TRACED = [
    ("linalg.mat_exp", "dkinv.linalg", "mat_exp"),
    ("linalg.solve", "dkinv.linalg", "solve"),
    ("linalg.spectral_norm", "dkinv.linalg", "spectral_norm"),
    ("kernels.edge_profile", "dkinv.kernels", "Realization.edge_profile"),
    ("kernels.integrated_kernel", "dkinv.kernels", "Realization.integrated_kernel"),
    ("kernels.require_identity", "dkinv.kernels", "Realization.require_identity"),
    ("inversion.FundamentalSolution", "dkinv.inversion", "FundamentalSolution.__init__"),
    ("inversion.branch_projector", "dkinv.inversion", "branch_projector"),
    ("inversion.left_row", "dkinv.inversion", "FundamentalSolution.left_row"),
    ("inversion.right_col", "dkinv.inversion", "FundamentalSolution.right_col"),
    ("inversion.block_values", "dkinv.inversion", "InverseKernel.block_values"),
    ("inversion.value", "dkinv.inversion", "FundamentalSolution.value"),
    ("canonical.recover_hamiltonian", "dkinv.canonical", "recover_hamiltonian"),
    ("canonical.hamiltonian_factor", "dkinv.canonical", "hamiltonian_factor"),
    ("canonical.apply_triangular_adjoint", "dkinv.canonical", "apply_triangular_adjoint"),
    ("canonical.recovery_correction", "dkinv.canonical", "recovery_correction"),
    ("canonical.weyl_value", "dkinv.canonical", "weyl_value"),
    ("canonical.similarity_factor", "dkinv.canonical", "similarity_factor"),
    ("discretization.discretize_operator", "dkinv.discretization", "discretize_operator"),
    ("discretization.discretize_inverse", "dkinv.discretization", "discretize_inverse"),
    ("discretization.profile_samples", "dkinv.discretization", "profile_samples"),
    ("discretization.discrete_matrizant", "dkinv.discretization", "discrete_matrizant"),
    ("discretization.positivity_spectrum", "dkinv.discretization", "positivity_spectrum"),
    ("cli.parse_config", "dkinv.cli", "parse_config"),
]
ROOT = "cli.main"
NAMES = [ROOT] + [name for name, _, _ in TRACED]


class Tracer:
    """In-memory span recorder; ``spans`` maps span id to [name id, t0, t1, parent]."""

    def __init__(self):
        self.spans = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, fid: int) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except (IndexError, TypeError):
                parent = -1
        sid = next(self._ids)
        rec = [fid, 0.0, 0.0, parent]
        self.spans[sid] = rec
        stack.append(sid)
        rec[1] = perf_counter()
        return rec, stack

    def _wrap(self, fid: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, stack = self._open(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return traced

    @contextmanager
    def patched(self):
        """Trace one command: rebind every traced function, open the root span."""
        undo = []
        try:
            for fid, (_, modname, attr) in enumerate(TRACED, start=1):
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(fid, orig))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(fid, orig)
                for other in [m for k, m in sys.modules.items()
                              if k == "dkinv" or k.startswith("dkinv.")]:
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, wrapper)
                            undo.append((other, key, orig))
            self._main_stack = self._stack()
            rec, stack = self._open(0)
            try:
                yield
            finally:
                rec[2] = perf_counter()
                stack.pop()
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)


def summarize(spans: dict) -> dict:
    """Per-function calls, total and self seconds, plus derived ratios.

    Self time is a span's duration minus the part of its interval that its
    children cover; children on pool threads overlap, so their intervals are
    merged before subtracting.
    """
    children = {}
    for sid, (_, _, _, parent) in spans.items():
        children.setdefault(parent, []).append(sid)
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in NAMES}
    for sid, (fid, t0, t1, _) in spans.items():
        covered, end = 0.0, t0
        for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        entry = stats[NAMES[fid]]
        entry["calls"] += 1
        entry["total_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - covered

    fid_apply = NAMES.index("canonical.apply_triangular_adjoint")
    fid_col = NAMES.index("inversion.right_col")
    fid_hf = NAMES.index("canonical.hamiltonian_factor")
    fid_rec = NAMES.index("canonical.recover_hamiltonian")

    under_apply = {}

    def in_apply(sid: int) -> bool:
        if sid < 0:
            return False
        if sid not in under_apply:
            fid, _, _, parent = spans[sid]
            under_apply[sid] = fid == fid_apply or in_apply(parent)
        return under_apply[sid]

    quad_cols = sum(1 for sid, rec in spans.items()
                    if rec[0] == fid_col and in_apply(rec[3]))
    busy, capacity = 0.0, 0.0
    for sid, (fid, t0, t1, _) in spans.items():
        if fid != fid_rec:
            continue
        kids = [spans[c] for c in children.get(sid, ()) if spans[c][0] == fid_hf]
        busy += sum(k[2] - k[1] for k in kids)
        capacity += (t1 - t0) * max(1, _overlap_width(kids))
    return {
        "functions": stats,
        "quad_cols": quad_cols,
        "pool_busy_s": busy,
        "pool_capacity_s": capacity,
    }


def _overlap_width(intervals: list) -> int:
    """Largest number of intervals open at one instant (the workers in use)."""
    events = sorted([(rec[1], 1) for rec in intervals]
                    + [(rec[2], -1) for rec in intervals])
    width = best = 0
    for _, step in events:
        width += step
        best = max(best, width)
    return best
