"""Batch front end: invert / recover / verify / weyl pipelines over JSON configs.

A problem description is a JSON file

    {
      "p": 2, "n": 2,
      "d": [2.0, 1.0],
      "l": 1.0,
      "theta1": [[[re, im], ...], ...],   # n rows, p columns
      "theta2": [[[re, im], ...], ...],
      "beta":   [[[re, im], ...], ...],   # n rows, n columns
    }

Recovery takes the same (profile) route for every beta; other keys are
ignored.

Complex entries are [re, im] pairs (bare reals are accepted on input but
always serialized as pairs).  Outputs are CSV with 17-significant-digit
floats, or JSON-lines for the Weyl command, so runs are byte-reproducible.

Exit codes: 0 success, 1 input or validation error, 2 mathematically
meaningful singularity (the operator, on the full interval or on a
sub-interval needed for recovery, is not invertible).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import canonical, inversion
from .kernels import DiagonalStructure, Realization, RealizationIdentityError
from .linalg import exchange_j, frob

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "main",
    "parse_config",
    "parse_config_dict",
]

class ConfigError(ValueError):
    """Problem-description file is malformed or inconsistent."""


@dataclass(frozen=True)
class ProblemConfig:
    """Validated problem description plus the realization it defines."""

    p: int
    n: int
    d: Tuple[float, ...]
    l: float
    theta1: np.ndarray
    theta2: np.ndarray
    beta: np.ndarray
    permutation: Optional[Tuple[int, ...]] = None  # set when d was re-sorted

    def realization(self) -> Realization:
        diag = DiagonalStructure.from_values(self.d)
        return Realization.build(self.theta1, self.theta2, self.beta,
                                 diag, self.l)


def _pairs(m: np.ndarray) -> list:
    """Complex matrix as nested [re, im] pairs, the JSON form of every entry."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _is_number(raw) -> bool:
    """A finite JSON number: not a string, not a boolean (bool is an int),
    not ``Infinity`` or ``NaN``, and not an integer too large for a float."""
    return (isinstance(raw, (int, float)) and not isinstance(raw, bool)
            and abs(raw) <= sys.float_info.max)


def _complex_entry(raw, where: str) -> complex:
    if _is_number(raw):
        return complex(raw)
    if isinstance(raw, list) and len(raw) == 2 and all(map(_is_number, raw)):
        return complex(raw[0], raw[1])
    raise ConfigError(
        f"{where}: expected [re, im] pair of finite numbers, got {raw!r}")


def _complex_matrix(raw, rows: int, cols: int, name: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != rows:
        raise ConfigError(f"{name}: expected {rows} rows")
    out = np.empty((rows, cols), dtype=complex)
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise ConfigError(f"{name}[{r}]: expected {cols} entries")
        for c, entry in enumerate(row):
            out[r, c] = _complex_entry(entry, f"{name}[{r}][{c}]")
    return out


def parse_config_dict(raw: dict) -> ProblemConfig:
    """Validate a decoded JSON object into a ProblemConfig.

    Dimensions must be consistent: p, n, l, the entries of d and the
    complex entries are finite JSON numbers (not booleans or strings;
    Python's ``json`` decodes ``Infinity``, ``NaN`` and integers of any
    size); p and n are positive integers, and l and d are positive.  A d
    that is not non-increasing is re-sorted (stably, descending) together
    with the matching columns of theta1/theta2; the permutation is
    recorded and a warning goes to stderr.
    """
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    missing = [k for k in ("p", "n", "d", "l", "theta1", "theta2", "beta")
               if k not in raw]
    if missing:
        raise ConfigError(f"missing required fields: {', '.join(missing)}")
    for key in ("p", "n", "l"):
        if not _is_number(raw[key]):
            raise ConfigError(
                f"{key} must be a finite number, got {raw[key]!r}")
    p_num, n_num, length = (float(raw[key]) for key in ("p", "n", "l"))
    if not (p_num.is_integer() and n_num.is_integer()
            and min(p_num, n_num) >= 1):
        raise ConfigError("p and n must be positive integers")
    p, n = int(p_num), int(n_num)
    if not length > 0:
        raise ConfigError("l must be positive")
    d_raw = raw["d"]
    if not isinstance(d_raw, list) or len(d_raw) != p:
        raise ConfigError(f"d must be a list of {p} reals")
    if not all(map(_is_number, d_raw)):
        raise ConfigError(f"d entries must be finite numbers, got {d_raw!r}")
    d = [float(v) for v in d_raw]
    if not all(v > 0 for v in d):
        raise ConfigError("d entries must be positive")

    theta1 = _complex_matrix(raw["theta1"], n, p, "theta1")
    theta2 = _complex_matrix(raw["theta2"], n, p, "theta2")
    beta = _complex_matrix(raw["beta"], n, n, "beta")

    permutation = None
    if any(d[k] < d[k + 1] for k in range(p - 1)):
        order = sorted(range(p), key=lambda k: -d[k])  # stable descending
        permutation = tuple(order)
        d = [d[k] for k in order]
        theta1 = theta1[:, order]
        theta2 = theta2[:, order]
        print(
            f"warning: d was not non-increasing; columns re-sorted "
            f"with permutation {list(order)}",
            file=sys.stderr,
        )
    return ProblemConfig(p=p, n=n, d=tuple(d), l=length, theta1=theta1,
                         theta2=theta2, beta=beta, permutation=permutation)


def parse_config(path: str) -> ProblemConfig:
    """Load and validate a problem description, with line-anchored errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer beyond int's digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return parse_config_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: Sequence[str], heads: Sequence[str],
               chunks: Iterable[Tuple[str, np.ndarray]]) -> None:
    """Write CSV lines one chunk at a time, so only one chunk is ever text.

    A chunk ``(lead, cells)`` is ``len(heads)`` lines: line k is the text
    ``lead + heads[k]`` followed by row k of the 2-d float array ``cells``
    in %.17g.  The caller formats the text columns once; each chunk is
    one template filled by one ``%``, so only the float cells are
    formatted here, and equal runs produce byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lead, cells in chunks:
            tail = ",%.17g" * cells.shape[1] + "\n"
            template = lead + (tail + lead).join(heads) + tail
            fh.write(template % tuple(cells.ravel().tolist()))


def _require_writable(path: str) -> None:
    """Fail on an unwritable output ``path`` before the work that fills it,
    and leave the path as it was: an existing file is opened for appending."""
    existed = os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def cmd_invert(cfg: ProblemConfig, grid: int, out_path: str) -> int:
    """Tabulate the inverse kernel on an N x N per-block midpoint grid.

    On a singular corner the kernel-basis functions are tabulated instead
    (columns fn, i, x, re, im) and the exit status is 2.  In both tables a
    contiguous complex column viewed as floats gives the re, im columns.
    """
    r = cfg.realization()
    kernel = inversion.InverseKernel.from_realization(r)
    xs = (np.arange(grid) + 0.5) * (r.length / grid)
    p = r.p
    cols = ["%.17g" % x for x in xs.tolist()]

    if not kernel.invertible:
        report = kernel.singular_report
        values = inversion.null_basis_values(kernel.fund, report, xs)
        count = len(values)
        cells = values.reshape(count, -1, 1).view(float)
        heads = [f"{i},{x}" for x in cols for i in range(1, p + 1)]
        _write_csv(out_path, ("fn", "i", "x", "re", "im"), heads,
                   ((f"{fn},", c) for fn, c in enumerate(cells, start=1)))
        print(
            f"operator is singular (corner rcond {report.rcond:.3e}); "
            f"wrote {count} kernel-basis function(s) to {out_path}",
            file=sys.stderr,
        )
        return 2

    # cells[i, a, j] is block (i, j) at x = xs[a]: one grid row, t-major.
    cells = kernel.block_values(xs, xs).reshape(p, grid, p, grid, 1).view(
        float)
    _write_csv(out_path, ("i", "j", "x", "t", "re", "im"), cols,
               ((f"{i + 1},{j + 1},{cols[a]},", cells[i, a, j])
                for i in range(p) for j in range(p) for a in range(grid)))
    return 0


def cmd_recover(cfg: ProblemConfig, samples: int, out_path: str) -> int:
    """Sample gamma(x) and H(x) on an even grid and write them as CSV.

    Requires the structure identity; a violation exits 1 citing the
    residual.  Matrix entries are written column-major as re/im pairs.
    """
    r = cfg.realization()
    try:
        r.require_identity()
    except RealizationIdentityError as exc:
        print(
            f"error: structure identity violated "
            f"(residual {exc.residual:.6e}); recovery is undefined",
            file=sys.stderr,
        )
        return 1
    xs = np.linspace(r.length / samples, r.length, samples)
    try:
        grid_data = canonical.recover_hamiltonian(r, xs)
    except canonical.IntervalSingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    p = r.p
    names = ([f"g{row + 1}_{c + 1}" for c in range(2 * p) for row in range(p)]
             + [f"h{row + 1}_{c + 1}" for c in range(2 * p)
                for row in range(2 * p)])
    header = ["x"] + [f"{name}_{part}" for name in names
                      for part in ("re", "im")]
    # Column-major entries; the float view splits each into re, im.
    cells = np.column_stack([
        m.transpose(0, 2, 1).reshape(samples, -1).view(float)
        for m in (grid_data.gammas, grid_data.hams)])
    heads = ["%.17g" % x for x in grid_data.xs.tolist()]
    _write_csv(out_path, header, heads, [("", cells)])
    return 0


# Per level: Nystrom nodes, sample points, composition tol, Weyl lambdas.
_VERIFY_LAMBDAS = (0.3 + 0.6j, -0.4 + 0.9j, 1.1 + 0.5j, 0.2 + 1.4j,
                   -0.9 + 0.7j)
_VERIFY_LEVELS = {"quick": (100, 10, 2e-1, _VERIFY_LAMBDAS[:2]),
                  "full": (400, 20, 5e-2, _VERIFY_LAMBDAS)}


def _verify_checks(cfg: ProblemConfig, level: str) -> Dict[str, dict]:
    """Run the invariant suites and collect named residuals.

    Every check reports {value, tol, pass} with the uniform rule
    pass = (value <= tol); the positivity entry stores the negated minimum
    eigenvalue so the rule applies unchanged.  A check that raises stores a
    1e99 sentinel value and an "error" field naming the exception.  The
    inverse kernel, S_N and the recovered gammas are each built at most once;
    a failed build is the error of every check that needs it.
    """
    # Only verify runs the Nystrom cross-checks; importing them costs every
    # other command about 5 ms of a fresh start.
    from . import discretization

    count, points, comp_tol, lams = _VERIFY_LEVELS[level]
    r = cfg.realization()
    ex = exchange_j(r.p)
    checks: Dict[str, dict] = {}

    def check(name: str, tol: float, compute: Callable[[], float]) -> None:
        try:
            entry = {"value": float(compute())}
        except Exception as exc:
            entry = {"value": 1e99, "error": f"{type(exc).__name__}: {exc}"}
        entry.update({"tol": float(tol), "pass": entry["value"] <= tol})
        checks[name] = entry

    def build(make: Callable[[], object]) -> object:
        try:
            return make()
        except Exception as exc:
            return exc

    def need(built):
        if isinstance(built, Exception):
            raise built
        return built

    check("structure_identity", 1e-10 * (1.0 + frob(r.beta)),
          r.identity_residual)

    # J-unitarity of the fundamental solution along the interval.
    kernel = build(lambda: inversion.InverseKernel.from_realization(r))

    def j_unitarity() -> float:
        fund = need(kernel).fund
        jmat = fund.j_matrix
        us = fund.value(np.linspace(0.0, fund.interval, points))
        return max(0.0, *(frob(u.conj().T @ jmat @ u - jmat)
                          / (1.0 + frob(u) ** 2) for u in us))

    check("j_unitarity", 1e-9, j_unitarity)

    # Composition T_N S_N = I at the level's grid size, both applied
    # matrix-free (T_N refuses a non-invertible kernel), and positivity of
    # the (Hermitian) S_N.
    s_op = build(lambda: discretization.discretize_operator(r, count))
    check("composition", comp_tol, lambda: discretization.composition_residual(
        need(kernel), need(s_op)))
    check("positivity_min_eig", 0.0,
          lambda: -discretization.positivity_spectrum(need(s_op))[0])

    # Recovery checks only make sense under the structure identity, and on
    # an interval whose inverse kernel could be built.
    if not checks["structure_identity"]["pass"]:
        return checks
    xs = np.linspace(r.length / points, r.length, points)
    gammas = (kernel if isinstance(kernel, Exception) else
              build(lambda: canonical.recover_hamiltonian(r, xs).gammas))
    check("gamma_metric", 1e-7, lambda: max(0.0, *(
        frob(gm @ ex @ gm.conj().T - r.diag.matrix) for gm in need(gammas))))
    check("similarity", 1e-6, lambda: max(0.0, *(
        canonical.similarity_factor(gm, r.diag).residual
        for gm in need(gammas))))

    # Weyl inequality margin via the discrete transfer function: the
    # accumulated energy stays below its bound iff the J-form of the
    # propagated Weyl column stays nonnegative.
    def weyl_margin() -> float:
        margin = 0.0
        wmats = discretization.discrete_matrizant(r, need(s_op), lams)
        for lam, wmat in zip(lams, wmats):
            phi = canonical.weyl_value(r, lam)
            prop = wmat @ np.vstack([np.eye(r.p), -1j * phi])
            gap = float(np.trace(prop.conj().T @ ex @ prop).real)
            rhs = float(np.trace((phi - phi.conj().T) / 2j).real / lam.imag)
            margin = max(margin, -gap / (2 * lam.imag * max(abs(rhs), 1e-30)))
        return margin

    check("weyl_inequality_margin", 1e-3, weyl_margin)
    return checks


def cmd_verify(cfg: ProblemConfig, level: str, report_path: str) -> int:
    """Run the invariant suite and write the JSON report; 0 iff all pass."""
    checks = _verify_checks(cfg, level)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(checks, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, entry in sorted(checks.items()):
        print(f"{'pass' if entry['pass'] else 'FAIL'}  {name}: "
              f"value={entry['value']:.6e} tol={entry['tol']:.6e}")
    return 0 if all(entry["pass"] for entry in checks.values()) else 1


def _parse_reals(raw: str, flag: str) -> List[float]:
    """The comma-separated values of ``flag``, each a finite real."""
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{flag}: values must be finite, got {raw!r}")
    return values


def _parse_lambdas(raw: str) -> List[complex]:
    values = _parse_reals(raw, "--lambda")
    if len(values) % 2:
        raise ConfigError(
            "--lambda expects RE,IM[,RE,IM...] (an even number of values)")
    return [complex(values[k], values[k + 1])
            for k in range(0, len(values), 2)]


def cmd_weyl(cfg: ProblemConfig, lambdas: Sequence[complex],
             density_points: Sequence[float]) -> int:
    """Print phi(lambda) per requested point as JSON lines.

    A pole hit produces an error record for that lambda or density point t,
    and evaluation continues.  Density samples additionally require the
    structure identity.
    """
    r = cfg.realization()
    for lam in lambdas:
        try:
            phi = canonical.weyl_value(r, lam)
            print(json.dumps({
                "lambda": [lam.real, lam.imag],
                "phi": _pairs(phi),
            }, sort_keys=True))
        except canonical.WeylPoleError as exc:
            print(json.dumps({
                "lambda": [lam.real, lam.imag],
                "error": str(exc),
            }, sort_keys=True))
    if density_points:
        try:
            data = canonical.herglotz_data(canonical.WeylFunction(r))
        except RealizationIdentityError as exc:
            print(
                f"error: structure identity violated "
                f"(residual {exc.residual:.6e}); no spectral density",
                file=sys.stderr,
            )
            return 1
        for t in density_points:
            try:
                record = {"t": t, "density": _pairs(data.density(t))}
            except canonical.WeylPoleError as exc:
                record = {"t": t, "error": str(exc)}
            print(json.dumps(record, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkinv",
        description="Closed-form inversion and Hamiltonian recovery for "
                    "dilation-difference kernel operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invert", help="tabulate the inverse kernel")
    inv.add_argument("--config", required=True)
    inv.add_argument("--grid", type=int, default=32)
    inv.add_argument("--out", required=True)

    rec = sub.add_parser("recover", help="recover gamma and H on a grid")
    rec.add_argument("--config", required=True)
    rec.add_argument("--samples", type=int, default=20)
    rec.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--config", required=True)
    ver.add_argument("--level", choices=tuple(_VERIFY_LEVELS),
                     default="quick")
    ver.add_argument("--report", required=True)

    wey = sub.add_parser("weyl", help="evaluate the Weyl function")
    wey.add_argument("--config", required=True)
    wey.add_argument("--lambda", dest="lambdas", required=True,
                     help="RE,IM[,RE,IM...] evaluation points")
    wey.add_argument("--density", default="",
                     help="optional real points for spectral-density samples")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, but this tool reserves status 2
        # for mathematically meaningful singularities; fold usage errors
        # into the input-error status.  --help exits 0 and stays 0.
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg = parse_config(args.config)
        if args.command == "invert":
            if args.grid < 1:
                raise ConfigError("--grid must be positive")
            _require_writable(args.out)
            return cmd_invert(cfg, args.grid, args.out)
        if args.command == "recover":
            if args.samples < 1:
                raise ConfigError("--samples must be positive")
            return cmd_recover(cfg, args.samples, args.out)
        if args.command == "verify":
            _require_writable(args.report)
            return cmd_verify(cfg, args.level, args.report)
        if args.command == "weyl":
            lambdas = _parse_lambdas(args.lambdas)
            density = _parse_reals(args.density, "--density")
            return cmd_weyl(cfg, lambdas, density)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError) as exc:
        # ConfigError is a ValueError; OSError is an --out or --report path
        # that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
