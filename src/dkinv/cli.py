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

The recovery formula is chosen from beta; other keys are ignored.

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
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import canonical, discretization, inversion
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


def _complex_entry(raw, where: str) -> complex:
    if isinstance(raw, (int, float)):
        return complex(raw)
    if (isinstance(raw, list) and len(raw) == 2
            and all(isinstance(v, (int, float)) for v in raw)):
        return complex(raw[0], raw[1])
    raise ConfigError(f"{where}: expected [re, im] pair, got {raw!r}")


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

    Dimensions must be consistent.  A d that is not non-increasing is
    re-sorted (stably, descending) together with the matching columns of
    theta1/theta2; the permutation is recorded and a warning goes to stderr.
    """
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    missing = [k for k in ("p", "n", "d", "l", "theta1", "theta2", "beta")
               if k not in raw]
    if missing:
        raise ConfigError(f"missing required fields: {', '.join(missing)}")
    try:
        p = int(raw["p"])
        n = int(raw["n"])
        length = float(raw["l"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"p, n, l must be numeric: {exc}") from exc
    if p < 1 or n < 1:
        raise ConfigError("p and n must be positive integers")
    if not length > 0:
        raise ConfigError("l must be positive")
    d_raw = raw["d"]
    if not isinstance(d_raw, list) or len(d_raw) != p:
        raise ConfigError(f"d must be a list of {p} reals")
    try:
        d = [float(v) for v in d_raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"d entries must be real numbers: {exc}") from exc
    if any(v <= 0 for v in d):
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
    try:
        return parse_config_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: Sequence[str], index_cols: int,
               blocks: Iterable[np.ndarray]) -> None:
    """Write CSV rows one block at a time, so only one block is ever text.

    A block is a 2-d float array with one column per header name.  The
    first ``index_cols`` columns are written with %d and the rest with
    %.17g, so equal runs produce byte-identical files.
    """
    row = ",".join(["%d"] * index_cols
                   + ["%.17g"] * (len(header) - index_cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.writelines(row % tuple(values) for values in block.tolist())


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

    if not kernel.invertible:
        report = kernel.singular_report
        basis = inversion.null_basis_functions(kernel.fund, report)
        i_x = np.column_stack([np.tile(np.arange(1, p + 1), grid),
                               np.repeat(xs, p)])
        blocks = (np.column_stack([
            np.full(grid * p, fn_idx), i_x,
            np.array([func(float(x)) for x in xs]).reshape(-1, 1).view(float),
        ]) for fn_idx, func in enumerate(basis, start=1))
        _write_csv(out_path, ("fn", "i", "x", "re", "im"), 2, blocks)
        print(
            f"operator is singular (corner rcond {report.rcond:.3e}); "
            f"wrote {len(basis)} kernel-basis function(s) to {out_path}",
            file=sys.stderr,
        )
        return 2

    values = kernel.block_values(xs, xs)
    blocks = (np.column_stack([
        np.full((grid, 3), (i + 1, j + 1, xs[a])), xs,
        values[i * grid + a, j * grid:(j + 1) * grid].reshape(-1, 1).view(float),
    ]) for i in range(p) for j in range(p) for a in range(grid))
    _write_csv(out_path, ("i", "j", "x", "t", "re", "im"), 2, blocks)
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
    if samples < 1:
        print("error: need at least one sample", file=sys.stderr)
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
    table = np.column_stack([grid_data.xs] + [
        m.transpose(0, 2, 1).reshape(samples, -1).view(float)
        for m in (grid_data.gammas, grid_data.hams)])
    _write_csv(out_path, header, 0, [table])
    return 0


_VERIFY_LAMBDAS = (0.3 + 0.6j, -0.4 + 0.9j, 1.1 + 0.5j, 0.2 + 1.4j,
                   -0.9 + 0.7j)


def _verify_checks(cfg: ProblemConfig, level: str) -> Dict[str, dict]:
    """Run the invariant suites and collect named residuals.

    Every check reports {value, tol, pass} with the uniform rule
    pass = (value <= tol); the positivity entry stores the negated minimum
    eigenvalue so the rule applies unchanged.  A check that cannot run
    stores a 1e99 sentinel value and an "error" field naming the exception
    that stopped it.  The inverse kernel, the Nystrom matrix S_N and its LU
    factor are built once per run and shared by the checks that need them.
    """
    quick = level == "quick"
    count = 100 if quick else 400
    points = 10 if quick else 20
    r = cfg.realization()
    checks: Dict[str, dict] = {}

    def record(name: str, value: float, tol: float,
               error: Optional[Exception] = None) -> None:
        checks[name] = {
            "value": float(value),
            "tol": float(tol),
            "pass": bool(value <= tol),
        }
        if error is not None:
            checks[name]["error"] = f"{type(error).__name__}: {error}"

    # Structure identity of the realization data.
    id_tol = 1e-10 * (1.0 + frob(r.beta))
    record("structure_identity", r.identity_residual(), id_tol)
    identity_ok = checks["structure_identity"]["pass"]

    # J-unitarity of the fundamental solution along the interval.
    kernel = inversion.InverseKernel.from_realization(r)
    fund = kernel.fund
    jmat = fund.j_matrix
    worst = 0.0
    for y in np.linspace(0.0, fund.interval, points):
        u = fund.value(float(y))
        gap = frob(u.conj().T @ jmat @ u - jmat) / (1.0 + frob(u) ** 2)
        worst = max(worst, gap)
    record("j_unitarity", worst, 1e-9)

    # Composition T_N S_N = I at the level's grid size; T_N lives only
    # inside composition_residual, so only S_N stays alive for the checks
    # below.
    s_op = discretization.discretize_operator(r, count)
    comp_tol = 2e-1 if quick else 5e-2
    try:
        kernel._require_invertible()
        record("composition",
               discretization.composition_residual(kernel, s_op), comp_tol)
    except Exception as exc:
        record("composition", 1e99, comp_tol, exc)

    # Positivity of the symmetrized discretized operator.
    try:
        low, _ = discretization.positivity_spectrum(s_op)
        record("positivity_min_eig", -low, 0.0)
    except ValueError as exc:
        record("positivity_min_eig", 1e99, 0.0, exc)

    # Recovery checks only make sense under the structure identity.
    if identity_ok:
        xs = np.linspace(r.length / points, r.length, points)
        try:
            grid_data = canonical.recover_hamiltonian(r, xs)
            gamma_gap = 0.0
            sim_gap = 0.0
            ex = exchange_j(r.p)
            for gm in grid_data.gammas:
                gamma_gap = max(gamma_gap, frob(
                    gm @ ex @ gm.conj().T - r.diag.matrix))
                sim_gap = max(
                    sim_gap,
                    canonical.similarity_factor(gm, r.diag).residual)
            record("gamma_metric", gamma_gap, 1e-7)
            record("similarity", sim_gap, 1e-6)
        except Exception as exc:
            record("gamma_metric", 1e99, 1e-7, exc)
            record("similarity", 1e99, 1e-6, exc)

        # Weyl inequality margin via the discrete transfer function: the
        # accumulated energy stays below its bound iff the J-form of the
        # propagated Weyl column stays nonnegative.
        lams = _VERIFY_LAMBDAS[:2] if quick else _VERIFY_LAMBDAS
        try:
            margin = 0.0
            ex = exchange_j(r.p)
            wmats = discretization.discrete_matrizant(r, s_op, lams)
            for lam, wmat in zip(lams, wmats):
                phi = canonical.weyl_value(r, lam)
                column = np.vstack([np.eye(r.p), -1j * phi])
                prop = wmat @ column
                gap = float(np.trace(prop.conj().T @ ex @ prop).real)
                rhs = float(np.trace((phi - phi.conj().T) / 2j).real
                            / lam.imag)
                margin = max(margin, -gap / (2 * lam.imag * max(abs(rhs),
                                                                1e-30)))
            record("weyl_inequality_margin", margin, 1e-3)
        except Exception as exc:
            record("weyl_inequality_margin", 1e99, 1e-3, exc)
    return checks


def cmd_verify(cfg: ProblemConfig, level: str, report_path: str) -> int:
    """Run the invariant suite and write the JSON report; 0 iff all pass."""
    if level not in ("quick", "full"):
        print(f"error: unknown level {level!r}", file=sys.stderr)
        return 1
    checks = _verify_checks(cfg, level)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(checks, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = [name for name, entry in sorted(checks.items())
              if not entry["pass"]]
    for name, entry in sorted(checks.items()):
        status = "pass" if entry["pass"] else "FAIL"
        print(f"{status}  {name}: value={entry['value']:.6e} "
              f"tol={entry['tol']:.6e}")
    return 0 if not failed else 1


def _parse_lambdas(raw: str) -> List[complex]:
    parts = [chunk.strip() for chunk in raw.split(",") if chunk.strip()]
    if len(parts) % 2:
        raise ConfigError(
            "--lambda expects RE,IM[,RE,IM...] (an even number of values)")
    try:
        values = [float(v) for v in parts]
    except ValueError as exc:
        raise ConfigError(f"--lambda: {exc}") from exc
    return [complex(values[k], values[k + 1])
            for k in range(0, len(values), 2)]


def cmd_weyl(cfg: ProblemConfig, lambdas: Sequence[complex],
             density_points: Sequence[float]) -> int:
    """Print phi(lambda) per requested point as JSON lines.

    A pole hit produces a per-lambda error record and evaluation continues.
    Density samples additionally require the structure identity.
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
            print(json.dumps({
                "t": t,
                "density": _pairs(data.density(t)),
            }, sort_keys=True))
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
    ver.add_argument("--level", choices=("quick", "full"), default="quick")
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
            return cmd_invert(cfg, args.grid, args.out)
        if args.command == "recover":
            return cmd_recover(cfg, args.samples, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.level, args.report)
        if args.command == "weyl":
            lambdas = _parse_lambdas(args.lambdas)
            density = [float(v) for v in args.density.split(",")
                       if v.strip()] if args.density else []
            return cmd_weyl(cfg, lambdas, density)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
