"""dkinv benchmark: drives the `dkinv` CLI the way users do.

    python3 bench/run.py --workload invert-table --seed 9 --seconds 30 --trace 0

Load model: closed loop, one client.  Warm samples call ``dkinv.cli.main``
serially in this process; cold samples start one fresh ``python -c`` child at
a time, so import cost is included, as a user pays it.  The config carries no
``flags``, so every command takes the default path, except that every thread
pool is pinned to one thread (``THREAD_ENV``): BLAS, and ``recover``'s
sampling pool, which would otherwise size itself to the CPU count.

Workloads (inputs from ``--seed`` via bench/inputs.py):

* ``invert-table``  ``invert --grid 128``: one fundamental-solution build,
  ``block_values`` on 384 x 384 points, a 147k-row CSV.  The CLI writer
  dominates; canonical and discretization are not touched.
* ``recover-profile``  ``recover --samples 50``: 50 builds and 50
  adaptive-quadrature triangular-factor applications; tiny CSV.
* ``verify-full``  ``verify --level full``: dense 1200 x 1200 Nystrom
  matrices on BLAS; discretization dominates.

``--trace 0`` measures, with tracing off: ``setup_s`` (fresh process: import
``dkinv.cli``, parse the config into a Realization; median of 5),
``cold_cli_s`` (fresh-process command wall time, median), ``warm_p50_s``
(in-process command wall time, median), ``units_per_s`` (work units of one
command over ``warm_p50_s``), ``peak_rss_mb`` (fresh command process,
median).  ``--trace 1`` runs warm calls in turn untraced, traced
(bench/tracing.py) and untraced with ``recover``'s default pool size, and
reports, per command call, the calls and the share of self time of each
traced function, and the default pool's speed-up over one worker.
``--workload all`` runs every workload.

Every command's exit code and output are checked outside the timed region
(bench/checks.py); ``failed / attempted`` is the failure fraction.  The last
line of stdout is the JSON result; the full record (environment, every
sample, min and median, output SHA-256) goes to bench/_run/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_run"

SETUP_CODE = ("import sys; import dkinv.cli as c; "
              "c.parse_config(sys.argv[1]).realization()")
CLI_CODE = "import sys; from dkinv.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
NYSTROM_CHECK = 128  # grid of the invert-table composition check
# One thread per pool.  numpy and scipy each load their own OpenBLAS, and
# recover's default pool has one worker per CPU; on a 2-vCPU shared machine
# these threads contend for the GIL and the CPUs, and the timings follow the
# host's load.  Measured on such a machine at --seconds 30: recover-profile's
# warm_p50_s spread 0.30 of its median over 10 runs with the 2-worker pool,
# 0.13 over 9 runs with one worker.  verify-full is no slower with one BLAS
# thread there.  The trace run still times the default pool
# (canonical.pool_speedup).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "DKINV_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    args: tuple           # CLI words after the config
    toy_args: tuple
    out_flag: str
    out_name: str


WORKLOADS = {
    "invert-table": Workload(
        ("invert", "--grid", "128"), ("invert", "--grid", "8"),
        "--out", "invert.csv"),
    "recover-profile": Workload(
        ("recover", "--samples", "50"), ("recover", "--samples", "3"),
        "--out", "recover.csv"),
    "verify-full": Workload(
        ("verify", "--level", "full"), ("verify", "--level", "quick"),
        "--report", "verify.json"),
}

# Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "linalg.mat_exp": "warm_p50_s on invert-table and recover-profile",
    "linalg.solve": "warm_p50_s on invert-table and recover-profile",
    "linalg.spectral_norm": "warm_p50_s on verify-full",
    "kernels.": "warm_p50_s on verify-full (profile_samples) and recover-profile",
    "inversion.block_values": "warm_p50_s on invert-table",
    "inversion.left_row": "warm_p50_s on invert-table and recover-profile",
    "inversion.value": "warm_p50_s on verify-full (j_unitarity)",
    "inversion.": "warm_p50_s on recover-profile (50 builds, quadrature columns)",
    "canonical.pool_speedup": "nothing (end-to-end runs use one worker); "
                              "recover's default pool against one worker",
    "canonical.": "warm_p50_s on recover-profile",
    "discretization.": "warm_p50_s on verify-full",
    "cli.parse_config": "setup_s on every workload",
    "cli.": "warm_p50_s and cold_cli_s on invert-table (CSV formatting)",
    "trace.": "nothing; tracing overhead",
}


def moves(metric: str) -> str:
    return next(v for k, v in MOVES.items() if metric.startswith(k))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def blas_threads() -> dict:
    """Live thread count of every OpenBLAS loaded into this process."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return out
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = int(fn())
                break
    return out


def environment(cfg) -> dict:
    import numpy
    import scipy
    from dkinv import canonical

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_build = "unknown"
    resolve = getattr(canonical, "_resolve_workers", None)
    workers = resolve(cfg.threads) if resolve is not None else 1
    default_workers = resolve(0) if resolve is not None else 1
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas_build,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "DKINV_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "recover_workers": workers,
        "recover_workers_default": default_workers,
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# One operation each: fresh child process, or in-process call
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(code: str, args, env) -> tuple:
    """(exit code, wall seconds, peak RSS in MB) of one fresh interpreter."""
    with open(WORK / "child.err", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_warm(main, argv, tracer=None) -> tuple:
    """(exit code, wall seconds) of one in-process CLI call, traced or not.

    A traced call's wall time is its root span, which leaves out patching.
    An exception escaping the CLI is reported as exit code -1.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if tracer is None:
                t0 = perf_counter()
                code = main(argv)
                return code, perf_counter() - t0
            with tracer.patched():
                code = main(argv)
        except Exception:  # noqa: BLE001 - one failed operation, logged below
            traceback.print_exc()
            return -1, 0.0
    root = tracer.spans[0]
    return code, root[2] - root[1]


def steal_ticks() -> tuple:
    """(steal, total) CPU ticks of the machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy problem sizes, for the harness smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not (SRC / "dkinv" / "cli.py").is_file():
        print(f"error: dkinv sources not found under {SRC}", file=sys.stderr)
        return 2
    # Before numpy loads; the children and run_all's workloads inherit it.
    os.environ.update(THREAD_ENV)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    result = run_one(args)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; every metric printed by name and unit."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def run_one(args) -> dict:
    """One workload: inputs, set-up samples, reference check, measured window."""
    import checks
    import inputs
    from dkinv import cli

    wl = WORKLOADS[args.workload]
    words = wl.toy_args if args.toy else wl.args
    config = WORK / f"{args.workload}.json"
    out = WORK / wl.out_name
    problem = inputs.make_problem(args.seed, config)
    argv_cmd = [words[0], "--config", str(config), *words[1:], wl.out_flag, str(out)]
    cfg = cli.parse_config(str(config))
    r = cfg.realization()
    # N: grid points, gamma samples, or the Nystrom size `verify` uses per level.
    problem["N"] = int(words[2]) if words[0] != "verify" else (100 if args.toy else 400)
    problem["command"] = " ".join(words)

    def output_errors(code: int) -> list:
        if code != 0:
            return [f"exit code {code}"]
        if words[0] == "invert":
            return checks.check_invert(out, r, int(words[2]), args.seed)
        if words[0] == "recover":
            return checks.check_recover(out, r, int(words[2]))
        return checks.check_verify(out)

    ops = {"attempted": 0, "failed": 0}
    errors = []

    def record(kind: str, code: int, ref_sha=None) -> bool:
        """Count one operation; check its exit code and, unless it matches
        the checked reference byte for byte, its output."""
        ops["attempted"] += 1
        if kind == "setup":
            found = [] if code == 0 else [f"exit code {code}"]
        elif code == 0 and ref_sha is not None and sha256(out) == ref_sha:
            found = []
        else:
            found = output_errors(code)
        if found:
            ops["failed"] += 1
            errors.extend(f"{kind}: {e}" for e in found[:3])
        return not found

    env = child_env()
    setup = []
    if args.trace == 0:
        for _ in range(2 if args.toy else SETUP_SAMPLES):
            code, wall, _ = run_child(SETUP_CODE, [str(config)], env)
            if record("setup", code):
                setup.append(wall)

    # Reference call: fills caches, and its output gets the full check.
    code, _ = run_warm(cli.main, argv_cmd)
    ref_ok = record("reference", code)
    if ref_ok and words[0] == "invert":
        extra = checks.composition(r, NYSTROM_CHECK)
    elif ref_ok and words[0] == "recover":
        extra = checks.route_agreement(out, r)
    else:
        extra = []
    if extra:
        ops["failed"] += 1
        errors.extend(f"reference: {e}" for e in extra)
        ref_ok = False
    ref_sha = sha256(out) if ref_ok else None
    out_bytes = out.stat().st_size if out.exists() else 0
    if words[0] == "invert":
        units = r.p ** 2 * problem["N"] ** 2
    elif words[0] == "recover":
        units = problem["N"]
    else:
        units = len(json.loads(out.read_text(encoding="utf-8"))) if ref_ok else 1

    # Measured window: two kinds of sample (three when traced), interleaved by
    # time spent, each at least `least` times.
    kinds = ("cold", "warm") if args.trace == 0 else ("plain", "traced", "pool")
    least = 1 if args.toy else (2 if args.trace else 3)
    samples = {k: [] for k in kinds}
    tries = {k: 0 for k in kinds}
    spent = {k: 0.0 for k in kinds}
    rss, traces, first_spans = [], [], None
    steal0, total0 = steal_ticks()
    start = perf_counter()
    while True:
        short = [k for k in kinds if tries[k] < least]
        if perf_counter() - start >= args.seconds and not short:
            break
        kind = min(short or kinds, key=lambda k: spent[k])
        tries[kind] += 1
        if kind == "cold":
            code, wall, mb = run_child(CLI_CODE, argv_cmd, env)
            rss.append(mb)
        elif kind == "traced":
            tracer = tracing.Tracer()
            code, wall = run_warm(cli.main, argv_cmd, tracer)
            if code == 0:
                traces.append(tracing.summarize(tracer.spans))
                if first_spans is None:
                    first_spans = tracer.spans
        elif kind == "pool":
            # recover sizes its pool to the CPU count, as users get it.
            del os.environ["DKINV_THREADS"]
            try:
                code, wall = run_warm(cli.main, argv_cmd)
            finally:
                os.environ["DKINV_THREADS"] = THREAD_ENV["DKINV_THREADS"]
        else:
            code, wall = run_warm(cli.main, argv_cmd)
        spent[kind] += wall
        if record(kind, code, ref_sha):
            samples[kind].append(wall)
    steal1, total1 = steal_ticks()

    timings = dict(samples, setup=setup) if setup else dict(samples)
    summary = {k: {"n": len(v), "min": min(v), "median": median(v)}
               for k, v in timings.items() if v}
    correct = ops["failed"] == 0 and ref_ok
    metrics, layers = {}, {}
    if args.trace == 0 and setup and samples["cold"] and samples["warm"]:
        metrics = {
            "setup_s": (median(setup), "s"),
            "cold_cli_s": (median(samples["cold"]), "s"),
            "warm_p50_s": (median(samples["warm"]), "s"),
            "units_per_s": (units / median(samples["warm"]), "1/s"),
            "peak_rss_mb": (median(rss), "MB"),
        }
    elif args.trace and traces and all(samples.values()):
        metrics, layers = per_layer(traces, samples, out_bytes, r.p)
        write_spans(first_spans, args)

    record_path = WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "workload": args.workload,
        "load_model": "closed loop, one client; cold = fresh python -c child, "
                      "warm = in-process dkinv.cli.main",
        "environment": environment(cfg),
        "steal_frac": (steal1 - steal0) / max(total1 - total0, 1),
        "inputs": problem,
        "output_sha256": ref_sha,
        "output_bytes": out_bytes,
        "units_per_command": units,
        "timings": summary,
        "samples": timings,
        "layers": layers,
        "errors": errors,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for k, s in summary.items():
        print(f"timing {k}: n={s['n']} min={s['min']:.6f} median={s['median']:.6f} s")
    for name, (value, unit) in metrics.items():
        note = f"  [moves {moves(name)}]" if args.trace else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    modules = {}
    for name, s in layers.items():
        if s["calls"]:
            print(f"layer {name}: calls={s['calls']:.6g} self_s={s['self_s']:.6f} "
                  f"total_s={s['total_s']:.6f} per command")
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + s["self_s"]
    for module, self_s in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"module {module}: self_s={self_s:.6f} per command")
    print(f"fail_frac = {ops['failed']}/{ops['attempted']}"
          f"  output_sha256 = {ref_sha}  record = {record_path.relative_to(ROOT)}")
    for e in errors[:10]:
        print(f"error: {e}", file=sys.stderr)
    return {
        "correct": bool(correct),
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(traces, samples, out_bytes, p):
    """Per-command averages over the traced calls."""
    count = len(traces)
    funcs = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in tracing.NAMES}
    quad_cols = busy = capacity = 0.0
    for t in traces:
        for name, s in t["functions"].items():
            for key in ("calls", "self_s", "total_s"):
                funcs[name][key] += s[key]
        quad_cols += t["quad_cols"]
        busy += t["pool_busy_s"]
        capacity += t["pool_capacity_s"]
    # Shares of the summed self time, which exceeds the wall time where the
    # thread pool runs spans side by side.
    busy_s = sum(s["self_s"] for s in funcs.values())
    metrics = {}
    for name in tracing.NAMES[1:]:
        metrics[f"{name}.calls"] = (funcs[name]["calls"] / count, "count")
        metrics[f"{name}.self_frac"] = (funcs[name]["self_s"] / busy_s, "frac")
    applies = funcs["canonical.apply_triangular_adjoint"]["calls"]
    metrics["cli.self_frac"] = (funcs[tracing.ROOT]["self_s"] / busy_s, "frac")
    metrics["cli.out_bytes"] = (float(out_bytes), "B")
    metrics["canonical.quad_nodes"] = (quad_cols / p / applies if applies else 0.0, "count")
    metrics["canonical.pool_busy_ratio"] = (busy / capacity if capacity else 0.0, "frac")
    metrics["canonical.pool_speedup"] = (median(samples["plain"]) / median(samples["pool"]),
                                         "ratio")
    metrics["trace.overhead_s"] = (median(samples["traced"]) - median(samples["plain"]), "s")
    layers = {name: {k: v / count for k, v in s.items()} for name, s in funcs.items()}
    return metrics, layers


def write_spans(spans, args) -> None:
    """Spans of the first traced call, one JSON object a line."""
    path = WORK / f"spans_{args.workload}_seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for sid in sorted(spans):
            fid, t0, t1, parent = spans[sid]
            fh.write(json.dumps({"id": sid, "name": tracing.NAMES[fid], "start": t0,
                                 "end": t1, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
