"""Command-line interface: config parsing, commands, exit codes."""

import json
import math
import re
import shlex
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dkinv import canonical, cli, discretization, inversion, linalg

from conftest import (
    bench_shape_realization,
    config_dict,
    random_realization,
    scalar_realization,
    singular_scalar_realization,
    two_level_singular_realization,
    write_config,
    zero_realization,
)


def read_csv(path):
    lines = open(path, "r", encoding="utf-8").read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture()
def scalar_cfg(tmp_path):
    return write_config(tmp_path, config_dict(scalar_realization()),
                        "scalar.json")


@pytest.fixture()
def zero_cfg(tmp_path):
    return write_config(tmp_path, config_dict(zero_realization()),
                        "zero.json")


@pytest.fixture()
def seed10_cfg(tmp_path, seed10):
    return write_config(tmp_path, config_dict(seed10), "mat.json")


@pytest.fixture()
def singular_cfg(tmp_path):
    return write_config(tmp_path, config_dict(singular_scalar_realization()),
                        "singular.json")


@pytest.fixture()
def two_level_cfg(tmp_path):
    return write_config(tmp_path,
                        config_dict(two_level_singular_realization()),
                        "two_level.json")


@pytest.fixture()
def bench_cfg(tmp_path):
    return write_config(tmp_path, config_dict(bench_shape_realization()),
                        "bench.json")


class TestConfigParsing:
    def test_missing_field_reported(self):
        raw = config_dict(scalar_realization())
        del raw["beta"]
        with pytest.raises(cli.ConfigError, match="beta"):
            cli.parse_config_dict(raw)

    def test_dimension_mismatch_reported(self):
        raw = config_dict(scalar_realization())
        raw["d"] = [1.0, 2.0]
        with pytest.raises(cli.ConfigError):
            cli.parse_config_dict(raw)

    def test_nonpositive_dilation_rejected(self):
        raw = config_dict(scalar_realization())
        raw["d"] = [-1.0]
        with pytest.raises(cli.ConfigError):
            cli.parse_config_dict(raw)

    def test_unsorted_dilations_resorted_with_warning(self, seed10, capsys):
        raw = config_dict(seed10)
        # reverse the component order in the input file
        raw["d"] = raw["d"][::-1]
        raw["theta1"] = [[row[1], row[0]] for row in raw["theta1"]]
        raw["theta2"] = [[row[1], row[0]] for row in raw["theta2"]]
        cfg = cli.parse_config_dict(raw)
        err = capsys.readouterr().err
        assert "re-sorted" in err
        assert cfg.permutation == (1, 0)
        assert cfg.d == (1.7, 1.0)
        assert np.allclose(cfg.theta1, seed10.theta1, atol=0)

    @pytest.mark.parametrize("command", ["weyl", "invert"])
    @pytest.mark.parametrize("field, value", [
        ("p", True), ("n", True), ("p", 1.9), ("n", 1.5),
        ("d", [math.inf]), ("d", [math.nan]), ("l", math.inf),
        ("theta1", [[True]]), ("theta1", [[[True, False]]]),
        ("l", True), ("d", [True]), ("l", "1.0"), ("d", ["1.0"]),
        ("p", "1"), ("n", "1"), ("l", 10 ** 400), ("d", [10 ** 400]),
        ("p", 10 ** 400), ("theta1", [[[1, 10 ** 400]]])],
        ids=["p-true", "n-true", "p-1.9", "n-1.5", "d-inf", "d-nan", "l-inf",
             "theta1-true", "theta1-pair-true", "l-true", "d-true",
             "l-string", "d-string", "p-string", "n-string", "l-huge",
             "d-huge", "p-huge", "theta1-huge"])
    def test_invalid_values_refused_before_output(self, field, value,
                                                  command, tmp_path, capsys):
        # int() would run p = 1.9 or p = true as p = 1, float() would read
        # true and "1.0" as numbers, json decodes Infinity and NaN, which
        # would reach the output as numbers, and float() of a JSON integer
        # beyond the float range raises OverflowError.
        raw = config_dict(scalar_realization())
        raw[field] = value
        cfg = write_config(tmp_path, raw)
        argv = {"weyl": ["weyl", "--config", cfg, "--lambda", "0.3,0.6"],
                "invert": ["invert", "--config", cfg, "--grid", "8",
                           "--out", str(tmp_path / "k.csv")]}[command]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "k.csv").exists()

    def test_integral_float_counts_accepted(self):
        raw = config_dict(scalar_realization())
        raw["p"], raw["n"] = 1.0, 1.0
        cfg = cli.parse_config_dict(raw)
        assert (cfg.p, cfg.n) == (1, 1)

    def test_malformed_json_cites_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 1,\n  "n": }')
        assert cli.main(["weyl", "--config", str(bad), "--lambda", "0,1"]) == 1
        err = capsys.readouterr().err
        assert "bad.json:2:" in err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert cli.main(["weyl", "--config", str(tmp_path / "nope.json"),
                         "--lambda", "0,1"]) == 1

    def test_oversized_integer_names_the_config(self, tmp_path, capsys):
        # Python's json refuses integers of more than 4,300 digits with a
        # plain ValueError; it is a malformed config like any other.
        text = json.dumps(config_dict(scalar_realization()))
        assert '"l": 1.0' in text
        path = tmp_path / "huge.json"
        path.write_text(text.replace('"l": 1.0', '"l": 1' + "0" * 5000))
        with pytest.raises(cli.ConfigError, match="digits"):
            cli.parse_config(str(path))
        assert cli.main(["weyl", "--config", str(path),
                         "--lambda", "0,1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: ")


class TestInvert:
    def test_zero_data_kernel_vanishes(self, zero_cfg, tmp_path):
        out = str(tmp_path / "t.csv")
        assert cli.main(["invert", "--config", zero_cfg, "--grid", "4",
                         "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["i", "j", "x", "t", "re", "im"]
        assert len(rows) == 2 * 2 * 4 * 4
        for row in rows:
            assert abs(float(row[4])) <= 1e-12
            assert abs(float(row[5])) <= 1e-12

    def test_scalar_closed_form(self, scalar_cfg, tmp_path):
        out = str(tmp_path / "t.csv")
        assert cli.main(["invert", "--config", scalar_cfg, "--grid", "6",
                         "--out", out]) == 0
        _, rows = read_csv(out)
        for row in rows:
            x, t = float(row[2]), float(row[3])
            want = -np.exp(1j * (t - x)) / 2
            got = complex(float(row[4]), float(row[5]))
            assert got == pytest.approx(want, abs=1e-9)

    def test_singular_operator_writes_null_basis(self, singular_cfg, tmp_path,
                                                 capsys):
        out = str(tmp_path / "basis.csv")
        assert cli.main(["invert", "--config", singular_cfg, "--grid", "8",
                         "--out", out]) == 2
        err = capsys.readouterr().err
        assert "singular" in err
        header, rows = read_csv(out)
        assert header == ["fn", "i", "x", "re", "im"]
        assert len(rows) == 8  # one basis function, p = 1, 8 grid points
        # values trace h(x) = exp(-i x) up to a constant factor
        h0 = complex(float(rows[0][3]), float(rows[0][4]))
        x0 = float(rows[0][2])
        for row in rows:
            x = float(row[2])
            got = complex(float(row[3]), float(row[4])) / h0
            assert got == pytest.approx(np.exp(-1j * (x - x0)), abs=1e-8)

    def test_byte_determinism(self, seed10_cfg, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["invert", "--config", seed10_cfg, "--grid", "5",
                         "--out", out1]) == 0
        assert cli.main(["invert", "--config", seed10_cfg, "--grid", "5",
                         "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_grid_must_be_positive(self, scalar_cfg, tmp_path):
        assert cli.main(["invert", "--config", scalar_cfg, "--grid", "0",
                         "--out", str(tmp_path / "t.csv")]) == 1

    def test_table_is_written_as_it_is_formatted(self, bench_cfg, tmp_path):
        # The 147k-line table never exists as text all at once: the traced
        # peak (the kernel values included) stays below the file's size.
        out = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            assert cli.main(["invert", "--config", bench_cfg, "--grid", "128",
                             "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size


class TestRecover:
    def test_zero_data_constant_rows(self, zero_cfg, tmp_path):
        out = str(tmp_path / "h.csv")
        assert cli.main(["recover", "--config", zero_cfg, "--samples", "5",
                         "--out", out]) == 0
        header, rows = read_csv(out)
        assert header[0] == "x"
        assert len(rows) == 5
        p = 2
        dvals = [2.0, 1.0]
        for row in rows:
            vals = [float(v) for v in row]
            # gamma block: p x 2p column-major re/im pairs after x
            gm = np.zeros((p, 2 * p), dtype=complex)
            k = 1
            for c in range(2 * p):
                for i in range(p):
                    gm[i, c] = complex(vals[k], vals[k + 1])
                    k += 2
            want = np.hstack([np.diag(dvals) / 2, np.eye(p)])
            assert np.abs(gm - want).max() <= 1e-10

    def test_scalar_metric_from_csv(self, scalar_cfg, tmp_path):
        out = str(tmp_path / "h.csv")
        assert cli.main(["recover", "--config", scalar_cfg, "--samples", "10",
                         "--out", out]) == 0
        _, rows = read_csv(out)
        for row in rows:
            vals = [float(v) for v in row]
            gm = np.array([[complex(vals[1], vals[2]),
                            complex(vals[3], vals[4])]])
            ex = np.array([[0.0, 1.0], [1.0, 0.0]])
            metric = (gm @ ex @ gm.conj().T)[0, 0]
            assert metric == pytest.approx(1.0, abs=1e-7)

    def test_identity_violation_exits_one(self, singular_cfg, tmp_path,
                                          capsys):
        assert cli.main(["recover", "--config", singular_cfg,
                         "--samples", "4",
                         "--out", str(tmp_path / "h.csv")]) == 1
        assert "structure identity" in capsys.readouterr().err

    def test_needs_a_sample(self, scalar_cfg, tmp_path, capsys):
        assert cli.main(["recover", "--config", scalar_cfg, "--samples", "0",
                         "--out", str(tmp_path / "h.csv")]) == 1
        assert "sample" in capsys.readouterr().err

    def test_sample_count_checked_before_any_work(self, singular_cfg,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        # singular_cfg violates the structure identity; the bad argument
        # is what gets reported, before the realization is built.
        built = []
        monkeypatch.setattr(cli.ProblemConfig, "realization",
                            lambda self: built.append(self))
        out = tmp_path / "h.csv"
        assert cli.main(["recover", "--config", singular_cfg, "--samples",
                         "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: --samples must be positive\n"
        assert built == [] and not out.exists()

    def test_flags_do_not_change_bytes(self, seed10, tmp_path):
        # Recovery takes the profile route for every beta; a "flags" key is
        # ignored like any unknown key, so the output never depends on it.
        for r in (scalar_realization(), seed10):
            outs = []
            for flags in (None, {"threads": 1}, {"threads": 2},
                          {"route": "quadrature"}, {"route": "closed"}):
                cfg = write_config(tmp_path, config_dict(r, flags), "p.json")
                outs.append(str(tmp_path / f"h{len(outs)}.csv"))
                assert cli.main(["recover", "--config", cfg, "--samples", "6",
                                 "--out", outs[-1]]) == 0
            first = open(outs[0], "rb").read()
            assert all(open(o, "rb").read() == first for o in outs[1:])


# Reference writers: the per-cell loops the CSV tables were first written
# with.  The streaming writer must reproduce their bytes exactly.

def _f(v):
    return "%.17g" % v


def _reference_invert(cfg, grid, path):
    r = cfg.realization()
    kernel = inversion.InverseKernel.from_realization(r)
    xs = (np.arange(grid) + 0.5) * (r.length / grid)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if not kernel.invertible:
            basis = inversion.null_basis_values(kernel.fund,
                                                kernel.singular_report, xs)
            fh.write("fn,i,x,re,im\n")
            for fn_idx, values in enumerate(basis, start=1):
                for x, vec in zip(xs, values):
                    for i in range(r.p):
                        fh.write(f"{fn_idx},{i + 1},{_f(x)},"
                                 f"{_f(vec[i].real)},{_f(vec[i].imag)}\n")
            return
        block = kernel.block_values(xs, xs)
        fh.write("i,j,x,t,re,im\n")
        for i in range(r.p):
            for j in range(r.p):
                for a in range(grid):
                    row = block[i * grid + a]
                    for b in range(grid):
                        v = row[j * grid + b]
                        fh.write(f"{i + 1},{j + 1},{_f(xs[a])},{_f(xs[b])},"
                                 f"{_f(v.real)},{_f(v.imag)}\n")


def _reference_recover(cfg, samples, path):
    r = cfg.realization()
    xs = np.linspace(r.length / samples, r.length, samples)
    grid_data = canonical.recover_hamiltonian(r, xs)
    p = r.p
    headers = ["x"]
    for c in range(2 * p):
        for row in range(p):
            headers += [f"g{row + 1}_{c + 1}_re", f"g{row + 1}_{c + 1}_im"]
    for c in range(2 * p):
        for row in range(2 * p):
            headers += [f"h{row + 1}_{c + 1}_re", f"h{row + 1}_{c + 1}_im"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(headers) + "\n")
        for k, x in enumerate(grid_data.xs):
            cells = [_f(x)]
            gm, hm = grid_data.gammas[k], grid_data.hams[k]
            for c in range(2 * p):
                for row in range(p):
                    cells += [_f(gm[row, c].real), _f(gm[row, c].imag)]
            for c in range(2 * p):
                for row in range(2 * p):
                    cells += [_f(hm[row, c].real), _f(hm[row, c].imag)]
            fh.write(",".join(cells) + "\n")


class TestCsvLayout:
    @pytest.mark.parametrize("command, cfg_name, size, code", [
        ("invert", "seed10_cfg", 8, 0),
        ("invert", "seed10_cfg", 64, 0),
        ("invert", "bench_cfg", 64, 0),
        ("invert", "singular_cfg", 8, 2),
        ("invert", "two_level_cfg", 64, 2),
        ("recover", "seed10_cfg", 6, 0),
        ("recover", "scalar_cfg", 6, 0),
        ("recover", "bench_cfg", 50, 0),
    ])
    def test_matches_reference_writer(self, command, cfg_name, size, code,
                                      request, tmp_path):
        path = request.getfixturevalue(cfg_name)
        got, want = str(tmp_path / "got.csv"), str(tmp_path / "want.csv")
        flag = "--grid" if command == "invert" else "--samples"
        assert cli.main([command, "--config", path, flag, str(size),
                         "--out", got]) == code
        reference = _reference_invert if command == "invert" \
            else _reference_recover
        reference(cli.parse_config(path), size, want)
        assert open(got, "rb").read() == open(want, "rb").read()

    def test_writer_formats_like_each_cell(self, tmp_path):
        # Signed zero, subnormals, the float range's edge, exact and
        # inexact short values, and values that need all 17 digits.
        values = [-0.0, 5e-324, 1e-310, 1e308, 2.0, 0.1, 0.1 + 0.2, 1 / 3,
                  -1e308, -5e-324, 123456789.125, -2.5e-17]
        cells = np.array(values).reshape(-1, 2)
        heads = ["h1", "h2,x", "3"]
        chunks = [("a,", cells[:3]), ("", cells[3:])]
        path = tmp_path / "cells.csv"
        cli._write_csv(str(path), ("k", "re", "im"), heads, chunks)
        want = "k,re,im\n" + "".join(
            f"{lead}{head},{_f(a)},{_f(b)}\n"
            for lead, block in chunks for head, (a, b) in zip(heads, block))
        assert path.read_bytes() == want.encode()
        assert "a,h1,-0,4.9406564584124654e-324\n" in want  # signed zero


class TestUnwritableOutput:
    @pytest.mark.parametrize("command, flag", [
        ("invert", "--out"), ("recover", "--out"), ("verify", "--report")])
    def test_missing_directory_is_input_error(self, command, flag, scalar_cfg,
                                              tmp_path, capsys):
        target = tmp_path / "missing" / "out"
        assert cli.main([command, "--config", scalar_cfg,
                         flag, str(target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["invert", "--grid", "128"], "--out"),
        (["verify", "--level", "full"], "--report")])
    def test_unwritable_path_fails_before_the_work(self, argv, flag,
                                                   bench_cfg, tmp_path,
                                                   monkeypatch, capsys):
        calls = []
        for owner, name in ((inversion.InverseKernel, "block_values"),
                            (discretization, "discretize_operator")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        target = tmp_path / "missing" / "out"
        assert cli.main(argv + ["--config", bench_cfg,
                                flag, str(target)]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    def test_recover_checks_its_path_before_the_work(self, tmp_path,
                                                     monkeypatch, capsys):
        # At l = 4 recovery meets an interval it reports singular (exit 2);
        # the unwritable path is the input error, found before any work.
        r = random_realization(2, 2, 2, (2.0, 1.0), 4.0, 0.6)
        path = write_config(tmp_path, config_dict(r), "long.json")
        calls = []
        original = canonical.recover_hamiltonian
        monkeypatch.setattr(canonical, "recover_hamiltonian",
                            lambda *args: calls.append(args) or original(*args))
        target = tmp_path / "missing" / "out"
        assert cli.main(["recover", "--config", path, "--samples", "50",
                         "--out", str(target)]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    @pytest.mark.parametrize("command, flag", [
        ("invert", "--out"), ("recover", "--out"), ("verify", "--report")])
    def test_failed_work_leaves_the_path_as_it_was(self, command, flag,
                                                   scalar_cfg, tmp_path,
                                                   monkeypatch, capsys):
        # The early check of the path leaves nothing behind: work that
        # fails after it leaves no file, and an existing file as it was.
        target = tmp_path / "out"

        def failing(cfg):
            raise ValueError("work failed")

        monkeypatch.setattr(cli.ProblemConfig, "realization", failing)
        argv = [command, "--config", scalar_cfg, flag, str(target)]
        assert cli.main(argv) == 1
        assert not target.exists()
        target.write_text("earlier run\n")
        assert cli.main(argv) == 1
        assert target.read_text() == "earlier run\n"
        assert capsys.readouterr().err == "error: work failed\n" * 2


class TestExponentialsThroughLinalg:
    """Every command gets its matrix exponentials from linalg.exp_samples."""

    @pytest.fixture()
    def refused(self, monkeypatch):
        """Refuse linalg.mat_exp, and any dkinv module's copy of it or of
        scipy's expm; the calls refused are logged, since verify turns the
        exceptions of a check into sentinel rows."""
        calls = []
        mat_exp = linalg.mat_exp

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("matrix exponential outside exp_samples")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "dkinv":
                continue
            for key, value in list(vars(module).items()):
                if value is mat_exp or (
                        module is not linalg and callable(value)
                        and getattr(value, "__name__", "") == "expm"):
                    monkeypatch.setattr(module, key, refuse)
        return calls

    @pytest.mark.parametrize("argv, code, bound", [
        (["invert", "--grid", "16"], 0, 100),
        (["invert", "--grid", "128", "singular"], 2, 8),
        (["invert", "--grid", "128", "two-level"], 2, 16),
        (["recover", "--samples", "20"], 0, 200),
        (["verify", "--level", "full"], 0, 400),
        (["weyl", "--lambda", "0.3,0.6", "--density", "0.0,0.5"], 0, 0),
    ], ids=["invert", "invert-singular", "invert-two-level", "recover",
            "verify-full", "weyl"])
    def test_commands_use_exp_samples(self, argv, code, bound, refused,
                                      expm_slices, tmp_path, capsys):
        # Bounds on the Pade slices (68, 5, 11, 162, 300 and 0 measured);
        # one Pade expm per node and component made 2,400 for verify's S_N
        # alone, and one null-function evaluation per grid point 130 and
        # 261 for the singular tables.
        special = {"singular": singular_scalar_realization,
                   "two-level": two_level_singular_realization}
        r = special.get(argv[-1], bench_shape_realization)()
        argv = [a for a in argv if a not in special]
        argv += ["--config", write_config(tmp_path, config_dict(r))]
        if argv[0] == "verify":
            argv += ["--report", str(tmp_path / "report.json")]
        elif argv[0] != "weyl":
            argv += ["--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == code
        assert refused == []
        assert expm_slices[0] <= bound
        capsys.readouterr()


class TestVerify:
    def test_j_unitarity_evaluates_u_in_one_batch(self, bench_cfg, tmp_path,
                                                  monkeypatch):
        # One exponential call for e^{yA} U(y) on all segments and one for
        # e^{-yA}, where one call per segment made 4 and one call per
        # sample point 38.
        pade = linalg._expm
        calls = []
        inside = []

        def counting(a):
            if inside:
                calls.append(len(a))
            return pade(a)

        value = inversion.FundamentalSolution.value

        def batched(self, ys):
            inside.append(ys)
            try:
                return value(self, ys)
            finally:
                inside.pop()

        monkeypatch.setattr(linalg, "_expm", counting)
        monkeypatch.setattr(inversion.FundamentalSolution, "value", batched)
        report = str(tmp_path / "report.json")
        assert cli.main(["verify", "--config", bench_cfg, "--level", "full",
                         "--report", report]) == 0
        assert 0 < len(calls) <= 2
        assert json.load(open(report))["j_unitarity"]["value"] <= 1e-15

    def test_zero_data_quick_all_pass(self, zero_cfg, tmp_path, capsys):
        report = str(tmp_path / "report.json")
        assert cli.main(["verify", "--config", zero_cfg, "--level", "quick",
                         "--report", report]) == 0
        checks = json.load(open(report))
        assert set(checks) >= {"structure_identity", "j_unitarity",
                               "composition", "positivity_min_eig",
                               "gamma_metric", "similarity",
                               "weyl_inequality_margin"}
        for name, entry in checks.items():
            assert entry["pass"], name
            assert set(entry) == {"value", "tol", "pass"}
        out = capsys.readouterr().out
        assert out.count("pass") == len(checks)

    def test_scalar_full_passes_with_small_composition(self, scalar_cfg,
                                                       tmp_path):
        report = str(tmp_path / "report.json")
        assert cli.main(["verify", "--config", scalar_cfg, "--level", "full",
                         "--report", report]) == 0
        checks = json.load(open(report))
        assert checks["composition"]["value"] <= 5e-2
        assert checks["positivity_min_eig"]["value"] <= 0.0

    def test_identity_violation_fails(self, tmp_path, capsys):
        raw = config_dict(scalar_realization())
        raw["beta"] = [[[-1.0, 0.1]]]  # stray anti-Hermitian part
        path = write_config(tmp_path, raw, "broken.json")
        report = str(tmp_path / "report.json")
        assert cli.main(["verify", "--config", path, "--level", "quick",
                         "--report", report]) == 1
        checks = json.load(open(report))
        assert not checks["structure_identity"]["pass"]
        assert "FAIL" in capsys.readouterr().out

    def test_sentinel_rows_name_their_cause(self, tmp_path):
        # l = 4: S is positive definite, but the corner block is judged
        # singular, so three checks cannot run and must say why.
        r = random_realization(2, 2, 2, (2.0, 1.0), 4.0, 0.6)
        path = write_config(tmp_path, config_dict(r), "long.json")
        report = str(tmp_path / "report.json")
        assert cli.main(["verify", "--config", path, "--level", "quick",
                         "--report", report]) == 1
        checks = json.load(open(report))
        causes = {"composition": "SingularOperatorError: ",
                  "gamma_metric": "IntervalSingularityError: ",
                  "similarity": "IntervalSingularityError: "}
        for name, entry in checks.items():
            if name in causes:
                assert entry["value"] == 1e99 and not entry["pass"], name
                assert entry["error"].startswith(causes[name]), name
            else:
                assert "error" not in entry, name

    def _report(self, cfg, tmp_path):
        report = tmp_path / "report.json"
        assert cli.main(["verify", "--config", cfg, "--level", "quick",
                         "--report", str(report)]) == 1
        return json.loads(report.read_text())

    def test_failed_kernel_build_still_writes_report(self, scalar_cfg,
                                                     tmp_path, monkeypatch):
        builds = []

        def singular(realization):
            builds.append(realization)
            raise linalg.SingularMatrixError("singular corner", 3.6e-84)

        monkeypatch.setattr(inversion.InverseKernel, "from_realization",
                            singular)
        checks = self._report(scalar_cfg, tmp_path)
        assert len(checks) == 7 and len(builds) == 1
        needs_kernel = {"j_unitarity", "composition", "gamma_metric",
                        "similarity"}
        for name, entry in checks.items():
            if name in needs_kernel:
                assert entry["value"] == 1e99 and not entry["pass"], name
                assert entry["error"].startswith(
                    "SingularMatrixError: singular corner"), name
            else:
                assert entry["pass"] and "error" not in entry, name

    def test_similarity_failure_keeps_gamma_metric(self, scalar_cfg,
                                                   tmp_path, monkeypatch):
        def broken(gx, diag):
            raise ValueError("no similarity")

        monkeypatch.setattr(canonical, "similarity_factor", broken)
        checks = self._report(scalar_cfg, tmp_path)
        assert checks["similarity"] == {
            "value": 1e99, "tol": 1e-6, "pass": False,
            "error": "ValueError: no similarity"}
        assert checks["gamma_metric"]["pass"]
        assert "error" not in checks["gamma_metric"]

    def test_any_exception_becomes_a_sentinel(self, scalar_cfg, tmp_path,
                                              monkeypatch):
        def broken(op):
            raise RuntimeError("Lanczos broke down")

        monkeypatch.setattr(discretization, "positivity_spectrum", broken)
        checks = self._report(scalar_cfg, tmp_path)
        assert checks["positivity_min_eig"]["error"] == (
            "RuntimeError: Lanczos broke down")
        assert [name for name, entry in checks.items()
                if not entry["pass"]] == ["positivity_min_eig"]

    def test_builds_nystrom_objects_once(self, scalar_cfg, tmp_path,
                                         monkeypatch):
        calls = {"discretize_operator": 0, "profile_samples": 0}
        for name in calls:
            original = getattr(discretization, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(discretization, name, counted)
        assert cli.main(["verify", "--config", scalar_cfg, "--level", "full",
                         "--report", str(tmp_path / "r.json")]) == 0
        assert calls == {"discretize_operator": 1, "profile_samples": 1}

    def test_full_level_forms_no_dense_spectrum_or_product(
            self, bench_cfg, tmp_path, monkeypatch):
        # No Cholesky factor, solve or spectrum of an operand with p*N rows
        # or more: S_N is factored block by block, positivity is certified
        # without a dense eigvalsh, and T_N only multiplies vectors.
        size = bench_shape_realization().p * 400
        calls = {"cholesky": [], "solve": [], "eigvalsh": []}
        for name, shapes in calls.items():
            def counted(a, *args, _original=getattr(np.linalg, name),
                        _shapes=shapes, **kwargs):
                _shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert cli.main(["verify", "--config", bench_cfg, "--level", "full",
                         "--report", str(tmp_path / "r.json")]) == 0
        assert len(calls["cholesky"]) >= 2
        assert {name: [shape for shape in shapes if shape[-2] >= size]
                for name, shapes in calls.items()} == {
                    name: [] for name in calls}

    def test_full_level_allocates_no_dense_s_n(self, bench_cfg, tmp_path,
                                              monkeypatch):
        # Each Nystrom stage runs under tracemalloc, and what it allocates
        # above its starting point stays below half of one (p*N) x (p*N)
        # complex array (23 MB here).  The composition stage counts from
        # its start: T_N, like S_N, only multiplies vectors.
        size = bench_shape_realization().p * 400
        grown = {}

        def watched(name):
            original = getattr(discretization, name)

            def wrapper(*args, **kwargs):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                out = original(*args, **kwargs)
                grown[name] = tracemalloc.get_traced_memory()[1] - start
                return out

            monkeypatch.setattr(discretization, name, wrapper)

        for name in ("discretize_operator", "composition_residual",
                     "positivity_spectrum", "discrete_matrizant"):
            watched(name)
        tracemalloc.start()
        try:
            assert cli.main(["verify", "--config", bench_cfg, "--level",
                             "full", "--report", str(tmp_path / "r.json")]) == 0
        finally:
            tracemalloc.stop()
        assert sorted(grown) == ["composition_residual", "discrete_matrizant",
                                 "discretize_operator", "positivity_spectrum"]
        assert max(grown.values()) <= 0.5 * 16 * size ** 2, grown

    def test_unknown_level_is_usage_error(self, scalar_cfg, tmp_path):
        # argparse rejects the choice; the tool maps usage errors to 1.
        assert cli.main(["verify", "--config", scalar_cfg, "--level", "bogus",
                         "--report", str(tmp_path / "r.json")]) == 1


class TestWeyl:
    def test_high_frequency_limit(self, seed10_cfg, capsys, seed10):
        assert cli.main(["weyl", "--config", seed10_cfg,
                         "--lambda", "0,1e6"]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        phi = np.array([[complex(a, b) for a, b in row]
                        for row in line["phi"]])
        want = 1j * seed10.diag.matrix / 2
        assert np.abs(phi - want).max() <= 1e-4

    def test_scalar_value_at_i(self, scalar_cfg, capsys):
        assert cli.main(["weyl", "--config", scalar_cfg,
                         "--lambda", "0,1"]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        phi = complex(*line["phi"][0][0])
        assert phi == pytest.approx(-0.5 + 1.0j, abs=1e-9)

    def test_pole_produces_error_record_and_continues(self, scalar_cfg,
                                                      capsys):
        # note the = form: a value starting with '-' needs it under argparse
        assert cli.main(["weyl", "--config", scalar_cfg,
                         "--lambda=-1,0,0,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        assert "error" in first and first["lambda"] == [-1.0, 0.0]
        assert "phi" in second

    def test_density_samples(self, seed10_cfg, capsys):
        assert cli.main(["weyl", "--config", seed10_cfg, "--lambda", "0,1",
                         "--density", "0.3,1.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for raw in lines[1:]:
            rec = json.loads(raw)
            dens = np.array([[complex(a, b) for a, b in row]
                             for row in rec["density"]])
            assert np.linalg.eigvalsh(dens)[0] >= -1e-12

    def test_density_at_an_eigenvalue_is_an_error_record(self, scalar_cfg,
                                                          capsys):
        # beta = -1: phi has a pole at t = -1, where the spectral mass is a
        # point jump; that t gets an error record and t = 0.5 still prints.
        assert cli.main(["weyl", "--config", scalar_cfg, "--lambda",
                         "0.3,0.6", "--density=0.0,-1.0,0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines[1:]]
        assert [rec["t"] for rec in records] == [0.0, -1.0, 0.5]
        assert "density" in records[0] and "density" in records[2]
        assert set(records[1]) == {"t", "error"}
        assert records[1]["error"].startswith("t = -1.0 is a real eigenvalue")

    def test_zero_data_density_at_its_eigenvalue(self, zero_cfg, capsys):
        # beta = 0 and theta2 = 0: t = 0 is beta's eigenvalue, but theta2
        # misses it, so the density exists there and is D / 2 pi.
        assert cli.main(["weyl", "--config", zero_cfg, "--lambda", "0.3,0.6",
                         "--density", "0.0"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[1])
        d = zero_realization().diag.matrix
        assert record == {"t": 0.0, "density": [
            [[d[i, j].real / (2 * math.pi), 0.0] for j in range(2)]
            for i in range(2)]}

    def test_density_requires_identity(self, singular_cfg, capsys):
        assert cli.main(["weyl", "--config", singular_cfg, "--lambda", "0,1",
                         "--density", "0.5"]) == 1
        assert "structure identity" in capsys.readouterr().err

    def test_odd_lambda_count_rejected(self, scalar_cfg, capsys):
        assert cli.main(["weyl", "--config", scalar_cfg,
                         "--lambda", "0,1,2"]) == 1
        assert "even number" in capsys.readouterr().err

    def test_non_numeric_lambda_rejected(self, scalar_cfg):
        assert cli.main(["weyl", "--config", scalar_cfg,
                         "--lambda", "0,abc"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--lambda", "0.3,0.6,nan,1"], ["--lambda", "0.3,0.6,inf,0"],
        ["--lambda", "0.3,0.6", "--density", "0.0,nan"]],
        ids=["lambda-nan", "lambda-inf", "density-nan"])
    def test_non_finite_values_refused_before_output(self, scalar_cfg,
                                                     flags, capsys):
        assert cli.main(["weyl", "--config", scalar_cfg] + flags) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and flags[-2] in err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "invert" in capsys.readouterr().out


class TestEquivalenceUnderResort:
    def test_weyl_output_identical_after_resort(self, tmp_path, seed10,
                                                capsys):
        cfg_sorted = write_config(tmp_path, config_dict(seed10), "s.json")
        raw = config_dict(seed10)
        raw["d"] = raw["d"][::-1]
        raw["theta1"] = [[row[1], row[0]] for row in raw["theta1"]]
        raw["theta2"] = [[row[1], row[0]] for row in raw["theta2"]]
        cfg_unsorted = write_config(tmp_path, raw, "u.json")

        assert cli.main(["weyl", "--config", cfg_sorted,
                         "--lambda", "0.3,0.6"]) == 0
        out_sorted = capsys.readouterr().out
        assert cli.main(["weyl", "--config", cfg_unsorted,
                         "--lambda", "0.3,0.6"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out_sorted
        assert "re-sorted" in captured.err


def _readme_command_line():
    """The JSON block and the sh block of README's "Command line" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return config, commands


# `verify --level full` on the README example, recorded with the dense
# per-lambda solves of the earlier matrizant, and the similarity row as
# ||L^{-1} L - I||_F: (value, pass) per check.
_README_FULL_REPORT = {
    "composition": (0.0021145144670379557, True),
    "gamma_metric": (7.763457343831856e-15, True),
    "j_unitarity": (1.0987541673720122e-16, True),
    "positivity_min_eig": (-0.5232745250418815, True),
    "similarity": (9.445291352680083e-15, True),
    "structure_identity": (8.372114093586462e-17, True),
    "weyl_inequality_margin": (0.0, True),
}


class TestReadmeExample:
    def test_documented_commands_exit_zero(self, tmp_path, monkeypatch):
        # The dkinv command lines of the README, run as documented.
        config, commands = _readme_command_line()
        monkeypatch.chdir(tmp_path)
        (tmp_path / "problem.json").write_text(config, encoding="utf-8")
        lines = [shlex.split(line) for line in commands.splitlines()
                 if line.startswith("dkinv ")]
        assert [argv[1] for argv in lines] == [
            "invert", "recover", "verify", "weyl"]
        for argv in lines:
            assert cli.main(argv[1:]) == 0, " ".join(argv)

    def test_full_verify_report_values(self, tmp_path):
        # Rows at rounding level (below 1e-13) carry a 1e-14 absolute floor,
        # so a different BLAS build cannot fail them; every other row is
        # held to 1e-10 relative.
        config, _ = _readme_command_line()
        path = tmp_path / "problem.json"
        path.write_text(config, encoding="utf-8")
        report = str(tmp_path / "report.json")
        assert cli.main(["verify", "--config", str(path), "--level", "full",
                         "--report", report]) == 0
        checks = json.load(open(report))
        assert set(checks) == set(_README_FULL_REPORT)
        for name, (value, passed) in _README_FULL_REPORT.items():
            assert checks[name]["value"] == pytest.approx(
                value, rel=1e-10, abs=1e-14), name
            assert checks[name]["pass"] is passed, name
