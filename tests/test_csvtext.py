"""The CSV formatter: every cell is byte-equal to ``"%.17g" % v``."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkinv import csvtext
from dkinv.inversion import InverseKernel

from conftest import bench_shape_realization


def _cells(values):
    """format_cells of ``values`` and the texts ``%`` gives, cell by cell."""
    values = np.asarray(values, dtype=float).reshape(-1)
    got = csvtext.format_cells(values).tobytes().translate(None, b"\0")
    want = "".join(",%.17g" % v for v in values.tolist())
    return got.decode().split(","), want.split(",")


def _neighbours(x):
    down = np.nextafter(x, -np.inf)
    up = np.nextafter(x, np.inf)
    return [np.nextafter(down, -np.inf), down, x, up, np.nextafter(up, np.inf)]


EDGES = (
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
     2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
     9.9999999999999995e-5, 9.9999999999999995e-17, 99999999999999999.0,
     0.1, 0.1 + 0.2, 1 / 3, 123456789.125, 1e16 - 2, 2.0 ** 53 + 2]
    + [v for x in (1e-280, 1e280, 1e-5, 1e-4, 1e16, 1e17)
       for v in _neighbours(x)])
# Integers times powers of two: the exact ties among them (2^-25 is one,
# its 18th significant digit a final 5) are the cases ``%`` decides.
SCALED = [m * 2.0 ** e for m in range(1, 32, 2) for e in range(-90, 65)]


def _is_tie(v):
    k = math.floor(math.log10(v))
    return (Fraction(v) * Fraction(10) ** (16 - k)).denominator == 2


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_any_floats(values):
    got, want = _cells(values)
    assert got == want


def test_random_bit_patterns():
    # Every double is equally likely, so most are far from 1: the range
    # checks, subnormals, infinities and NaNs all take their own paths.
    bits = np.random.default_rng(25).integers(
        0, 2 ** 63, size=10 ** 5, dtype=np.uint64, endpoint=False)
    values = np.concatenate([bits, bits | np.uint64(1 << 63)]).view(float)
    got, want = _cells(values)
    assert got == want


def test_every_decade_and_its_neighbours():
    values = [v for k in range(-320, 309) for v in _neighbours(10.0 ** k)]
    got, want = _cells(values)
    assert got == want


@pytest.mark.parametrize("value", EDGES)
def test_edge_value_alone(value):
    # A block of one magnitude takes the narrowest row it allows.
    got, want = _cells([value, -value])
    assert got == want


def test_edge_values_together():
    got, want = _cells(EDGES + SCALED)
    assert got == want
    assert csvtext.format_cells([]).size == 0


def test_ties_are_left_to_percent():
    ties = [v for v in SCALED if _is_tie(v)]
    assert 2.0 ** -25 in ties
    assert csvtext._decimal(np.array(ties))[2].tolist() == list(range(len(ties)))


def test_powers_of_ten_are_double_doubles():
    for q in range(-300, 309):
        exact = Fraction(10) ** q
        hi, lo = csvtext._pow10(q)
        assert hi == float(exact) and lo == float(exact - Fraction(hi)), q


def test_kernel_table_takes_no_fallback():
    # The invert table of the benchmark's seed 9 is decided by the vector
    # path in every cell.
    r = bench_shape_realization()
    xs = (np.arange(128) + 0.5) * (r.length / 128)
    values = InverseKernel.from_realization(r).block_values(xs, xs)
    assert csvtext._decimal(values.view(float).reshape(-1))[2].size == 0


def test_lines_join_leads_heads_and_cells():
    rng = np.random.default_rng(3)
    leads, heads = ["", "a,", "long lead,"], ["h", "", "1.5,x"]
    cells = rng.standard_normal((9, 3)) * 10.0 ** rng.integers(-8, 20, (9, 3))
    want = "".join(
        f"{lead}{head}" + "".join(",%.17g" % v for v in cells[3 * a + b])
        + "\n" for a, lead in enumerate(leads) for b, head in enumerate(heads))
    assert csvtext.format_lines(leads, heads, cells) == want.encode()
