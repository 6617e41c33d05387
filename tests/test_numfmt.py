"""The exact vectorized formatter against Python's own ``%.17g`` and ``%.3f``."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambdaphase.numfmt import format_table


def assert_formats_like_python(values, spec):
    """format_table of a one-column table, line by line against ``spec % value``."""
    values = np.asarray(values, dtype=float)
    for start in range(0, len(values), 4096):
        block = values[start:start + 4096]
        got = format_table(block[:, None], spec, b"\n").split(b"\n")
        want = [spec % value for value in block.tolist()] + [b""]
        mismatches = [(value, g, w) for value, g, w in zip(block.tolist(), got, want)
                      if g != w]
        assert not mismatches, mismatches[:5]
        assert len(got) == len(want)


def odd_fractions(bits):
    """Every odd q / 2**bits in [0.1, 1), each exact as a double."""
    q = np.arange(1, 2**bits, 2)
    values = q / 2.0**bits
    return values[values >= 0.1]


def test_general_ties_at_the_17th_digit_round_half_to_even():
    # q / 2**18 = q * 5**18 / 10**18 ends in a 5 at the 18th significant
    # digit: an exact tie, which round-half-up gets wrong for half of them
    assert_formats_like_python(odd_fractions(18), b"%.17g")
    assert_formats_like_python(odd_fractions(19), b"%.17g")


def test_general_around_powers_of_ten():
    # where the log10 guess of the exponent misses, and where %g switches
    # between fixed and exponent notation (1e-5 and 1e17)
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    assert_formats_like_python(np.concatenate([powers, np.nextafter(powers, 0.0),
                                               np.nextafter(powers, math.inf)]), b"%.17g")


def test_general_integers_and_single_ulps():
    assert_formats_like_python([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                                2.0**53, 2.0**53 + 2, 99999999999999999.0,
                                12345678901234567.0, 0.1, 0.3, 2.0 / 3.0], b"%.17g")


def test_general_values_left_to_python():
    assert_formats_like_python([0.0, -0.0, -1.5, -1e-17, 5e-324, 2.2250738585072009e-308,
                                1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
                                math.inf, -math.inf, math.nan,
                                -2.2250738585072014e-308], b"%.17g")


def test_fixed_pixels_around_the_route_edges():
    edges = np.array([10.0, 100.0, 1000.0])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2000.0),
                           edges - 0.0005, edges + 0.0005, edges - 0.00049999999,
                           [9.9995, 99.9995, 999.9995, 999.99949999999, 64.0, 814.0]])
    assert_formats_like_python(near, b"%.3f")
    assert_formats_like_python([-0.0, 0.0, -5.0, -64.25, -1234.5, 0.0005, 1e300,
                                math.inf, -math.inf, math.nan], b"%.3f")


def test_fixed_ties_round_half_to_even():
    # k / 1024 with k = 64 (mod 128) is an exact tie at the third decimal
    ties = (np.arange(80, 8000) * 128 + 64) / 1024
    assert_formats_like_python(ties, b"%.3f")
    assert_formats_like_python(np.arange(10240, 10240 + 4096) / 1024, b"%.3f")


@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_formats_any_double_like_python(values):
    assert_formats_like_python(values, b"%.17g")
    assert_formats_like_python(values, b"%.3f")


@pytest.mark.parametrize("spec", [b"%.17g", b"%.3f"])
def test_table_cells_take_their_column_separator(spec):
    rng = np.random.default_rng(3)
    table = rng.random((7, 3)) * 500 + 10
    table[2, 1] = math.nan
    want = b"".join(spec % table[i, 0] + b"," + spec % table[i, 1] + b";"
                    + spec % table[i, 2] + b"\n" for i in range(7))
    assert format_table(table, spec, b",;\n") == want


def test_rejects_another_format():
    with pytest.raises(ValueError, match="unsupported format"):
        format_table(np.ones((2, 2)), b"%.6e", b",\n")
