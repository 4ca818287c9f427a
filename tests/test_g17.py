"""g17.rows writes each value as '%.17g' % v does, byte for byte."""
import numpy as np
from hypothesis import given, settings, strategies as st

from heismin import g17
from test_cli import SPECIAL


def reference(values):
    return "".join("%.17g\n" % v for v in values)


def test_rows_match_percent_g_on_the_edge_values():
    # a power of ten and its float neighbours: the float 1e-06 is below
    # 10^-6, and 10^22 times it rounds up to 10^16, one digit short
    powers = [10.0**j for j in range(-13, 19)]
    values = [float(v) for v in SPECIAL] + powers
    values += [np.nextafter(v, to) for v in powers for to in (0.0, np.inf)]
    values += [-v for v in values]
    assert g17.rows([values], ["", "\n"]) == reference(values)


def test_rows_match_percent_g_on_a_million_bit_patterns():
    # random sign and significand bits; the exponent bits of the first 2^20
    # span 2^-40 .. 2^60, the table's range [1e-11, 1e17) with a margin on
    # each side (beyond it every value is '%.17g' % v itself), and those of
    # the last 2^14 are random too: zero, subnormals, inf and nan
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, 2**20 + 2**14, dtype=np.uint64, endpoint=False)
    exponent = rng.integers(1023 - 40, 1023 + 60, 2**20).astype(np.uint64) << np.uint64(52)
    bits[:2**20] = bits[:2**20] & ~np.uint64(0x7FF << 52) | exponent
    values = bits.view(float)
    for a in range(0, values.size, 2**16):
        block = values[a:a + 2**16]
        assert g17.rows([block], ["", "\n"]) == reference(block.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40), st.lists(st.floats(1e-12, 1e18), max_size=40))
def test_rows_match_percent_g_on_any_floats(anywhere, inside):
    values = anywhere + inside + [-v for v in inside]
    assert g17.rows([values], ["", "\n"]) == reference(values)


def test_rows_join_the_columns_with_their_separators():
    cols = [[1.5, -2.0, 0.25], [3e-7, 1e20, -0.0]]
    assert g17.rows(cols, ["v ", " ", "\n"]) == "".join(
        f"v {a:.17g} {b:.17g}\n" for a, b in zip(*cols))
    assert g17.rows([[], []], ["", ",", "\n"]) == ""
