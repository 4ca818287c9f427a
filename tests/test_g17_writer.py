"""g17.Writer reuses its work arrays and text buffer across blocks: no
block's bytes survive into the next.  Its slots hold separators of any
length, and broadcast columns write the rows of their broadcast."""
import numpy as np

from heismin import g17


def reference(columns, seps):
    return "".join(seps[0] + "".join("%.17g%s" % (v, s) for v, s in zip(row, seps[1:]))
                   for row in zip(*columns))


def test_one_writer_formats_blocks_of_any_shape_back_to_back():
    rng = np.random.default_rng(11)
    trajectory = rng.standard_normal((4, 300)) * 10.0 ** rng.integers(-12, 18, (4, 300))
    fallbacks = [np.nan, 5e-324, -2.5e-310, 1e300, -np.inf, 0.0, -0.0, 1e-12, 1e17]
    writer = g17.Writer(1200)
    blocks = [
        ([trajectory[0]], ["", "\n"]),                                  # 1 column
        (list(trajectory[:3]), ["", ",", ",", "\n"]),                   # 3 columns
        (list(trajectory), ["v ", " ", " ", " ", "\n"]),                # 4 columns
        ([c[:7] for c in trajectory[:3]], ["", ",", ",", "\n"]),        # a short block
        ([fallbacks, fallbacks[::-1]], ["", ",", "\n"]),                # all '%' fallbacks
        ([trajectory[1], trajectory[2]], ["", ",", "\n"]),             # then a clean one
        ([trajectory[3][:5]], ["[", "] ;; separators past the words\n"]),
        (list(trajectory[:3]), ["", ",", ",", "\n"]),
    ]
    for columns, seps in blocks:
        assert writer.rows(columns, seps) == reference(columns, seps)
    assert writer.rows([[], []], ["", ",", "\n"]) == ""


EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.2e17, 1e-5, 9.999999999999999e16, 1.0]


def test_every_separator_length_fits_its_slot():
    # separators of 0 to 13 bytes in each position, the row's end and start
    # sharing the last value's slot, over values that fill their words and
    # values that take '%'
    rng = np.random.default_rng(3)
    cols = [EDGES + (rng.standard_normal(30) * 10.0 ** rng.integers(-12, 18, 30)).tolist()
            for _ in range(3)]
    writer, base = g17.Writer(200), ["", ",", ",", "\n"]
    mismatches = []
    for position in range(4):
        for n in range(14):
            seps = [*base[:position], "abcdefghijklm"[:n], *base[position + 1:]]
            if writer.rows(cols, seps) != reference(cols, seps):
                mismatches.append((position, n))
    assert mismatches == []


def test_broadcast_columns_are_the_block_of_their_broadcast():
    # a grid's (A, 1) outer and (1, B) inner coordinates against its (A, B)
    # values: each coordinate is formatted once, and the rows are those of the
    # coordinates repeated, in C order
    rng = np.random.default_rng(7)
    outer = np.array([*EDGES, 0.25, -3.5])[:, None]
    inner = np.array([2.5, *EDGES[::-1], -1e-300])[None, :]
    values = rng.standard_normal((outer.size, inner.size)) * 10.0 ** rng.integers(-8, 8, 1)
    values[0, :3] = [np.nan, -0.0, 5e-324]
    writer, seps = g17.Writer(200), ["", ",", ",", ",", "\n"]
    columns = [outer, inner, inner, values]
    flat = [np.broadcast_to(c, values.shape).ravel() for c in columns]
    assert writer.rows(columns, seps) == reference(flat, seps)
    # one outer row, its inner columns 1-D, which broadcast as (1, B)
    row, three = [outer[:1], inner[0], values[0]], ["", ",", ",", "\n"]
    assert writer.rows(row, three) == reference(
        [np.broadcast_to(c, inner.shape).ravel() for c in row], three)
    assert g17.rows(columns, seps) == reference(flat, seps)
