"""g17.Writer reuses its work arrays and text buffer across blocks: no
block's bytes survive into the next."""
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
