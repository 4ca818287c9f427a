import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heismin import heis, verify

coord = st.floats(-10, 10, allow_nan=False)
points = st.builds(heis.HPoint, coord, coord, coord)


@given(points, points, points)
def test_group_mul_associative(p, q, r):
    left = heis.group_mul(heis.group_mul(p, q), r)
    right = heis.group_mul(p, heis.group_mul(q, r))
    assert np.allclose(left.as_array(), right.as_array(), atol=1e-9)


@given(points)
def test_group_identity_and_inverse(p):
    e = heis.HPoint(0.0, 0.0, 0.0)
    assert heis.group_mul(p, e) == p
    assert heis.group_mul(e, p) == p
    # the inverse is the negation: the twist term cancels for (-x, -y, -z)
    inv = heis.HPoint(-p.x, -p.y, -p.z)
    assert heis.group_mul(p, inv) == e
    assert heis.group_mul(inv, p) == e


def test_frame_is_contact_adapted():
    p = heis.HPoint(1.3, -0.7, 2.0)
    e1, e2, t = [1.0, 0.0, p.y], [0.0, 1.0, -p.x], [0.0, 0.0, 1.0]
    assert heis.contact_value(p, e1) == 0.0
    assert heis.contact_value(p, e2) == 0.0
    assert heis.contact_value(p, t) == 1.0


def test_coord_frame_round_trip():
    # the (e1*, e2*, T)-coefficients the chart verifiers read recombine to v
    p = heis.HPoint(0.4, 1.1, -0.2)
    v = np.array([0.3, -0.8, 1.7])
    c1, c2, cT = verify._frame_coords(p, v)
    back = c1 * np.array([1.0, 0.0, p.y]) + c2 * np.array([0.0, 1.0, -p.x]) \
        + cT * np.array([0.0, 0.0, 1.0])
    assert np.allclose(back, v, atol=1e-14)


def test_motions_preserve_contact_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = heis.RigidMotion(heis.HPoint(*rng.uniform(-2, 2, 3)),
                             rng.uniform(0, 2 * math.pi))
        p = heis.HPoint(*rng.uniform(-2, 2, 3))
        v = rng.uniform(-1, 1, 3)
        q, w = heis.apply_motion(m, p), heis.motion_matrix(m) @ v
        assert heis.contact_value(q, w) == pytest.approx(
            heis.contact_value(p, v), abs=1e-12)


def test_motion_matrix_is_the_differential():
    m = heis.RigidMotion(heis.HPoint(0.5, -1.2, 0.3), 0.8)
    p = heis.HPoint(0.2, 0.9, -0.4)
    v = np.array([0.7, -0.1, 0.5])
    h = 1e-6
    fd = (heis.apply_motion(m, heis.HPoint(*(p.as_array() + h * v))).as_array()
          - heis.apply_motion(m, heis.HPoint(*(p.as_array() - h * v))).as_array()
          ) / (2 * h)
    assert np.allclose(fd, heis.motion_matrix(m) @ v, atol=1e-8)


def test_compose_matches_sequential_application():
    m1 = heis.RigidMotion(heis.HPoint(1.0, 0.5, -0.2), 0.3)
    m2 = heis.RigidMotion(heis.HPoint(-0.4, 0.8, 1.1), -1.2)
    p = heis.HPoint(0.6, -0.3, 0.9)
    via_compose = heis.apply_motion(heis.compose(m2, m1), p)
    sequential = heis.apply_motion(m2, heis.apply_motion(m1, p))
    assert np.allclose(via_compose.as_array(), sequential.as_array(),
                       atol=1e-12)


def test_identity_motion_fixes_everything():
    p = heis.HPoint(1.0, 2.0, 3.0)
    assert heis.apply_motion(heis.RigidMotion.identity(), p) == p
