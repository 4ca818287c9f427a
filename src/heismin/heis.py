"""Heisenberg group H1: group arithmetic, contact/CR structure, adapted
metric and rigid motions.

H1 is R^3 with the twisted product

    (x1,y1,z1) o (x2,y2,z2) = (x1+x2, y1+y2, z1+z2 + y1*x2 - x1*y2),

the contact form Theta = dz + x dy - y dx, and the left-invariant frame

    e1* = d/dx + y d/dz,   e2* = d/dy - x d/dz,   T = d/dz,

declared orthonormal by the adapted metric.  Everything downstream
(surface invariants, ruled constructions, graph verifications) is
expressed against this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPoint


@dataclass(frozen=True)
class HPoint:
    """A point of H1 in the underlying R^3 coordinates."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class FrameVector:
    """A tangent vector written in the left-invariant frame (e1*, e2*, T).

    The basepoint is carried so the conversion to a coordinate vector is
    unambiguous.  The vector is horizontal iff cT == 0.
    """

    c1: float
    c2: float
    cT: float
    base: HPoint

    @property
    def norm(self) -> float:
        return math.sqrt(self.c1**2 + self.c2**2 + self.cT**2)

    def to_coord(self) -> np.ndarray:
        """Coordinate components of the same tangent vector."""
        e1, e2, t = frame_at(self.base)
        return self.c1 * e1 + self.c2 * e2 + self.cT * t


@dataclass(frozen=True)
class RigidMotion:
    """A Heisenberg rigid motion: rotation about the z-axis followed by a
    left translation.  (Reflections are deliberately excluded; this
    subgroup covers every congruence used in the library.)"""

    translation: HPoint
    rotation_angle: float = 0.0

    @staticmethod
    def identity() -> "RigidMotion":
        return RigidMotion(HPoint(0.0, 0.0, 0.0), 0.0)


def group_mul(p: HPoint, q: HPoint) -> HPoint:
    return HPoint(
        p.x + q.x,
        p.y + q.y,
        p.z + q.z + p.y * q.x - p.x * q.y,
    )


def group_inv(p: HPoint) -> HPoint:
    # The twist term cancels for (-x,-y,-z): y*(-x) - x*(-y) = 0.
    return HPoint(-p.x, -p.y, -p.z)


def contact_value(p: HPoint, v) -> float:
    """Theta(v) = v_z + x v_y - y v_x for a coordinate tangent vector v at p."""
    return float(v[2] + p.x * v[1] - p.y * v[0])


def frame_at(p: HPoint):
    """Coordinate expressions of (e1*, e2*, T) at p."""
    e1 = np.array([1.0, 0.0, p.y])
    e2 = np.array([0.0, 1.0, -p.x])
    t = np.array([0.0, 0.0, 1.0])
    return e1, e2, t


def coord_to_frame(p: HPoint, v) -> FrameVector:
    """Decompose a coordinate tangent vector at p in the left-invariant frame.

    The T-coefficient is exactly Theta(v).
    """
    return FrameVector(float(v[0]), float(v[1]), contact_value(p, v), p)


def J_rotate(v: FrameVector, tol: float = 1e-12) -> FrameVector:
    """The CR rotation J on horizontal vectors: (c1,c2,0) -> (-c2,c1,0)."""
    if abs(v.cT) > tol:
        raise SingularPoint(f"J is only defined on horizontal vectors (cT={v.cT})")
    return FrameVector(-v.c2, v.c1, 0.0, v.base)


def motion_matrix(m: RigidMotion) -> np.ndarray:
    """Differential of the motion as a 3x3 matrix on coordinate vectors.

    Composition of the z-axis rotation differential with the differential
    of left translation by m.translation.
    """
    c, s = math.cos(m.rotation_angle), math.sin(m.rotation_angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    p = m.translation
    dl = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [p.y, -p.x, 1.0]])
    return dl @ rot


def apply_motion(m: RigidMotion, p: HPoint) -> HPoint:
    """Rotate (x, y) about the z-axis (fixing z), then left-translate."""
    c, s = math.cos(m.rotation_angle), math.sin(m.rotation_angle)
    rotated = HPoint(c * p.x - s * p.y, s * p.x + c * p.y, p.z)
    return group_mul(m.translation, rotated)


def push_forward(m: RigidMotion, p: HPoint, v):
    """Push a coordinate tangent vector v at p forward through the motion.

    Returns (image point, image coordinate vector).  Motions preserve
    Theta, so contact vectors map to contact vectors.
    """
    return apply_motion(m, p), motion_matrix(m) @ np.asarray(v, dtype=float)


def compose(m2: RigidMotion, m1: RigidMotion) -> RigidMotion:
    """The motion acting as m2 after m1."""
    # m2(m1(p)) = t2 o R2 (t1 o R1 p) = (t2 o R2 t1) o (R2 R1) p,
    # since the z-rotation is a group automorphism.
    c, s = math.cos(m2.rotation_angle), math.sin(m2.rotation_angle)
    t1 = m2.translation, m1.translation
    r2t1 = HPoint(c * t1[1].x - s * t1[1].y, s * t1[1].x + c * t1[1].y, t1[1].z)
    return RigidMotion(group_mul(m2.translation, r2t1),
                       m2.rotation_angle + m1.rotation_angle)
