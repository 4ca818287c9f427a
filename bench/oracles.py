"""Correctness oracles for the benchmark's operations.

Every oracle recomputes the expected answer from the benchmark's own
formulas (closed forms, a separate RK4 loop, Gauss-Legendre and Simpson
quadrature on numpy arrays) and never calls into heismin, so a wrong
result from the timed code path cannot vouch for itself.  Each oracle
raises OracleError with a one-line reason when the result misses its
tolerance.
"""
from __future__ import annotations

import io
import math

import numpy as np


class OracleError(Exception):
    pass


def _require(ok, what):
    if not ok:
        raise OracleError(what)


def _table(text, ncols):
    """Parse CSV output with a header line into an (n, ncols) array."""
    try:
        arr = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise OracleError(f"unparsable CSV: {exc}") from None
    _require(arr.shape[1] == ncols, f"CSV has {arr.shape[1]} columns, not {ncols}")
    return arr


def _close(got, want, tol, what, rel=False):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    scale = np.maximum(1.0, np.abs(want)) if rel else 1.0
    err = np.abs(got - want) / scale
    worst = float(np.max(err)) if err.size else 0.0
    _require(np.all(np.isfinite(got)) and worst <= tol,
             f"{what}: error {worst:.3g} > {tol:g}")
    return worst


# ------------------------------------------------------------ closed forms

def family_alpha(family, params, x):
    """alpha and alpha' of the c = 0 closed-form families."""
    x = np.asarray(x, dtype=float)
    if family == "SpecialI":
        a = 1.0 / (x + params[0])
        return a, -a * a
    if family == "SpecialII":
        a = 1.0 / (2.0 * x + params[0])
        return a, -2.0 * a * a
    if family == "General":
        X = x + params[0]
        den = X * X + params[1]
        return X / den, (params[1] - X * X) / (den * den)
    raise OracleError(f"unknown family {family}")


# ------------------------------------------------------------ quadrature

def check_round_trip(curve, out, tol=1e-6):
    """Zeta round trip of a seeded curve (criterion 7's shape).

    out holds zeta1/zeta2 of the original curve and of the rebuilt curve
    at the sample angles.  The original zetas are recomputed here:
    zeta2 = Theta(C') - D^2 in closed form and zeta1 = D - int Q by
    Gauss-Legendre quadrature; the rebuilt ones must agree after the
    translation gauge (a constant offset of zeta1)."""
    ts = np.asarray(out["ts"], dtype=float)
    x, y, z = (curve.value(i, ts) for i in range(3))
    xp, yp, zp = (curve.deriv(i, ts) for i in range(3))
    D = yp * np.cos(ts) - xp * np.sin(ts)
    z2 = zp + x * yp - y * xp - D * D
    nodes, weights = np.polynomial.legendre.leggauss(64)
    intQ = []
    for t in ts:
        s = 0.5 * t * (nodes + 1.0)
        q = curve.deriv(0, s) * np.cos(s) + curve.deriv(1, s) * np.sin(s)
        intQ.append(0.5 * t * float(weights @ q))
    z1 = D - np.asarray(intQ)
    _close(out["z1"], z1, 1e-8, "zeta1 of the curve")
    _close(out["z2"], z2, 1e-8, "zeta2 of the curve")
    d1 = np.asarray(out["z1b"]) - np.asarray(out["z1"])
    _close(d1 - np.mean(d1), np.zeros_like(d1), tol, "round-trip zeta1")
    _close(out["z2b"], out["z2"], tol, "round-trip zeta2")


def check_h2_metric(inp, out, tol=1e-6):
    """(a, b) from quadrature at H = 2, against this module's own RK4
    profile and composite Simpson integrals (the outer one on every other
    RK4 node, where the inner one is known); the program's residual of
    the three integrability equations must stay within tol."""
    _require(out["residual"] <= tol,
             f"integrability residual {out['residual']:.3g} > {tol:g}")
    x0, x1, step = inp["x_lo"], inp["x_hi"], 1e-4
    n = round((x1 - x0) / step)
    h = (x1 - x0) / n
    H = inp["H"]
    a, v = inp["alpha0"], inp["v0"]
    alphas = [a]

    def f(a, v):
        return v, -(6.0 * a * v + 4.0 * a ** 3 + H * H * a)

    for _ in range(n):
        k1 = f(a, v)
        k2 = f(a + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        k3 = f(a + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        k4 = f(a + h * k3[0], v + h * k3[1])
        a += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        alphas.append(a)
    alphas = np.asarray(alphas)
    base = round((inp["x_base"] - x0) / h)

    def simpson(vals, dx):
        # cumulative composite Simpson, valid at every even index
        out = np.zeros(len(vals))
        out[2::2] = np.cumsum(dx / 3.0 * (vals[:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2]))
        return out

    seg = alphas[base:]
    I = simpson(2.0 * seg, h)[::2]
    J = simpson(H * seg[::2] * np.exp(I), 2.0 * h)
    for (px, py), (ga, gb) in zip(out["points"], out["ab"]):
        j = round((px - inp["x_base"]) / h)
        _require(j % 4 == 0 and 0 <= j < len(seg), f"sample x = {px} off the lattice")
        al = seg[j]
        common = math.exp(-I[j // 2]) / math.sqrt(1.0 + al * al)
        k = inp["k"][0] * py
        hh = inp["h"][0] + inp["h"][1] * py
        _close([gb, ga], [math.exp(k) * common, common * (hh - J[j // 2])],
               1e-7, f"(a, b) at ({px}, {py})", rel=True)


def check_construct(inp, payload, obj_text, tol=1e-8):
    """construct --zeta1 --zeta2: the reported zetas reproduce the input
    expressions, and every OBJ ruling is a Legendrian straight line."""
    z1, z2 = inp["zeta1"], inp["zeta2"]
    ts = np.asarray([p[0] for p in payload["zeta1"]])
    _require(len(ts) == inp["ntheta"], "wrong number of zeta samples")
    want1 = z1[0] + z1[1] * np.sin(ts)
    want2 = z2[0] + z2[1] * np.cos(ts)
    _close([p[1] for p in payload["zeta1"]], want1, tol, "construct zeta1")
    _close([p[1] for p in payload["zeta2"]], want2, tol, "construct zeta2")
    _require(payload["special_type_I"] is False, "zeta2 != 0 reported as special I")
    verts, faces = _obj(obj_text)
    nr, nt = inp["nr"], inp["ntheta"]
    _check_quads(faces, nr, nt)
    _require(verts.shape == (nr * nt, 3), f"{len(verts)} vertices, not {nr * nt}")
    grid = verts.reshape(nr, nt, 3)
    rs = np.linspace(inp["r_min"], inp["r_max"], nr)
    th = np.linspace(0.0, 2.0 * math.pi, nt)
    ct, st = np.cos(th), np.sin(th)
    # the curve point under each ruling, from the first row
    cx = grid[0, :, 0] - rs[0] * ct
    cy = grid[0, :, 1] - rs[0] * st
    dr = (rs - rs[0])[:, None]
    want = np.stack([grid[0, :, 0] + dr * ct,
                     grid[0, :, 1] + dr * st,
                     grid[0, :, 2] + dr * (cy * ct - cx * st)], axis=-1)
    _close(grid, want, 1e-9, "ruled OBJ vertices")


# ------------------------------------------------------------------- grid

def _obj(text):
    v, f = [], []
    for line in text.splitlines():
        if line.startswith("v "):
            v.append(line[2:])
        elif line.startswith("f "):
            f.append(line[2:])
        else:
            raise OracleError(f"unexpected OBJ line {line[:30]!r}")
    _require(v and f, "OBJ without vertices or faces")
    verts = np.loadtxt(io.StringIO("\n".join(v)), ndmin=2)
    faces = np.loadtxt(io.StringIO("\n".join(f)), dtype=np.int64, ndmin=2)
    return verts, faces


def _check_quads(faces, nu, nv):
    i, j = np.meshgrid(np.arange(nu - 1), np.arange(nv - 1), indexing="ij")
    a = (i * nv + j + 1).ravel()
    b = ((i + 1) * nv + j + 1).ravel()
    want = np.stack([a, b, b + 1, a + 1], axis=1)
    _require(faces.shape == want.shape and np.array_equal(faces, want),
             "OBJ faces are not the row-major quad grid")


def check_metric(inp, text):
    """metric rows against the general-family closed form:
    alpha = X/(X^2 + c2), a = h/(|X^2 + c2| sqrt(1 + alpha^2)),
    b = e^k/(|X^2 + c2| sqrt(1 + alpha^2)), X = x + c1(y)."""
    arr = _table(text, 5)
    xs = np.linspace(inp["x_min"], inp["x_max"], inp["nx"])
    ys = np.linspace(inp["y_min"], inp["y_max"], inp["ny"])
    gx, gy = np.meshgrid(xs, ys)
    x, y = gx.ravel(), gy.ravel()
    _close(arr[:, 0], x, 0.0, "metric x column")
    _close(arr[:, 1], y, 0.0, "metric y column")
    c1p, c2p, kp, hp = inp["c1"], inp["c2"], inp["k"], inp["h"]
    c1 = c1p[0] + c1p[1] * np.sin(y)
    c2 = c2p[0] + c2p[1] * np.cos(y)
    X = x + c1
    den = X * X + c2
    alpha = X / den
    root = np.sqrt(1.0 + alpha * alpha)
    a = (hp[0] + hp[1] * y) / (np.abs(den) * root)
    b = np.exp(kp[0] * y) / (np.abs(den) * root)
    _close(arr[:, 2], alpha, 1e-12, "metric alpha", rel=True)
    _close(arr[:, 3], a, 1e-12, "metric a", rel=True)
    _close(arr[:, 4], b, 1e-12, "metric b", rel=True)


def check_verify_plane(inp, payload, tol=1e-8):
    """u = A x + B y + C: one isolated singular point at (-B, A), and the
    p-minimal graph residual vanishes."""
    feats = payload["singular"]["features"]
    _require([f["kind"] for f in feats] == ["IsolatedPoint"],
             f"plane singular set {[f['kind'] for f in feats]}")
    A, B, _ = inp["coeffs"]
    _close(feats[0]["point"], [-B, A], tol, "isolated singular point")
    _require(payload["max_pmge_residual"] <= tol,
             f"pmge residual {payload['max_pmge_residual']:.3g} > {tol:g}")


def check_verify_saddle(inp, payload, tol=1e-8):
    """u = x y + c y^2 + d y: one singular curve 2x + 2c y + d = 0
    crossing the whole window, and the p-minimal graph residual
    vanishes."""
    feats = payload["singular"]["features"]
    _require([f["kind"] for f in feats] == ["Curve"],
             f"saddle singular set {[f['kind'] for f in feats]}")
    c, d = inp["coeffs"]
    poly = np.asarray(feats[0]["polyline"], dtype=float)
    _require(poly.ndim == 2 and len(poly) >= 2, "empty singular polyline")
    _close(2.0 * poly[:, 0] + 2.0 * c * poly[:, 1] + d, np.zeros(len(poly)),
           tol, "singular curve residual")
    (_, _), (y_lo, y_hi) = inp["window"]
    step = (y_hi - y_lo) / 41.0
    _require(poly[:, 1].min() <= y_lo + 2.0 * step
             and poly[:, 1].max() >= y_hi - 2.0 * step,
             "singular curve does not cross the window")
    _require(payload["max_pmge_residual"] <= tol,
             f"pmge residual {payload['max_pmge_residual']:.3g} > {tol:g}")


def check_conicoid(inp, payload, obj_text):
    """examples conicoid: X(t, s) = (cos s + t sin s, sin s - t cos s, t)
    on the row-major (t, s) grid, alpha(1) = 1/2, a = b = 1/sqrt(5)."""
    n_u, n_v = inp["nu"], inp["nv"]
    verts, faces = _obj(obj_text)
    _check_quads(faces, n_u, n_v)
    t, s = np.meshgrid(np.linspace(-2.0, 2.0, n_u), np.linspace(-2.0, 2.0, n_v),
                       indexing="ij")
    t, s = t.ravel(), s.ravel()
    want = np.stack([np.cos(s) + t * np.sin(s), np.sin(s) - t * np.cos(s), t], axis=1)
    _close(verts, want, 1e-12, "conicoid vertices")
    _close([payload["alpha_at_t1"]], [0.5], 1e-14, "conicoid alpha(1)")
    _close(payload["ab_at_t1"], [1.0 / math.sqrt(5.0)] * 2, 1e-14, "conicoid (a, b)(1)")


def check_normalize(inp, payload, tol=1e-9):
    """normalize with k = kappa y and constant h = eta (y from 0):
    Psi(y) = (1 - e^{-kappa y})/kappa, Gamma(y) = -eta Psi(y), so
    zeta1(Psi(y)) = c1(y) - Gamma(y) and zeta2(Psi(y)) = c2(y)."""
    _require(payload["type"] == "TypeI", f"type {payload['type']} != TypeI")
    ys = np.linspace(inp["y_min"], inp["y_max"], inp["samples"])
    kappa, eta = inp["kappa"], inp["eta"]
    psi = (1.0 - np.exp(-kappa * ys)) / kappa
    gamma = -eta * psi
    c1 = inp["c1"][0] + inp["c1"][1] * np.sin(ys)
    c2 = inp["c2"][0] + inp["c2"][1] * ys
    z1 = np.asarray(payload["zeta1"], dtype=float)
    z2 = np.asarray(payload["zeta2"], dtype=float)
    _require(z1.shape == (len(ys), 2) and z2.shape == (len(ys), 2),
             "normalize returned the wrong number of samples")
    _close(z1[:, 0], psi, tol, "Psi(y)")
    _close(z2[:, 0], psi, tol, "Psi(y) of zeta2")
    _close(z1[:, 1], c1 - gamma, tol, "zeta1")
    _close(z2[:, 1], c2, tol, "zeta2")


# -------------------------------------------------------------------- ode

def check_trajectory(inp, text, tol=1e-6):
    """solve-lienard CSV: every row on the closed-form family member the
    initial data were taken from."""
    arr = _table(text, 3)
    n = round((inp["x1"] - inp["x0"]) / inp["step"])
    _require(arr.shape[0] == n + 1, f"{arr.shape[0]} rows, not {n + 1}")
    xs = inp["x0"] + np.arange(n + 1) * ((inp["x1"] - inp["x0"]) / n)
    _close(arr[:, 0], xs, 1e-9, "trajectory x column")
    alpha, v = family_alpha(inp["family"], inp["params"], arr[:, 0])
    _close(arr[:, 1], alpha, tol, "trajectory alpha")
    _close(arr[:, 2], v, tol, "trajectory alpha'")


def check_fit(inp, out, tol_fit=1e-8, tol_rk4=1e-6):
    """fit_solution recovers the family and constants of the member the
    phase point was taken from, and that closed form meets the program's
    RK4 endpoint x0 + 3 (criterion 2's shape)."""
    _require(out["family"] == inp["family"],
             f"fit family {out['family']} != {inp['family']}")
    _close(out["params"], inp["params"], tol_fit, "fitted constants", rel=True)
    want, _ = family_alpha(out["family"], out["params"], inp["x0"] + 3.0)
    _close([out["end_alpha"]], [float(want)], tol_rk4, "RK4 endpoint vs fit")


def check_phase_field(inp, text):
    """phase-field rows: V = (v, -(6 alpha v + 4 alpha^3)) on the grid."""
    arr = _table(text, 4)
    n_x, n_v = inp["nx"], inp["nv"]
    a, v = np.meshgrid(np.linspace(-2.0, 2.0, n_x), np.linspace(-2.0, 2.0, n_v),
                       indexing="ij")
    a, v = a.ravel(), v.ravel()
    _close(arr[:, 0], a, 1e-15, "phase-field alpha column")
    _close(arr[:, 1], v, 1e-15, "phase-field v column")
    _close(arr[:, 2], v, 1e-15, "phase-field dalpha")
    _close(arr[:, 3], -(6.0 * a * v + 4.0 * a ** 3), 1e-13, "phase-field dv", rel=True)
