"""Arbitrary-precision oracles (mpmath) used by the test suite.

These re-derive geometry values through the textbook formulas at high
precision, independently of the library's float64 evaluation strategy.
"""

import mpmath as mp
import numpy as np


def _to_mp(vec):
    return [mp.mpf(float(c)) for c in np.asarray(vec, dtype=np.float64)]


def _inner(u, v):
    s = mp.mpf(0)
    for a, b in zip(u[:-1], v[:-1]):
        s += a * b
    return s - u[-1] * v[-1]


def mp_inner(u, v):
    return _inner(_to_mp(u), _to_mp(v))


def mp_distance(x, y, dps=60):
    """arccosh(-<x|y>_M) evaluated in high precision."""
    with mp.workdps(dps):
        s = -_inner(_to_mp(x), _to_mp(y))
        if s < 1:
            s = mp.mpf(1)
        return float(mp.acosh(s))


def mp_exp_map(x, v, dps=60):
    with mp.workdps(dps):
        xs, vs = _to_mp(x), _to_mp(v)
        nsq = _inner(vs, vs)
        if nsq <= 0:
            return np.array([float(c) for c in xs])
        theta = mp.sqrt(nsq)
        out = [mp.cosh(theta) * a + mp.sinh(theta) / theta * b for a, b in zip(xs, vs)]
        return np.array([float(c) for c in out])


def mp_apex_distance(u1, u2, dps=120):
    """d(Exp_0 u1, Exp_0 u2) on H^k for flat tangent rows at the apex (floats
    or mpf entries), with both points formed in high precision."""
    with mp.workdps(dps):
        pts = []
        for u in (u1, u2):
            us = [mp.mpf(c) for c in u]
            r = mp.sqrt(sum(c * c for c in us))
            sinhc = mp.sinh(r) / r if r > 0 else mp.mpf(1)
            pts.append([sinhc * c for c in us] + [mp.cosh(r)])
        s = -_inner(*pts)
        return mp.acosh(max(s, mp.mpf(1)))


def _log(xs, ys):
    c = _inner(xs, ys)
    u = [b + c * a for a, b in zip(xs, ys)]
    usq = _inner(u, u)
    if usq <= 0:
        return [mp.mpf(0)] * len(xs)
    d = mp.acosh(max(-c, mp.mpf(1)))
    g = d / mp.sqrt(usq)
    return [g * a for a in u]


def mp_log_map(x, y, dps=60):
    with mp.workdps(dps):
        return np.array([float(c) for c in _log(_to_mp(x), _to_mp(y))])


def mp_transport(x, b, u, dps=60):
    """Textbook display form: u - (<Log_x b, u>/d^2) (Log_x b + Log_b x)."""
    with mp.workdps(dps):
        xs, bs, us = _to_mp(x), _to_mp(b), _to_mp(u)
        lxb = _log(xs, bs)
        lbx = _log(bs, xs)
        d2 = _inner(lxb, lxb)
        coef = _inner(lxb, us) / d2
        out = [a - coef * (p + q) for a, p, q in zip(us, lxb, lbx)]
        return np.array([float(c) for c in out])
