"""Escape-rate (potential) functions in C^2 and the cone-angle dictionary.

The escape rate of a lift F = (P, Q) is G_F(x) = lim d^-n log||F^n(x)||,
computed here with the sup norm ||(z,w)|| = max(|z|, |w|) throughout so
that example values are exact and reproducible.  Nondegenerate lifts are
iterated with renormalization (log-scales tracked separately, no
overflow).  Degenerate lifts f = H*phi off the indeterminacy locus use the
telescoped series

    G_n(x) = sum_{k<n} d^-(k+1) log|H(Phi^k x)| + d^-n log||Phi^n x||,

whose H-term partial sums converge to G_F while the correction term decays
like (e/d)^n.

Every evaluation, from one point to a whole grid, runs through one batched
kernel over numpy arrays: each point stops at its own first step whose
residual is below tol (or at n_max) and then leaves the batch, so a grid
costs the steps of its points and returns the same step counts and hole
cells as evaluating them one at a time.

A probability measure with an atom of mass m induces a conformal metric
with a cone point of angle 2*pi - 4*pi*m; masses >= 1/2 sit at infinite
distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MathDomainError
from .hpoly import HPoly
from .ratmap import BoundaryMap, Decomposition, decompose


@dataclass
class EscapeValue:
    """An escape-rate evaluation: value, steps used, last-increment residual.

    An orbit that lands exactly on a hole line has the value -inf, which must
    not be fed back into arithmetic; every other value is not -inf.
    """

    value: float
    n_used: int
    residual: float

    @property
    def finite(self) -> bool:
        return self.value != -math.inf


def _escape_batch(d, phi, H, z, w, n_max, tol):
    """Escape rates of the rows (z[i], w[i]) of C^2 - 0, as one batch.

    With H None, phi = (P, Q) is the lift itself and G_n = log||x|| +
    sum_k d^-k log s_k, where s_k renormalizes the k-th image; with H the
    gcd factor, phi is the lift's reduced part and G_n is the telescoped
    series.  A row stops at its first step whose residual (last increment,
    resp. last change of G_n) is below tol, or at n_max, and then leaves
    the batch; a row whose sup norm or H value is exactly 0 stops at -inf
    with residual 0.  No other row reaches -inf: log s of a positive finite s
    is finite, and an overflow gives +inf or NaN.  Returns the arrays (value,
    n_used, residual).
    """
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    if np.any((z == 0) & (w == 0)):
        raise ValueError("escape rate undefined at the origin of C^2")
    p, q = phi
    e = p.degree
    polys = (p, q) if H is None else (p, q, H)
    sup = np.maximum(np.abs(z), np.abs(w))
    lam = np.log(sup)
    vz, vw = z / sup, w / sup
    g = lam if H is None else np.zeros_like(lam)
    value = lam.copy()
    n_used = np.zeros(len(z), dtype=int)
    residual = np.full(len(z), np.inf)
    idx = np.arange(len(z))
    prev = np.full(len(z), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            dn = float(d**n)
            vals = HPoly._evaluate_vec(polys, vz, vw)
            pz, pw = vals[0], vals[1]
            s = np.maximum(np.abs(pz), np.abs(pw))
            hole = s == 0.0
            if H is None:
                inc = np.log(s) / dn
                g = val = g + inc
                res = np.abs(inc)
            else:
                hv = np.abs(vals[2])
                hole |= hv == 0.0
                g = g + ((d - e) * lam + np.log(hv)) / dn
                lam = e * lam + np.log(s)
                val = g + lam / dn
                res = np.abs(val - prev)
                prev = val
            inv = 1.0 / s  # pz * inv is pz / s up to the sign of a zero part
            vz, vw = pz * inv, pw * inv
            done = hole | (res < tol) if n < n_max else np.ones(len(idx), dtype=bool)
            if not np.count_nonzero(done):
                continue
            out, h = idx[done], hole[done]
            value[out] = np.where(h, -np.inf, val[done])
            residual[out] = np.where(h, 0.0, res[done])
            n_used[out] = n
            keep = ~done
            if not np.count_nonzero(keep):
                break
            idx, vz, vw, g, lam, prev = (a[keep] for a in (idx, vz, vw, g, lam, prev))
    return value, n_used, residual


def _escape_rows(f: BoundaryMap, z, w, n_max, tol, dec=None):
    """_escape_batch on the rule escape_rate picks for f; one decompose."""
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    if f.d < 2:  # d^-n log||F^n x|| converges only for d >= 2
        raise MathDomainError("escape rate needs degree d >= 2")
    if dec is None:
        dec = decompose(f)
    dec.off_locus("escape rate")
    if not dec.degenerate:
        return _escape_batch(f.d, f.pair(), None, z, w, n_max, tol)
    return _escape_batch(f.d, dec.phi, dec.H, z, w, n_max, tol)


def escape_rate(f: BoundaryMap, x, n_max: int = 60, tol: float = 1e-13,
                dec: Decomposition | None = None) -> EscapeValue:
    """G_F at x in C^2 - 0 for the normalized lift F of f.

    Nondegenerate maps iterate F directly with renormalization; degenerate
    maps off I(d) evaluate the telescoped H-series of the decomposition.
    Stops when the step-to-step change drops below tol or at n_max.
    """
    value, n_used, residual = _escape_rows(f, [complex(x[0])], [complex(x[1])], n_max, tol, dec)
    return EscapeValue(float(value[0]), int(n_used[0]), float(residual[0]))


def escape_rate_constant_case(dec: Decomposition, x) -> float:
    """Closed form for e = 0: (1/d) log|H(x)| + log|H(a,b)| / (d(d-1)).

    (a, b) is the constant pair of the decomposition at the scale that
    multiplies back to the lift, which makes the value independent of how
    the scale is split between H and the constant.  Returns -inf on hole
    lines.
    """
    if dec.e != 0:
        raise ValueError("closed form requires deg(phi) = 0")
    dec.off_locus("escape rate")
    d = dec.d
    if d < 2:
        raise MathDomainError("closed form requires d >= 2")
    hx = abs(dec.H.evaluate(x))
    hab = abs(dec.H.evaluate([P.coeffs[0] for P in dec.phi]))  # at (a, b), as the lift scales it
    if hx == 0.0:
        return -math.inf
    return math.log(hx) / d + math.log(hab) / (d * (d - 1))


def functional_equation_residual(f: BoundaryMap, x, n_max: int = 60) -> float:
    """|G(F(x)) - d G(x)|, which the defining limit forces to vanish; each
    rate stops at residual 1e-13."""
    z, w = complex(x[0]), complex(x[1])
    fz, fw = f.P.evaluate((z, w)), f.Q.evaluate((z, w))
    value = _escape_rows(f, [z, fz], [w, fw], n_max, 1e-13)[0]
    if np.any(value == -np.inf):
        raise MathDomainError("orbit hit a hole line; functional equation undefined")
    return abs(value[1] - f.d * value[0])


def escape_grid(f: BoundaryMap, re_axis, im_axis, n_max: int = 50,
                dec: Decomposition | None = None):
    """The columns [re z, im z, G(z, 1)] over a rectangle, as float64 arrays, for CSV export.

    Each axis is (lo, hi, count).  Points run over re within im, as one
    batch with per-point stopping at residual 1e-12.  dec is f's
    decomposition, taken at the default gcd tolerance when not given.
    """
    res, ims = np.linspace(*re_axis), np.linspace(*im_axis)
    re, im = np.tile(res, len(ims)), np.repeat(ims, len(res))
    return [re, im, _escape_rows(f, re + 1j * im, np.ones(len(re)), n_max, 1e-12, dec)[0]]


# ---------------------------------------------------------------------------
# cone angles


def cone_angle_report(mu):
    """(angles, infinite_ends) per atom of mu, in atom order: the cone angles
    2pi - 4pi*mass and the boolean mask mass >= 1/2.

    A probability measure admits at most two infinite ends; an atom mass
    above 1 or more than two infinite ends flags a malformed input and raises.
    """
    above = mu.masses > 1.0 + 1e-12
    if above.any():
        raise ValueError(f"atom mass {float(mu.masses[above][0])} exceeds 1")
    infinite = mu.masses >= 0.5
    if np.count_nonzero(infinite) > 2:
        raise ValueError("more than two infinite ends: not a probability measure")
    return 2.0 * math.pi - 4.0 * math.pi * mu.masses, infinite
