"""Earlier bodies of the root, gcd, canonicalization and merge kernels, kept
as bit-for-bit oracles for the trimmed ones in the package.

Each function is the version that evaluated p and p' in separate Horner
passes, matched clusters with np.argmin per step, built the companion
subdiagonal by fancy indexing and ran the merge's pair search to the end.
roots carries one later change, the package's too: it does not polish the
cluster holding the exact root at (0:1).
Helpers that did not change (HPoly, _horner_vec, _polish_multiple_root,
_sorted_roots, _deconvolve, _fit_scale, projective_residual, chordal_cross)
are the package's own.
"""

import numpy as np

from ratbound import DEFAULTS, NumericalFailure
from ratbound.hpoly import (HPoly, _deconvolve, _fit_scale, _horner_vec, _polish_multiple_root,
                            _sorted_roots, projective_residual)
from ratbound.projline import (_SWEEP_AXIS, INFINITY, ZERO, ProjPoint, _row_max, canonicalize,
                               chordal_cross)


def canonicalize_rows(pairs):
    a = np.array(pairs, dtype=complex)
    m = _row_max(np.abs(a))
    if np.any(m == 0.0):
        raise ValueError("not a projective point: (0, 0)")
    tiny = m < np.finfo(float).tiny
    if np.any(tiny):
        a[tiny] *= 2.0**64
        m[tiny] = _row_max(np.abs(a[tiny]))
    a /= m[:, None]
    s = (a.conj() * a).real
    a /= np.sqrt(s[:, 0] + s[:, 1])[:, None]
    anchor = np.where(np.abs(a[:, 0]) >= np.abs(a[:, 1]), a[:, 0], a[:, 1])
    a *= (np.abs(anchor) / anchor)[:, None]
    return a


def merge_close(points, weights, eps):
    if len(points) < 2:
        return points, weights
    z, w = points[:, 0], points[:, 1]
    zw = z * np.conj(w)
    proj = (2 * zw.real * _SWEEP_AXIS[0] + 2 * zw.imag * _SWEEP_AXIS[1]
            + (np.abs(z) ** 2 - np.abs(w) ** 2) * _SWEEP_AXIS[2])
    order = np.argsort(proj)
    swept = proj[order]
    span = np.searchsorted(swept, swept + (2 * eps + 1e-15), side="right")
    span -= np.arange(1, len(swept) + 1)
    del zw, proj, swept
    none = np.zeros(0, dtype=np.intp)
    near_a, near_b = [none], [none]
    active = np.nonzero(span > 0)[0]
    k = 1
    while len(active):
        a, b = order[active], order[active + k]
        close = np.abs(z[a] * w[b] - z[b] * w[a]) <= eps
        near_a.append(a[close])
        near_b.append(b[close])
        k += 1
        active = active[span[active] >= k]
    a, b = np.concatenate(near_a), np.concatenate(near_b)
    del order, span, near_a, near_b
    if len(a) == 0:
        return points, weights

    n = len(points)
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        label = label[label]
        if np.array_equal(label[a], label[b]):
            break
    in_group = np.zeros(n, dtype=bool)
    in_group[a] = in_group[b] = True
    members = np.flatnonzero(in_group)
    del a, b, low, in_group
    first = label[members]
    heads = members[first == members]
    t = points[members] * np.conj(points[first])
    t = t[:, 0] + t[:, 1]
    aligned = (weights[members] * np.conj(t) / np.abs(t))[:, None] * points[members]
    slot = np.searchsorted(heads, first)
    del t, members, first
    parts = aligned.view(float)
    total = np.empty((len(heads), 4))
    for j in range(4):
        total[:, j] = np.bincount(slot, parts[:, j], len(heads))
    del aligned, parts, slot
    kept = np.flatnonzero(label == np.arange(n))
    out = points[kept]
    out[np.searchsorted(kept, heads)] = canonicalize_rows(total.view(complex))
    return out, np.bincount(label, weights=weights, minlength=n)[kept]


def companion_roots(C):
    k, width = C.shape
    n = width - 1
    monic = C / C[:, -1:]
    A = np.zeros((k, n, n), dtype=complex)
    if n > 1:
        idx = np.arange(n - 1)
        A[:, idx + 1, idx] = 1.0
    A[:, :, -1] = -monic[:, :-1]
    return np.linalg.eigvals(A)


def _rows(entries):
    return (np.array([pt.as_array() for pt, _ in entries]).reshape(-1, 2),
            np.array([m for _, m in entries], dtype=float))


def _points(rows, mults):
    return [(ProjPoint(z, w), int(round(m))) for (z, w), m in zip(rows.tolist(), mults)]


def roots(P, tol=1e-8):
    if not tol > 0:
        raise ValueError(f"roots tol must be positive, got {tol!r}")
    if bool(np.all(P.coeffs == 0)):
        raise ValueError("roots undefined for the zero polynomial")
    d = P.degree
    if d == 0:
        return []
    c = P.normalize().coeffs
    m_inf = 0
    while m_inf < d and abs(c[d - m_inf]) < tol:
        m_inf += 1
    m_zero = 0
    while m_zero + m_inf < d and c[m_zero] == 0:
        m_zero += 1
    core = c[m_zero : d - m_inf + 1]

    rows, mults = _rows([(pt, m) for pt, m in ((ZERO, m_zero), (INFINITY, m_inf)) if m])
    if len(core) > 1:
        monic = core / core[-1]
        dp = monic[1:] * np.arange(1, len(core))
        x = companion_roots(core[None, :])[0]
        pv = _horner_vec(monic, x)
        with np.errstate(all="ignore"):
            for _ in range(3):
                x1 = x - pv / _horner_vec(dp, x)
                pv1 = _horner_vec(monic, x1)
                keep = np.abs(pv1) < np.abs(pv)
                x, pv = np.where(keep, x1, x), np.where(keep, pv1, pv)
        rows = np.concatenate([rows, canonicalize_rows(np.stack([x, np.ones_like(x)], 1))])
        mults = np.concatenate([mults, np.ones(len(x))])

    radius = max(tol, DEFAULTS.cluster_floor)
    refined = []
    for i, (center, mult) in enumerate(_points(*merge_close(rows, mults, radius))):
        exact = i == 0 and m_zero  # the cluster holding the exact root at (0:1) is not polished
        if (mult > 1 and len(core) > mult and not exact and not center.is_infinity
                and abs(center.w) > 0.1):
            z0 = center.ratio()
            z1 = _polish_multiple_root(core, z0, mult)
            if abs(z1 - z0) <= radius * (1 + abs(z0)):
                center = canonicalize(z1, 1.0)
        refined.append((center, mult))
    return _sorted_roots(refined)


def _match_clusters(dist, p_mults, q_mults, tol):
    take, left = np.zeros(dist.shape), np.array(q_mults, dtype=float)
    for i, need in enumerate(p_mults):
        while need > 0 and left.any():
            j = np.argmin(np.where(left > 0, dist[i], np.inf))
            if not dist[i, j] < tol:
                break
            take[i, j] = min(need, left[j])
            left[j] -= take[i, j]
            need -= take[i, j]
    return take


def _monic_leading(P):
    if bool(np.all(P.coeffs == 0)):
        return P
    mods = np.abs(P.coeffs)
    cutoff = 1e-12 * mods.max()
    lead = max(i for i in range(P.degree + 1) if mods[i] > cutoff)
    return HPoly(P.coeffs / P.coeffs[lead])


def numeric_gcd(P, Q, tol=DEFAULTS.gcd):
    if not 0 < tol < 1:
        raise ValueError(f"gcd tol must lie in (0, 1), got {tol!r}")
    p_zero, q_zero = bool(np.all(P.coeffs == 0)), bool(np.all(Q.coeffs == 0))
    if p_zero and q_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    if p_zero or q_zero or projective_residual(P.coeffs, Q.coeffs) < 1e-12:
        H = _monic_leading(Q if p_zero else P)
        return (H, HPoly.constant(_fit_scale(H.coeffs, P.coeffs)),
                HPoly.constant(_fit_scale(H.coeffs, Q.coeffs)), roots(H, tol))

    (p_rows, p_mults), (q_rows, q_mults) = _rows(roots(P, tol)), _rows(roots(Q, tol))
    take = _match_clusters(chordal_cross(p_rows, q_rows), p_mults, q_mults, tol)
    shared = np.concatenate([take.sum(axis=1), take.sum(axis=0)]) / 2
    matched = shared > 0
    holes = _sorted_roots(_points(*merge_close(
        np.concatenate([p_rows, q_rows])[matched], shared[matched],
        max(tol, DEFAULTS.cluster_floor))))

    H = _monic_leading(HPoly.from_roots(holes))
    p = _deconvolve(H, P)
    q = _deconvolve(H, Q)

    for target, cof, name in ((P, p, "P"), (Q, q, "Q")):
        recon = (H * cof).coeffs
        resid = float(
            np.linalg.norm(target.coeffs - recon) / np.linalg.norm(target.coeffs)
        )
        if resid > tol:
            raise NumericalFailure(
                f"gcd reconstruction residual {resid:.3e} exceeds tol {tol:.1e} on {name}; "
                "root clusters may have split -- loosen tol"
            )
    return H, p, q, holes
