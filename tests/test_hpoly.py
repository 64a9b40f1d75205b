import json
import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratbound import (
    INFINITY,
    ZERO,
    HPoly,
    NumericalFailure,
    canonicalize,
    chordal_distance,
    compose_pair,
    decompose,
    numeric_gcd,
    projective_residual,
    resultant,
    roots,
    vanishing_order,
    wronskian,
)
from ratbound import families as fam
from ratbound import hpoly
from ratbound.hpoly import _companion_roots, count_zeros_in_disk, substitute
from ratbound.projline import chordal_cross

from helpers import hp, multiplicity_at


Z = HPoly.z()
W = HPoly.w()


def test_hpoly_is_immutable_and_keeps_its_repr():
    P = HPoly([1, -3j, 0.5])
    assert (P.degree, P.coeffs.tolist()) == (2, [1, -3j, 0.5])
    assert repr(P) == "HPoly((1+0j)w^2 + (-0-3j)zw + (0.5+0j)z^2, deg=2)"
    for name in ("degree", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(P, name, 1)
        with pytest.raises(AttributeError):
            delattr(P, name)
    with pytest.raises((AttributeError, TypeError)):  # no other attribute either
        P.other = 1
    with pytest.raises(ValueError):
        P.coeffs[0] = 2.0  # read-only, and a copy of the input
    for bad in ([], [[1, 2]], 1.0):  # the coefficients alone fix the degree
        with pytest.raises(ValueError, match="non-empty 1-D array"):
            HPoly(bad)
    Q = pickle.loads(pickle.dumps(P))
    assert Q.degree == 2 and Q.coeffs.tobytes() == P.coeffs.tobytes()


def test_a_power_stops_at_its_first_non_finite_square():
    P = hp(1e200, 1e200)
    with pytest.raises(NumericalFailure, match="a degree-2 square overflowed"):
        P ** 1000
    assert (P ** 1).coeffs.tobytes() == P.coeffs.tobytes()  # no square taken


# -- evaluation --------------------------------------------------------------


def test_evaluate_monomials():
    assert abs(hp(0, 0, 1).evaluate((2, 5)) - 4) < 1e-12  # z^2
    assert abs(hp(0, 1, 0).evaluate((1, 1)) - 1) < 1e-12  # zw


def test_evaluate_direct_sum():
    # z^3 + 2 w^3 at (1,2): 1 + 16 = 17
    assert abs(hp(2, 0, 0, 1).evaluate((1, 2)) - 17) < 1e-12


def test_evaluate_homogeneity():
    rng = np.random.default_rng(0)
    P = hp(*(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
    z, w, lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = P.evaluate((lam * z, lam * w))
    rhs = lam**4 * P.evaluate((z, w))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_evaluate_vec_matches_evaluate():
    rng = np.random.default_rng(1)
    P = hp(*(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
    polys = (P, hp(2, -3, 1), HPoly.constant(0.5 - 2j))
    z = np.concatenate([rng.standard_normal(20) + 1j * rng.standard_normal(20),
                        [1e60, 1.0, 0.0, 1.0, 0.0]])
    w = np.concatenate([rng.standard_normal(20) + 1j * rng.standard_normal(20),
                        [1.0, 1e60, 1.0, 0.0, 0.0]])
    for Q, vals in zip(polys, HPoly._evaluate_vec(polys, z, w)):
        ref = np.array([Q.evaluate((a, b)) for a, b in zip(z, w)])
        assert np.all(np.abs(vals - ref) <= 1e-14 * np.abs(ref))
    # at the origin, positive degree gives exactly 0 and degree 0 its constant
    assert [v[-1] for v in HPoly._evaluate_vec(polys, z, w)] == [0, 0, 0.5 - 2j]


def test_evaluate_vec_of_mixed_degrees_is_each_alone_bit_for_bit():
    # phi and H of a degenerate map, of degrees e and d - e, evaluated together
    # share each degree's leading power and give each one's values exactly
    dec = decompose(fam.example2_second_limit(3, 2, a=0.4), 1e-4)
    polys = (*dec.phi, dec.H)
    assert len({P.degree for P in polys}) == 2
    rng = np.random.default_rng(7)
    z = np.concatenate([rng.standard_normal(40) + 1j * rng.standard_normal(40), [1e60, 0, 1, 0]])
    w = np.concatenate([rng.standard_normal(40) + 1j * rng.standard_normal(40), [1, 1e60, 0, 0]])
    together = HPoly._evaluate_vec(polys, z, w)
    for P, vals in zip(polys, together):
        assert vals.tobytes() == HPoly._evaluate_vec((P,), z, w)[0].tobytes()


# -- products and composition ------------------------------------------------


def test_multiply_basic():
    zw = Z * W
    assert np.allclose(zw.coeffs, [0, 1, 0])
    sq = (Z + W) * (Z + W)
    assert np.allclose(sq.coeffs, [1, 2, 1])


def test_multiply_convolution():
    prod = hp(-1, 0, 1) * hp(1, 0, 1)  # (z^2-w^2)(z^2+w^2) = z^4 - w^4
    assert np.allclose(prod.coeffs, [-1, 0, 0, 0, 1])


def test_compose_identity_sides():
    F = (hp(0, 0, 1), hp(1, 0, 0))  # (z^2, w^2)
    G = (Z, W)
    R = compose_pair(F, G)
    assert np.allclose(R[0].coeffs, F[0].coeffs)
    assert np.allclose(R[1].coeffs, F[1].coeffs)
    L = compose_pair((Z, W), (hp(0, 1), hp(1, 0)))
    assert np.allclose(L[0].coeffs, [0, 1])
    assert np.allclose(L[1].coeffs, [1, 0])


def test_compose_substitute_expand():
    # (z^2, w^2) o (zw, w^2) = (z^2 w^2, w^4)
    R = compose_pair((hp(0, 0, 1), hp(1, 0, 0)), (hp(0, 1, 0), hp(1, 0, 0)))
    assert np.allclose(R[0].coeffs, [0, 0, 1, 0, 0])
    assert np.allclose(R[1].coeffs, [1, 0, 0, 0, 0])


def test_compose_bihomogeneous_degrees():
    # linear in F's coefficients, degree-d homogeneous in G's
    rng = np.random.default_rng(1)
    F = tuple(hp(*(rng.standard_normal(3) + 1j * rng.standard_normal(3))) for _ in range(2))
    G = tuple(hp(*(rng.standard_normal(3) + 1j * rng.standard_normal(3))) for _ in range(2))
    lam = 0.7 - 1.2j
    A = compose_pair((lam * F[0], lam * F[1]), G)
    B = compose_pair(F, (lam * G[0], lam * G[1]))
    base = compose_pair(F, G)
    assert np.allclose(A[0].coeffs, lam * base[0].coeffs)
    assert np.allclose(B[0].coeffs, lam**2 * base[0].coeffs)


def test_compose_associative_projectively():
    rng = np.random.default_rng(2)
    mk = lambda: tuple(
        hp(*(rng.standard_normal(3) + 1j * rng.standard_normal(3))) for _ in range(2)
    )
    F, G, K = mk(), mk(), mk()
    A = compose_pair(F, compose_pair(G, K))
    B = compose_pair(compose_pair(F, G), K)
    va = np.concatenate([A[0].coeffs, A[1].coeffs])
    vb = np.concatenate([B[0].coeffs, B[1].coeffs])
    assert projective_residual(va, vb) < 1e-9


def test_pullback_poly():
    H = hp(-1, 1)  # z - w
    assert np.allclose(substitute([H], Z, W)[0].coeffs, H.coeffs)
    assert np.allclose(substitute([Z], hp(1, 0), hp(0, 1))[0].coeffs, [1, 0])
    out, = substitute([H], hp(0, 0, 1), hp(1, 0, 0))  # z^2 - w^2
    assert np.allclose(out.coeffs, [-1, 0, 1])


# -- resultant ---------------------------------------------------------------


def test_resultant_disjoint_unit():
    for d in (1, 2, 3, 5):
        zd = HPoly(np.eye(d + 1, dtype=complex)[d])
        wd = HPoly(np.eye(d + 1, dtype=complex)[0])
        assert abs(abs(resultant(zd, wd)) - 1) < 1e-12


def test_resultant_shared_root():
    assert abs(resultant(hp(0, 1, 0), hp(1, 0, 0))) < 1e-14  # zw, w^2
    # an exact zero pivot that getrf does not report: exactly 0, with no warning
    P = hp(0.5j, 1, 2.22507386e-308 + 3j)
    assert resultant(P, P) == 0


def test_resultant_derived_value():
    # oracle: Res(p, q) = lead(p)^deg q * prod q(roots of p)
    # p = z^2 - 1 roots +-1, q = z^2 + 1: q(1) q(-1) = 4
    assert abs(resultant(hp(-1, 0, 1), hp(1, 0, 1)) - 4) < 1e-12


def test_resultant_vs_product_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pr = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        qr = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        P = HPoly.from_roots([(canonicalize(r, 1), 1) for r in pr])
        Q = HPoly.from_roots([(canonicalize(r, 1), 1) for r in qr])
        # product formula over the affine roots; both monic-leading here
        lead_p = P.coeffs[-1]
        lead_q = Q.coeffs[-1]
        val = lead_p ** Q.degree * lead_q ** P.degree
        for r in pr:
            for s in qr:
                val *= r - s
        assert abs(resultant(P, Q) - val) < 1e-9 * max(1, abs(val))


def test_resultant_refuses_a_sylvester_matrix_past_2048_rows(monkeypatch):
    # refused before the matrix is allocated: np.zeros is never called
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated")

    # z^1024 and w^1024, coprime: 2,048 rows is the largest matrix built
    assert abs(resultant(hp(*[0] * 1024, 1), hp(1, *[0] * 1024))) == 1.0
    monkeypatch.setattr(hpoly.np, "zeros", no_alloc)
    with pytest.raises(NumericalFailure, match="a 2049 x 2049 Sylvester matrix exceeds 2048 rows"):
        resultant(hp(*[0] * 1024, 1), hp(1, *[0] * 1025))


def test_resultant_zero_iff_shared_root_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pr = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        qr = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        P = HPoly.from_roots([(canonicalize(r, 1), 1) for r in pr])
        Q = HPoly.from_roots([(canonicalize(r, 1), 1) for r in qr])
        assert abs(resultant(P.normalize(), Q.normalize())) > 1e-8
        shared = canonicalize(qr[0], 1)
        P2 = HPoly.from_roots([(canonicalize(pr[0], 1), 1), (shared, 1)])
        Q2 = HPoly.from_roots([(canonicalize(qr[1], 1), 1), (shared, 1)])
        assert abs(resultant(P2.normalize(), Q2.normalize())) < 1e-10


# -- roots -------------------------------------------------------------------


def test_roots_monomial():
    rl = roots(hp(0, 0, 1, 0), 1e-8)  # z^2 w
    assert multiplicity_at(rl, ZERO) == 2
    assert multiplicity_at(rl, INFINITY) == 1


def test_roots_factorization():
    rl = roots(hp(-1, 0, 1), 1e-8)  # z^2 - w^2
    assert multiplicity_at(rl, canonicalize(1, 1), 1e-8) == 1
    assert multiplicity_at(rl, canonicalize(-1, 1), 1e-8) == 1


def test_roots_cluster_multiplicity():
    # (z - w)^3 w: three nearby numeric roots cluster to multiplicity 3
    P = HPoly.from_roots([(canonicalize(1, 1), 3), (ZERO, 1)])
    rl = roots(P, 1e-5)
    assert multiplicity_at(rl, canonicalize(1, 1), 1e-4) == 3
    assert multiplicity_at(rl, ZERO) == 1
    assert sum(m for _, m in rl) == 4


def test_roots_total_multiplicity_random():
    rng = np.random.default_rng(5)
    for deg in (1, 2, 5, 8, 12, 16):
        P = hp(*(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
        rl = roots(P, 1e-8)
        assert sum(m for _, m in rl) == deg


def test_roots_accuracy_well_separated():
    # 1e-10 accuracy on chordally well-separated roots of degree <= 16
    # (moduli near 1; integer-ladder roots are the classic ill-conditioned case)
    pts = [
        canonicalize((1 + 0.2 * (k % 3)) * np.exp(2j * np.pi * k / 14), 1)
        for k in range(14)
    ]
    P = HPoly.from_roots([(p, 1) for p in pts])
    rl = roots(P, 1e-8)
    for p in pts:
        best = min(chordal_distance(p, q) for q, _ in rl)
        assert best < 1e-10


def test_roots_product_reconstruction():
    rng = np.random.default_rng(6)
    for deg in (2, 4, 6, 8):
        P = hp(*(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
        rl = roots(P, 1e-8)
        R = HPoly.from_roots(rl)
        assert projective_residual(P.coeffs, R.coeffs) < 1e-8


def _mp_product(rts):
    """Ascending coefficients of prod (x - r), rounded to doubles from a
    50-digit expansion."""
    with mpmath.workdps(50):
        c = [mpmath.mpc(1)]  # descending
        for r in rts:
            c = [a - mpmath.mpc(r) * b for a, b in zip(c + [0], [0] + c)]
        return np.array([complex(x) for x in c[::-1]])


def _mp_polyroots(asc, start):
    """mpmath.polyroots at 50 digits on the double coefficients asc,
    Durand-Kerner started at the points start."""
    with mpmath.workdps(50):
        return np.array([complex(r) for r in mpmath.polyroots(
            [mpmath.mpc(x) for x in asc[::-1]], maxsteps=100, extraprec=50,
            roots_init=[mpmath.mpc(x) for x in start])])


def _planted_coeffs(n, seed):
    """Degree n with n - 5 simple roots, one double and one triple root, of
    modulus 0.8-1.2 at jittered angles 2 pi k / (n - 3): the coefficients
    and the (root, mult) list."""
    rng = np.random.default_rng(seed)
    k = n - 3
    angles = 2 * np.pi * (np.arange(k) + rng.uniform(-0.2, 0.2, k)) / k
    sites = rng.uniform(0.8, 1.2, k) * np.exp(1j * angles)
    mults = np.ones(k, dtype=int)
    mults[rng.choice(k, 2, replace=False)] = (2, 3)
    return _mp_product(np.repeat(sites, mults)), list(zip(sites, mults))


@pytest.mark.parametrize("n", [10, 20, 40, 80])
def test_roots_against_mpmath_oracle(n):
    # The oracle is mpmath.polyroots at 50 digits on the double coefficients
    # themselves; a planted m-fold root is the mean of its m-point oracle
    # cluster, which is well conditioned although the cluster spreads like
    # eps^(1/m).  Measured worst chordal errors over n = 10..80 were 1.9e-15
    # (simple) and 8.7e-15 (double, triple), and 2.4e-15 and 7.2e-15 with an
    # Aberth-Ehrlich solver; the bounds leave 20x headroom.
    asc, planted = _planted_coeffs(n, seed=n)
    # Durand-Kerner starts at the planted sites, an m-fold site as m points
    # at the expected spread 1e-16^(1/m), so the oracle owes nothing to the
    # solver under test
    oracle = _mp_polyroots(asc, [site + 1e-16 ** (1 / m) * np.exp(2j * np.pi * j / m) * (m > 1)
                                 for site, m in planted for j in range(m)])
    rl = roots(HPoly(asc), 1e-4)
    assert len(rl) == len(planted) and sum(m for _, m in rl) == n
    for site, mult in planted:
        center = oracle[np.argsort(np.abs(oracle - site))[:mult]].mean()
        dist, got = min((chordal_distance(pt, canonicalize(center, 1)), m) for pt, m in rl)
        assert got == mult
        assert dist < (5e-14 if mult == 1 else 2e-13)


# (n, k) -> split for the batches the package makes: F_T levels (n = 2),
# d = 5 sampler batches, cubic fibers and one high-degree polynomial's roots
_SPLIT_TABLE = {(2, 1024): False, (2, 2048): True, (5, 255): False, (5, 256): True,
                (3, 256): False, (80, 1): False}


@pytest.mark.parametrize("n", [*range(2, 10), 80])
def test_companion_roots_split_is_bit_identical(monkeypatch, n):
    # the table's batches of size n and, for n < 10, batches just below, at
    # and just above the edge k * n^2 = _SPLIT_WORK (an odd size among them,
    # so the halves differ) and one large batch; a split batch must give the
    # very bits of the unsplit one, with the pool forced to 1
    cases = {}
    if n < 10:
        edge = -(-hpoly._SPLIT_WORK // n**2)
        cases = {edge - 1: False, edge: True, edge + 1: True, 2500: True}
    cases.update({k: split for (m, k), split in _SPLIT_TABLE.items() if m == n})
    rng = np.random.default_rng(n)
    for k, splits in cases.items():
        C = rng.standard_normal((k, n + 1)) + 1j * rng.standard_normal((k, n + 1))
        monkeypatch.setattr(hpoly, "_THREADS", 1)
        whole = _companion_roots(C)
        monkeypatch.setattr(hpoly, "_THREADS", 2)
        monkeypatch.setattr(hpoly, "_pool", None)
        split = _companion_roots(C)
        assert (hpoly._pool is not None) == splits, (n, k)
        assert whole.shape == split.shape == (k, n)
        assert np.array_equal(whole.view(float), split.view(float))


def test_roots_of_one_high_degree_polynomial_starts_no_pool(monkeypatch):
    # a batch of one companion matrix is never split, whatever its size
    monkeypatch.setattr(hpoly, "_THREADS", 2)
    monkeypatch.setattr(hpoly, "_pool", None)
    rng = np.random.default_rng(100)
    rl = roots(HPoly(rng.standard_normal(101) + 1j * rng.standard_normal(101)))
    assert sum(m for _, m in rl) == 100 and hpoly._pool is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_companion_roots_split_in_a_forked_child(monkeypatch):
    # the child inherits the parent's pool object but not its worker thread;
    # a split there (256 rows at n = 5) must start a pool of its own instead
    # of waiting forever
    monkeypatch.setattr(hpoly, "_THREADS", 2)
    monkeypatch.setattr(hpoly, "_pool", None)
    rng = np.random.default_rng(1)
    C = rng.standard_normal((256, 6)) + 1j * rng.standard_normal((256, 6))
    whole = _companion_roots(C)
    assert hpoly._pool is not None
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)
        os._exit(0 if np.array_equal(_companion_roots(C).view(float), whole.view(float)) else 1)
    assert os.waitpid(pid, 0)[1] == 0


def test_shared_map_keeps_item_order_and_nests(monkeypatch):
    # tasks that call _shared_map themselves finish (the caller runs every
    # task the pool has not started), results come back in item order, and
    # the pool keeps its one worker; threads switch every microsecond
    monkeypatch.setattr(hpoly, "_THREADS", 2)
    inner = lambda i: hpoly._shared_map(lambda j: hpoly._shared_map(lambda k: (i, j, k), range(3)),
                                        range(3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    signal.alarm(20)
    try:
        out = [hpoly._shared_map(inner, range(8)) for _ in range(20)]
    finally:
        signal.alarm(0)
        sys.setswitchinterval(interval)
    assert out == [[[[(i, j, k) for k in range(3)] for j in range(3)] for i in range(8)]] * 20
    assert len(hpoly._pool._threads) == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_shared_map_raises_the_earliest_failure_and_leaves_nothing_queued(monkeypatch,
                                                                          threads):
    # items 3 and 5 fail; as in the serial loop the error is item 3's, every
    # task that started has finished when it is raised, and no task starts later
    monkeypatch.setattr(hpoly, "_THREADS", threads)
    started, finished = [], []

    def task(i):
        started.append(i)
        time.sleep(0.005)
        finished.append(i)
        if i in (3, 5):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 3"):
        hpoly._shared_map(task, range(40))
    seen = sorted(started)
    assert sorted(finished) == seen and seen[:4] == [0, 1, 2, 3]
    assert len(seen) < 40
    time.sleep(0.05)
    assert sorted(started) == seen


def test_shared_map_takes_no_item_after_a_failure_on_the_pool(monkeypatch):
    # item 0 runs 0.3 s on one thread while item 1 fails on the other: as in
    # the serial loop, items 0 and 1 run, nothing after them starts, and the
    # error is item 1's
    monkeypatch.setattr(hpoly, "_THREADS", 2)
    started = []

    def task(i):
        started.append(i)
        if i == 0:
            time.sleep(0.3)
        if i == 1:
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 1"):
        hpoly._shared_map(task, range(10))
    time.sleep(0.05)
    assert sorted(started) == [0, 1]


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_shared_map_takes_no_item_after_a_failure_on_the_caller(monkeypatch, error):
    # the caller's first item fails once the pool task has started its own,
    # which runs 0.3 s: the pool task takes nothing more, its item finishes
    # before the call raises, and the error is the caller's item's
    monkeypatch.setattr(hpoly, "_THREADS", 2)
    caller, pool_started = threading.get_ident(), threading.Event()
    started, finished = [], []

    def task(i):
        started.append(i)
        if threading.get_ident() == caller:
            pool_started.wait(5)
            raise error(f"item {i}")
        pool_started.set()
        time.sleep(0.3)
        finished.append(i)
        return i

    with pytest.raises(error) as exc:
        hpoly._shared_map(task, range(10))
    assert sorted(started) == [0, 1] and len(finished) == 1
    assert str(exc.value) == f"item {({0, 1} - set(finished)).pop()}"
    time.sleep(0.05)
    assert sorted(started) == [0, 1]


def test_shared_map_interrupted_while_waiting_raises_at_once(monkeypatch):
    # the caller has taken every item the pool task has not and waits for it;
    # SIGINT there raises KeyboardInterrupt from the call, and nothing more
    # starts.  The pool task sends it once the caller has entered that wait
    monkeypatch.setattr(hpoly, "_THREADS", 2)
    caller, pool_started, waiting = threading.get_ident(), threading.Event(), threading.Event()
    result = Future.result

    def wait_for(future, timeout=None):
        waiting.set()
        return result(future, timeout)

    monkeypatch.setattr(Future, "result", wait_for)
    started = []

    def task(i):
        started.append(i)
        if threading.get_ident() == caller:
            pool_started.wait(5)
            return i
        pool_started.set()
        assert waiting.wait(5)
        signal.pthread_kill(caller, signal.SIGINT)
        time.sleep(0.2)
        return i

    with pytest.raises(KeyboardInterrupt):
        hpoly._shared_map(task, range(2))
    time.sleep(0.3)
    assert sorted(started) == [0, 1]


def test_root_kernel_pool_is_capped_at_two_usable_cores():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert hpoly._THREADS == min(2, cores or 1)


def test_roots_newton_polish_against_mpmath_oracle():
    # 20 simple roots with moduli spread over 1e-2..1e2: the unpolished
    # companion eigenvalues are up to 1.6e-14 off (chordal), the polished
    # roots up to 6.2e-17, so the bound fails without the Newton steps
    rng = np.random.default_rng(3)
    sites = 10 ** rng.uniform(-2, 2, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
    asc = _mp_product(sites)
    rl = roots(HPoly(asc), 1e-12)
    assert sum(m for _, m in rl) == len(rl) == 20
    for r in _mp_polyroots(asc, sites):
        assert min(chordal_distance(canonicalize(r, 1), pt) for pt, _ in rl) < 2e-15


def test_roots_does_not_polish_the_exact_root_at_zero():
    # the two zero trailing coefficients are an exact double root at (0:1); a Newton
    # polish of it on the core, which lacks that root, once overflowed from 0 (numpy
    # warnings, errors under this suite's filter)
    found = roots(hp(0, 0, 1j, 1j, 2.6382280136631755e-93j, 0, 0, 0, 0, 1j))
    assert sum(m for _, m in found) == 9
    assert [(pt.z, pt.w, m) for pt, m in found if pt.z == 0] == [(0, 1, 2)]


def test_roots_zero_poly_rejected():
    with pytest.raises(ValueError):
        roots(HPoly.zero(3))


def test_roots_resultant_consistency():
    rng = np.random.default_rng(7)
    for _ in range(10):
        pr = [canonicalize(r, 1) for r in rng.standard_normal(3) + 1j * rng.standard_normal(3)]
        qr = [canonicalize(r, 1) for r in rng.standard_normal(3) + 1j * rng.standard_normal(3)]
        P = HPoly.from_roots([(p, 1) for p in pr]).normalize()
        Q = HPoly.from_roots([(p, 1) for p in qr]).normalize()
        res = abs(resultant(P, Q))
        shares = any(
            chordal_distance(p, q) < 1e-9 for p, _ in roots(P, 1e-8) for q, _ in roots(Q, 1e-8)
        )
        assert (res < 1e-10) == shares


# -- gcd ---------------------------------------------------------------------


def test_gcd_monomials():
    H, p, q, _ = numeric_gcd(hp(0, 0, 1, 0), hp(0, 1, 0, 0), 1e-6)  # z^2 w, z w^2
    assert H.degree == 2
    assert multiplicity_at(roots(H, 1e-8), ZERO) == 1
    assert multiplicity_at(roots(H, 1e-8), INFINITY) == 1
    assert projective_residual(p.coeffs, [0, 1]) < 1e-12  # p ~ z
    assert projective_residual(q.coeffs, [1, 0]) < 1e-12  # q ~ w


def test_gcd_coprime_gives_constant():
    rng = np.random.default_rng(8)
    P = hp(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    Q = hp(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    assert abs(resultant(P.normalize(), Q.normalize())) > 1e-6
    H, p, q, _ = numeric_gcd(P, Q, 1e-8)
    assert H.degree == 0
    assert np.allclose(p.coeffs, P.coeffs)
    assert np.allclose(q.coeffs, Q.coeffs)


def test_gcd_root_matching():
    # P = (z-w)(z+w), Q = (z-w)w: H = z-w, p = z+w, q = w
    shared = canonicalize(1, 1)
    P = HPoly.from_roots([(shared, 1), (canonicalize(-1, 1), 1)])
    Q = HPoly.from_roots([(shared, 1), (INFINITY, 1)])
    H, p, q, _ = numeric_gcd(P, Q, 1e-6)
    assert H.degree == 1
    assert multiplicity_at(roots(H, 1e-8), shared, 1e-8) == 1
    assert projective_residual(p.coeffs, [1, 1]) < 1e-10  # z + w
    assert projective_residual(q.coeffs, [1, 0]) < 1e-10  # w


def test_gcd_zero_polynomial_side():
    P = hp(0, 1, 1, 0)  # zw(z + w)
    H, p, q, _ = numeric_gcd(P, HPoly.zero(3), 1e-8)
    assert projective_residual(H.coeffs, P.coeffs) < 1e-12
    assert q.is_zero and p.degree == 0 and not p.is_zero
    with pytest.raises(ValueError):
        numeric_gcd(HPoly.zero(2), HPoly.zero(2))


@pytest.mark.parametrize("tol", [0.0, -1e-6, 1.0, 10.0, float("nan"), float("inf")])
def test_gcd_tol_must_lie_in_0_1(tol):
    # a chordal distance is at most 1, so a tol of 1 or more matches every root pair
    with pytest.raises(ValueError, match="gcd tol must lie in"):
        numeric_gcd(hp(0, 1, 1), hp(1, 1, 0), tol)


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
def test_roots_tol_must_be_positive(tol):
    # z^2 - 3zw + w^2 as a cubic: its zero leading coefficient, a root at
    # (1:0), is below no tol <= 0 and would be divided by
    with pytest.raises(ValueError, match="roots tol must be positive"):
        roots(hp(1, -3, 1, 0), tol)


def test_gcd_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        shared = [(canonicalize(r, 1), 1) for r in rng.standard_normal(2) + 1j * rng.standard_normal(2)]
        H0 = HPoly.from_roots(shared)
        p0 = hp(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        q0 = hp(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        P, Q = H0 * p0, H0 * q0
        H, p, q, _ = numeric_gcd(P, Q, 1e-6)
        assert H.degree >= 2
        assert projective_residual((H * p).coeffs, P.coeffs) < 1e-8
        assert projective_residual((H * q).coeffs, Q.coeffs) < 1e-8


def test_gcd_tight_tolerance_sees_split_clusters_as_coprime():
    # a numeric multiplicity-6 root is a cluster of radius ~eps^(1/6) ~ 2e-3;
    # probing far below that scale must coherently report coprimality
    six = canonicalize(1, 1)
    P = HPoly.from_roots([(six, 6)]) * hp(1, 1)
    Q = HPoly.from_roots([(six, 6)]) * hp(2, 1)
    H, p, q, _ = numeric_gcd(P, Q, 1e-9)
    assert H.degree == 0
    assert projective_residual((H * p).coeffs, P.coeffs) < 1e-12
    # while a tolerance above the cluster spread recovers the shared factor
    H2, p2, q2, _ = numeric_gcd(P, Q, 1e-2)
    assert H2.degree == 6


def test_gcd_reconstruction_residual_above_tol_is_a_numerical_failure():
    # two triple roots 8e-6 apart match at tol 9e-6, but the cofactor of the
    # merged hole reconstructs P only to 1.1e-5
    P = HPoly.from_roots([(canonicalize(0.1, 1), 3)])
    Q = HPoly.from_roots([(canonicalize(0.1 + 8e-6, 1), 3)])
    message = "gcd reconstruction residual 1.122e-05 exceeds tol 9.0e-06 on P"
    with pytest.raises(NumericalFailure, match=message):
        numeric_gcd(P, Q, 9e-6)


def _double_loop_matching(rp, rq, tol):
    """numeric_gcd's matching as the scalar double loop it replaced, kept as the
    reference: each P cluster in turn takes the nearest Q cluster with
    multiplicity left (the first of equals) while their distance is below tol."""
    left = [m for _, m in rq]
    take = np.zeros((len(rp), len(rq)))
    for i, (pp, pm) in enumerate(rp):
        need = pm
        while need > 0:
            best, best_d = None, tol
            for j, (qq, _) in enumerate(rq):
                if left[j] > 0 and chordal_distance(pp, qq) < best_d:
                    best, best_d = j, chordal_distance(pp, qq)
            if best is None:
                break
            t = min(need, left[best])
            take[i, best] = t
            left[best] -= t
            need -= t
    return take


_GCD_TOL = 1e-4
# root sites and chordal offsets (in units of _GCD_TOL) of nearby Q roots: two
# roots 0.6 tol either side of a site are both within tol of a P root there,
# and offsets of one size about 0, turned by i or repeated, tie exactly
_MATCH_SITES = [ZERO, INFINITY, canonicalize(0.5, 1), canonicalize(0.5j, 1),
                canonicalize(-2, 1), canonicalize(1 + 1j, 1)]
_OFFSETS = [0.0, 0.6, -0.6, 0.999, 1.001, 3.0]


def _near(site, offset, turn):
    delta = offset * _GCD_TOL * 1j ** turn
    if site.is_infinity:
        return canonicalize(1, delta)
    a = site.ratio()
    return canonicalize(a + delta * (1 + abs(a) ** 2), 1)


@st.composite
def _root_sets(draw):
    sites = st.integers(0, len(_MATCH_SITES) - 1)
    rp = [(_MATCH_SITES[i], draw(st.integers(1, 3)))
          for i in draw(st.lists(sites, min_size=1, max_size=4, unique=True))]
    rq = [(_near(_MATCH_SITES[i], draw(st.sampled_from(_OFFSETS)), draw(st.integers(0, 3))),
           draw(st.integers(1, 3))) for i in draw(st.lists(sites, min_size=1, max_size=6))]
    return rp, rq


@settings(max_examples=200, deadline=None)
@given(_root_sets())
@example(([(ZERO, 2)], [(_near(ZERO, 0.6, k), 1) for k in range(4)]))  # four exact ties
@example(([(_MATCH_SITES[2], 2)], [(_near(_MATCH_SITES[2], o, 0), 1) for o in (0.6, -0.6)]))
def test_gcd_table_matching_is_the_double_loop(sets):
    rp, rq = sets
    rows = [np.array([pt.as_array() for pt, _ in r]) for r in (rp, rq)]
    take = hpoly._match_clusters(chordal_cross(*rows), [m for _, m in rp],
                                 [m for _, m in rq], _GCD_TOL)
    assert np.array_equal(take, _double_loop_matching(rp, rq, _GCD_TOL))


# -- misc --------------------------------------------------------------------


def test_wronskian_of_squaring_map():
    # (z^2, w^2): W = 2z * 2w has critical points 0 and infinity
    Wr = wronskian((hp(0, 0, 1), hp(1, 0, 0)))
    rl = roots(Wr, 1e-8)
    assert multiplicity_at(rl, ZERO) == 1
    assert multiplicity_at(rl, INFINITY) == 1


def test_vanishing_order():
    P = HPoly.from_roots([(canonicalize(1, 1), 3), (ZERO, 2)])
    assert vanishing_order(P, canonicalize(1, 1)) == 3
    assert vanishing_order(P, ZERO) == 2
    assert vanishing_order(P, canonicalize(5, 1)) == 0


def test_count_zeros_in_disk():
    P = HPoly.from_roots([(canonicalize(1, 1), 3), (ZERO, 2), (INFINITY, 1)])
    assert count_zeros_in_disk(P, canonicalize(1, 1), 1e-2) == 3
    assert count_zeros_in_disk(P, ZERO, 1e-2) == 2
    assert count_zeros_in_disk(P, INFINITY, 1e-2) == 1
    assert count_zeros_in_disk(P, canonicalize(7, 1), 1e-2) == 0


def test_projective_residual_closed_form():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    lam = 2.3 - 0.7j
    assert projective_residual(lam * a, a) < 1e-14
    # oracle: brute-force scan over lambda beats the closed form by at most a hair
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    closed = projective_residual(a, b)
    grid = min(
        np.linalg.norm(a - lam * b) / np.linalg.norm(a)
        for lam in (np.vdot(b, a) / np.vdot(b, b)) * (1 + np.linspace(-0.01, 0.01, 41))
    )
    assert closed <= grid + 1e-12


def test_to_json_rows_are_plain_floats_with_the_old_text():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    c[1], c[3] = complex(-0.0, 0.0), complex(1e300, -5e-324)
    P = hp(*c)
    rows = P.to_json()["coeffs"]
    assert all(type(x) is float for row in rows for x in row)
    old_rows = [[x.real, x.imag] for x in P.coeffs]  # np.float64 leaves
    assert json.dumps(rows, indent=2) == json.dumps(old_rows, indent=2)
    assert json.dumps(rows) == json.dumps(old_rows)
