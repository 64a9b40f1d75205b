"""The four benchmark workloads: seeded inputs, timed ops and output checks.

An op is one `ratbound.cli.main(argv)` call or one library call from the
README tour.  Every op has a check that derives what the output must be
without trusting the code under test (closed-form masses and hole depths of
the example families, mass + tail = 1, unit-norm samples, escape-rate
homogeneity, expected exit codes).  The check returns a small digest that is
compared with `reference.json` when the run uses DEFAULT_SEED.

The workload seed picks the family parameters (from pools whose members all
decompose cleanly at the stated tolerance), the sampler seeds and the start
points a0.  ratbound only ever sees the generated argv lists and map files,
so every seed does the same amount of work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ratbound as rb
from ratbound import cli
from ratbound import families as fam

DEFAULT_SEED = 1
LIMIT_TOL = "1e-4"  # gcd tol for the closed-form limits (multiplicity <= 6 roots)

# Parameter pools.  Every member decomposes with the documented e and hole
# depths, gives the same support sizes as the others and costs about the
# same, so the seed changes the inputs but not the amount of work.  F_T with
# T >= 2.2 is left out: its roots cost twice as much, and from T = 2.5 its
# backward orbits come within the 1e-9 merge radius.  The degree-9 and -16
# closed-form limits take a from LIMIT_A_POOL: their double-root clusters
# make root finding up to 2.5 times slower for other a.
FT_T_POOL = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
A_POOL = (0.3, 0.4, 0.5, 0.6, 0.7)
LIMIT_A_POOL = (0.4, 0.5)
T_POOL = (1e-1, 3e-2, 1e-2)

# The F_T measure at FT_TAIL_TOL holds 16,384 atoms, so its last three merges
# (4,096, 8,192 and 16,384 points) take the bucket path of merge_atoms; the
# limit measures at LIMIT_TAIL_TOL hold 4,096 and keep the tour op short.
FT_TAIL_TOL = 1e-4
LIMIT_TAIL_TOL = 4e-4
SAMPLE_DEPTH = 20


class CheckFailed(Exception):
    """An op returned the wrong exit code or an output that breaks an invariant."""


@dataclass
class Op:
    """One timed call: prep() runs untimed before it, check() untimed after."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    prep: Callable[[], None] | None = None
    out: str | None = None


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# points and output files, read without ratbound


def _point(js):
    (zr, zi), (wr, wi) = js
    return complex(zr, zi), complex(wr, wi)


def _chordal(a, b):
    na = math.hypot(abs(a[0]), abs(a[1]))
    nb = math.hypot(abs(b[0]), abs(b[1]))
    return abs(a[0] * b[1] - a[1] * b[0]) / (na * nb)


INF = (1.0, 0.0)


def _affine(x):
    return (complex(x), 1.0)


def _read_json(path):
    with open(path) as fh:
        data = json.load(fh)
    return data["result"]


def _read_csv(path):
    header = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            header[key] = val
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return header, rows[0], rows[1:]


def _unit_rows(rows, what):
    """rows: (n, 2) complex.  Canonical points have unit norm and a real
    positive largest coordinate."""
    norms = np.abs(rows[:, 0]) ** 2 + np.abs(rows[:, 1]) ** 2
    _require(np.all(np.abs(norms - 1.0) < 1e-12), f"{what}: samples not unit norm")
    big = np.where(np.abs(rows[:, 0]) >= np.abs(rows[:, 1]), rows[:, 0], rows[:, 1])
    _require(np.all(np.abs(big.imag) < 1e-12) and np.all(big.real > 0),
             f"{what}: samples not canonical")


def _sample_digest(rows):
    return {
        "head": [[z.real, z.imag, w.real, w.imag] for z, w in rows[:3]],
        "mean": [rows[:, 0].mean().real, rows[:, 0].mean().imag,
                 rows[:, 1].mean().real, rows[:, 1].mean().imag],
    }


# ---------------------------------------------------------------------------
# op constructors


class Workspace:
    """Output directory for one worker; one file per op slot."""

    def __init__(self, root: Path):
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def path(self, stem, suffix):
        self.count += 1
        return str(self.root / f"{self.count:03d}-{stem}.{suffix}")

    def write_map(self, name, f):
        path = self.path(name, "map.json")
        with open(path, "w") as fh:
            json.dump(f.to_json(), fh)
        return path


def cli_op(label, argv, out, check, expect_rc=0):
    """A CLI call writing to `out`; stdout and stderr are swallowed."""
    argv = list(argv) + ["--out", out]

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def checked(rc):
        _require(rc == expect_rc, f"{label}: exit {rc}, expected {expect_rc}")
        if expect_rc != 0:
            return {"exit": rc}
        return check(out)

    return Op(label, run, checked, out=out)


def _family_args(name, **params):
    argv = ["--family", name]
    for key, val in params.items():
        argv += ["--param", f"{key}={val!r}"]
    return argv


# ---------------------------------------------------------------------------
# atoms: large atomic measures, their JSON, pullback and weak distance


def _levels(ratio, tol):
    """Levels kept by boundary_measure: the first N with ratio^N < tol."""
    n = 1
    while ratio**n >= tol:
        n += 1
    return n


def _support_size(points, eps=1e-9):
    """Points of an (n, 2) complex array that are more than chordal eps from
    every other point, counting each close group once.  Sorted on a
    coordinate of the Riemann sphere, where chordal distance is half the
    Euclidean one, so the phase of the stored representative does not matter."""
    z, w = points[:, 0], points[:, 1]
    zw = z * np.conj(w)
    sphere = np.column_stack([2 * zw.real, 2 * zw.imag, np.abs(z) ** 2 - np.abs(w) ** 2])
    sphere /= (np.abs(z) ** 2 + np.abs(w) ** 2)[:, None]
    sphere = sphere[np.argsort(sphere[:, 0], kind="stable")]
    dup = np.zeros(len(sphere), dtype=bool)
    for k in range(1, 9):
        dup[k:] |= np.linalg.norm(sphere[k:] - sphere[:-k], axis=1) / 2 <= eps
    return len(sphere) - int(dup.sum())


def _check_measure(expected_support, ratio, tol):
    """Each non-hole atom has e = 2 distinct preimages and the hole set maps
    into itself, so N levels hold 2^N support points; total mass + tail = 1.

    The support is counted at the merge radius rather than taken from the
    atom count: the bucket merge can keep two copies of a point that sit on
    either side of a grid edge (measure.merge_atoms' docstring), which
    changes the atom count but not the measure."""

    def check(out):
        res = _read_json(out)
        atoms = res["measure"]["atoms"]
        masses = np.array([a["mass"] for a in atoms])
        tail = res["measure"]["tail_bound"]
        _require(abs(masses.sum() + tail - 1.0) < 1e-12, "measure: mass + tail != 1")
        _require(abs(tail - ratio ** _levels(ratio, tol)) < 1e-15, "measure: wrong tail")
        pts = np.array([[complex(*a["point"][0]), complex(*a["point"][1])] for a in atoms])
        support = _support_size(pts)
        _require(support == expected_support,
                 f"measure: {support} support points, expected {expected_support}")
        angles = np.array([c["angle"] for c in res["cone_angles"]])
        _require(len(angles) == len(masses)
                 and np.allclose(angles, 2 * math.pi - 4 * math.pi * masses, atol=1e-12),
                 "measure: cone angles do not match masses")
        return {"support": support, "tail": tail,
                "moment": float(masses @ np.abs(pts[:, 0]) ** 2)}

    return check


def atoms_ops(rng: random.Random, ws: Workspace):
    """A large F_T measure, four limit measures and the README tour line
    weak_distance(pullback(dec, mu, normalize=True), mu) as one library op.
    The limit measures are the largest group and sit between the tour op and
    the F_T measure in cost, so the median op is one of them; with four per
    pass, spread over the pass, the median does not hang on one slow op."""
    T = rng.choice(FT_T_POOL)
    a1, a2, a3, a4 = rng.sample(A_POOL, 4)
    n_atoms = 2 ** _levels(0.5, LIMIT_TAIL_TOL)

    def measure_limit(f):
        tail_arg = ["--param", f"tail_tol={LIMIT_TAIL_TOL!r}"]
        return cli_op("measure.example1_second_limit",
                      ["measure", "--input", ws.write_map("e1s2", f), "--tol", LIMIT_TOL,
                       *tail_arg],
                      ws.path("measure-e1s2", "json"),
                      _check_measure(n_atoms, 0.5, LIMIT_TAIL_TOL))

    limit = fam.example1_second_limit(2, a=a1)
    lim = measure_limit(limit)
    state = {}

    def prep_tour():
        with open(lim.out) as fh:
            state["mu"] = rb.AtomicMeasure.from_json(json.load(fh)["result"]["measure"])
        state["dec"] = rb.decompose(limit, float(LIMIT_TOL))

    def run_tour():
        pb = rb.pullback(state["dec"], state["mu"], normalize=True)
        return pb, rb.weak_distance(pb, state["mu"])

    def check_tour(result):
        pb, dist = result
        tail = state["mu"].tail_bound
        # one more level than mu: twice the support, mass + tail still 1
        support = _support_size(pb.points)
        _require(support == 2 * n_atoms, f"pullback: {support} support points")
        _require(abs(pb.masses.sum() + pb.tail_bound - 1.0) < 1e-12,
                 "pullback: mass + tail != 1")
        # pullback(mu_N) - mu_N is level N of mu_f, whose mass is below the
        # tail of mu_N, and the test functions are bounded by 1
        _require(0.0 <= dist <= tail + 1e-12, f"weak_distance {dist} exceeds the tail {tail}")
        return {"support": support, "tail": pb.tail_bound, "distance": dist}

    measure_ft = cli_op(
        "measure.epstein_FT",
        ["measure", *_family_args("epstein_FT", T=T), "--param", f"tail_tol={FT_TAIL_TOL!r}"],
        ws.path("measure-ft", "json"),
        _check_measure(2 ** _levels(0.5, FT_TAIL_TOL), 0.5, FT_TAIL_TOL))
    return [
        lim, Op("pullback+weak_distance", run_tour, check_tour, prep_tour),
        measure_limit(fam.example1_second_limit(2, a=a2)), measure_ft,
        measure_limit(fam.example1_second_limit(2, a=a3)),
        measure_limit(fam.example1_second_limit(2, a=a4)),
    ]


# ---------------------------------------------------------------------------
# sampling: inverse iteration and the converge sweep


def _a0(rng):
    r = rng.uniform(0.3, 0.9)
    return complex(r * math.cos(rng.uniform(0, 2 * math.pi)),
                   r * math.sin(rng.uniform(0, 2 * math.pi)))


def _check_sample_json(count, seed):
    def check(out):
        res = _read_json(out)
        rows = np.array([[complex(*z), complex(*w)] for z, w in res["samples"]])
        _require(res["count"] == count and len(rows) == count, "sample: wrong count")
        _require(res["seed"] == seed and res["depth"] == SAMPLE_DEPTH,
                 "sample: wrong seed or depth echoed")
        _unit_rows(rows, "sample")
        return _sample_digest(rows)

    return check


def _check_sample_csv(f, a0, count, seed, workers):
    """CSV floats are written at 17 digits, so they round-trip exactly.

    The (seed, workers) contract: worker 0 draws default_rng([seed, 0]) for
    the first ceil(count / workers) samples, so that chunk equals a
    one-worker run of that size.  That is verified on the first call only.
    """
    stream_pending = True

    def check(out):
        nonlocal stream_pending
        header, fields, body = _read_csv(out)
        _require(fields == ["z_re", "z_im", "w_re", "w_im"], "sample csv: bad header")
        _require(header.get("seed") == str(seed) and header.get("count") == str(count),
                 "sample csv: wrong seed or count echoed")
        vals = np.array(body, dtype=float)
        rows = vals[:, 0::2] + 1j * vals[:, 1::2]
        _require(len(rows) == count, "sample csv: wrong count")
        _unit_rows(rows, "sample csv")
        if stream_pending:
            stream_pending = False
            first = -(-count // workers)
            ref = rb.sample_max_entropy(f, rb.canonicalize(a0, 1.0), SAMPLE_DEPTH,
                                        first, seed, workers=1).samples
            _require(np.array_equal(ref, rows[:first]),
                     "sample csv: worker-0 chunk differs from a one-worker stream")
        return _sample_digest(rows)

    return check


def _check_converge(values):
    def check(out):
        header, fields, body = _read_csv(out)
        _require(fields == ["t", "weak_distance", "mass_in_disk", "flag"],
                 "converge: bad header")
        _require(len(body) == len(values), "converge: wrong row count")
        dists = [float(r[1]) for r in body]
        disk = [float(r[2]) for r in body]
        _require(all(r[3] == "ok" for r in body), "converge: a row failed")
        _require(all(0.0 <= x <= 1.0 for x in dists + disk), "converge: value outside [0, 1]")
        _require(float(header["summary.final_distance"]) == dists[-1],
                 "converge: summary disagrees with rows")
        return {"distances": dists, "mass_in_disk": disk}

    return check


def sampling_ops(rng: random.Random, ws: Workspace):
    """Three d=5 samples, so the median op is one of them rather than the
    boundary between the cheap d=2 sample and the rest."""
    ops = []
    for _ in range(3):
        a5, s5, x5 = rng.choice(A_POOL), rng.randrange(2**31), _a0(rng)
        ops.append(cli_op(
            "sample.d5",
            ["sample", *_family_args("example1", d=5, a=a5, t=1e-3, a0=x5),
             "--depth", str(SAMPLE_DEPTH), "--count", "500", "--seed", str(s5)],
            ws.path("sample-d5", "json"), _check_sample_json(500, s5)))
    a2, s2, x2 = rng.choice(A_POOL), rng.randrange(2**31), _a0(rng)
    f2 = fam.make_example1(2, a2, 1e-3)
    ops.insert(1, cli_op(
        "sample.d2.workers2",
        ["sample", *_family_args("example1", d=2, a=a2, t=1e-3, a0=x2),
         "--depth", str(SAMPLE_DEPTH), "--count", "2500", "--seed", str(s2),
         "--workers", "2", "--format", "csv"],
        ws.path("sample-d2", "csv"),
        _check_sample_csv(f2, x2, 2500, s2, 2)))
    values = [1e-1, 1e-2, 1e-3, 1e-4]
    ops.insert(2, cli_op(
        "converge",
        ["converge", *_family_args("example1", d=2, a=rng.choice(A_POOL)),
         "--param", "sweep=t", "--param", "values=" + ",".join(map(repr, values)),
         "--param", "tail_tol=1e-4", "--seed", str(rng.randrange(2**31)),
         "--param", f"a0={_a0(rng)!r}",
         "--depth", str(SAMPLE_DEPTH), "--count", "1000", "--format", "csv"],
        ws.path("converge", "csv"), _check_converge(values)))
    return ops


# ---------------------------------------------------------------------------
# escape: escape-rate grids, telescoped series and direct paths


GRID = 31


def _check_escape(f, lam):
    """Homogeneity G(lam x) = G(x) + log|lam| on a few grid points, recomputed
    through the library at the scaled point."""

    def check(out):
        _, fields, body = _read_csv(out)
        _require(fields == ["re", "im", "G"], "escape: bad header")
        _require(len(body) == GRID * GRID, "escape: wrong row count")
        vals = np.array(body, dtype=float)
        # -inf marks grid points on a hole line (z = 0 for F_T)
        finite = np.isfinite(vals[:, 2])
        _require(not np.any(np.isnan(vals)) and np.all(vals[~finite, 2] == -np.inf),
                 "escape: NaN or +inf in the grid")
        idx = np.nonzero(finite)[0]
        for i in idx[[0, len(idx) // 3, len(idx) - 7]]:
            z = complex(vals[i, 0], vals[i, 1])
            g = rb.escape_rate(f, (lam * z, lam * 1.0), 50, 1e-12).value
            _require(abs(g - vals[i, 2] - math.log(abs(lam))) < 1e-9,
                     f"escape: homogeneity fails at {z}")
        g = vals[finite, 2]
        return {"sum": float(g.sum()), "min": float(g.min()), "max": float(g.max()),
                "holes": int((~finite).sum())}

    return check


def escape_ops(rng: random.Random, ws: Workspace):
    T1, T2 = rng.sample(FT_T_POOL, 2)
    a = rng.choice(A_POOL)
    grid = ["--param", f"re=-2:2:{GRID}", "--param", f"im=-2:2:{GRID}"]
    lam = complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
    ops = []
    for label, name, params in (
        ("escape.epstein_FT", "epstein_FT", {"T": T1}),
        ("escape.example1", "example1", {"d": 2, "a": a, "t": 1e-2}),
        ("escape.epstein_FT", "epstein_FT", {"T": T2}),
    ):
        f = fam.FamilySpec(name, params).build()
        ops.append(cli_op(label, ["escape", *_family_args(name, **params), *grid],
                          ws.path("escape", "csv"), _check_escape(f, lam)))
    return ops


# ---------------------------------------------------------------------------
# algebra: many short decompose / iterate / pointmass / indeterminate /
# properness calls


@dataclass
class MapCase:
    """A map with its documented decomposition.

    holes: [(point, depth)]; masses: {point: mu_f({point})} for points whose
    mass has a closed form.
    """

    label: str
    argv: list
    d: int
    e: int
    holes: list
    masses: dict
    iterate_n: tuple = (2, 3)


def _second_limit_cases(rng, ws):
    """example1_second_limit(d, a): degree d^2, e = d, depth d-1 at infinity
    and at each root 1..d-1 of P; mu_f({inf}) = 1/(d+1) and 0 is not charged
    (phi(0) = a, whose orbit misses the holes).

    example2_second_limit(d, k, a): degree d^2, depth k(d-1) at infinity and
    d-k at each root of P; phi fixes infinity with local degree 1 and sends
    0 there with local degree L0 = (d-k+1)(k-1), so
    mu_f({inf}) = k/(d+1) and mu_f({0}) = L0 k / (d^2 (d+1)).
    """
    cases = []
    for d in (2, 3):
        a = rng.choice(A_POOL if d == 2 else LIMIT_A_POOL)
        path = ws.write_map(f"e1s{d}", fam.example1_second_limit(d, a=a))
        holes = [(INF, d - 1)] + [(_affine(j), d - 1) for j in range(1, d)]
        cases.append(MapCase(f"example1_second_limit.d{d}",
                             ["--input", path, "--tol", LIMIT_TOL], d * d, d, holes,
                             {INF: 1 / (d + 1), (0.0, 1.0): 0.0}))
    for d, k in ((2, 2), (3, 2), (3, 3), (4, 2)):
        a = rng.choice(A_POOL if d * d < 9 else LIMIT_A_POOL)
        path = ws.write_map(f"e2s{d}{k}", fam.example2_second_limit(d, k, a=a))
        holes = [(INF, k * (d - 1))] + [(_affine(j), d - k) for j in range(1, d - k + 1)]
        e = d * d - k * (d - 1) - (d - k) ** 2
        l0 = (d - k + 1) * (k - 1)
        # iterate n=3 of the degree-16 map has degree 4096, where the
        # product formula emits NaN coefficients (see README.md)
        cases.append(MapCase(f"example2_second_limit.d{d}k{k}",
                             ["--input", path, "--tol", LIMIT_TOL], d * d, e, holes,
                             {INF: k / (d + 1), (0.0, 1.0): l0 * k / (d * d * (d + 1))},
                             (2,) if d * d > 9 else (2, 3)))
    return cases


def _algebra_cases(rng, ws):
    cases = []
    for d in range(2, 7):
        params = {"d": d, "a": rng.choice(A_POOL), "t": rng.choice(T_POOL)}
        cases.append(MapCase(f"example1.d{d}", _family_args("example1", **params),
                             d, d, [], {INF: 0.0, (0.0, 1.0): 0.0}))
    for T in rng.sample(FT_T_POOL, 3):
        # F_T = zw * phi with phi(z) = z + T + 1/z: holes 0 and inf of depth
        # 1, each mapped to inf, fixed with local degree 1: mass 1/4 + 1/12
        cases.append(MapCase("epstein_FT", _family_args("epstein_FT", T=T), 4, 2,
                             [((0.0, 1.0), 1), (INF, 1)],
                             {INF: 1 / 3, (0.0, 1.0): 1 / 3}))
    return cases + _second_limit_cases(rng, ws)


def _check_decompose(case):
    def check(out):
        res = _read_json(out)
        _require(res["d"] == case.d and res["e"] == case.e,
                 f"decompose {case.label}: d, e = {res['d']}, {res['e']}")
        verdict = "degenerate" if case.e < case.d else "nondegenerate"
        _require(res["verdict"] == verdict, f"decompose {case.label}: {res['verdict']}")
        got = [(_point(h["point"]), h["depth"]) for h in res["holes"]]
        _require(len(got) == len(case.holes), f"decompose {case.label}: hole count")
        for pt, depth in case.holes:
            match = [m for p, m in got if _chordal(p, pt) < 1e-3]
            _require(match == [depth], f"decompose {case.label}: depth at {pt}")
        return {"e": res["e"], "gcd_residual_ok": res["gcd_residual"] < 1e-6}

    return check


def _check_iterate(case, n):
    def check(out):
        res = _read_json(out)
        it = res["iterate"]
        _require(it["d"] == case.d**n, f"iterate {case.label}: degree {it['d']}")
        coeffs = np.array(it["P"]["coeffs"] + it["Q"]["coeffs"], dtype=float)
        _require(np.all(np.isfinite(coeffs)), f"iterate {case.label}: non-finite coefficients")
        _require(abs(np.abs(coeffs[:, 0] + 1j * coeffs[:, 1]).max() - 1.0) < 1e-12,
                 f"iterate {case.label}: pair not normalized")
        table = res["hole_depth_table"]
        _require(len(table) == len(case.holes), f"iterate {case.label}: table size")
        digest = []
        for row in table:
            pt = _point(row["point"])
            exp = [m for p, m in case.holes if _chordal(p, pt) < 1e-3]
            seq = row["normalized_depths"]
            _require(exp == [row["depth"]], f"iterate {case.label}: hole depth")
            _require(len(seq) == n and abs(seq[0] - row["depth"] / case.d) < 1e-15
                     and all(b >= a for a, b in zip(seq, seq[1:])),
                     f"iterate {case.label}: depth sequence")
            mass = [m for p, m in case.masses.items() if _chordal(p, pt) < 1e-3]
            _require(seq[-1] <= (mass[0] if mass else 1.0) + 1e-12,
                     f"iterate {case.label}: depth sequence above the point mass")
            digest.append(seq)
        return {"table": sorted(digest)}

    return check


def _check_pointmass(case, at):
    def check(out):
        res = _read_json(out)
        pt = INF if at == "inf" else (0.0, 1.0)
        expected = case.masses[pt]
        # point_mass runs at tol 1e-12; a large reported bound is itself a failure,
        # so a wrong mass cannot pass by inflating its own error bound
        _require(res["error_bound"] <= 1e-9,
                 f"pointmass {case.label} at {at}: error bound {res['error_bound']}")
        _require(abs(res["mass"] - expected) <= res["error_bound"] + 1e-12,
                 f"pointmass {case.label} at {at}: {res['mass']} != {expected}")
        return {"mass": res["mass"]}

    return check


def _check_flag(expected):
    def check(out):
        got = _read_json(out)["indeterminate"]
        _require(got is expected, f"indeterminate: {got}, expected {expected}")
        return {"indeterminate": got}

    return check


def _check_properness(case):
    """|Res(f^2)| vanishes exactly when f is degenerate.  For d >= 5 the
    normalized example1 resultant is below the smallest double and reads 0,
    so positivity is required only up to d = 4."""

    def check(out):
        _, fields, body = _read_csv(out)
        _require(fields == ["t", "abs_resultant"] and len(body) == 1, "properness: bad csv")
        res = float(body[0][1])
        if case.e < case.d:
            _require(res < 1e-10, f"properness {case.label}: |Res| = {res} on a degenerate map")
        else:
            _require(math.isfinite(res) and (res > 0.0 or case.d >= 5),
                     f"properness {case.label}: |Res| = {res} on a nondegenerate map")
        return {"abs_resultant": res}

    return check


def algebra_ops(rng: random.Random, ws: Workspace):
    ops = []
    for case in _algebra_cases(rng, ws):
        ops.append(cli_op(f"decompose.{case.label}", ["decompose", *case.argv],
                          ws.path("decompose", "json"), _check_decompose(case)))
        for n in case.iterate_n:
            ops.append(cli_op(f"iterate.n{n}.{case.label}",
                              ["iterate", *case.argv, "--param", f"n={n}"],
                              ws.path("iterate", "json"), _check_iterate(case, n)))
        for at in ("inf", "0"):
            ops.append(cli_op(f"pointmass.{at}.{case.label}",
                              ["pointmass", *case.argv, "--param", f"at={at}"],
                              ws.path("pointmass", "json"), _check_pointmass(case, at)))
        ops.append(cli_op(f"indeterminate.{case.label}", ["indeterminate", *case.argv],
                          ws.path("indeterminate", "json"), _check_flag(False)))
        ops.append(cli_op(f"properness.{case.label}", ["properness", *case.argv],
                          ws.path("properness", "csv"), _check_properness(case)))
    # (w P : 0) lies on I(d): membership is reported, iterating is exit 3
    on_locus = ws.write_map("e1l2", fam.example1_limit(2))
    ops.append(cli_op("indeterminate.example1_limit", ["indeterminate", "--input", on_locus],
                      ws.path("indeterminate", "json"), _check_flag(True)))
    ops.append(cli_op("iterate.example1_limit", ["iterate", "--input", on_locus],
                      ws.path("iterate", "json"), None, expect_rc=3))
    ops.append(cli_op("decompose.custom", ["decompose", "--family", "custom"],
                      ws.path("decompose", "json"), None, expect_rc=2))
    return ops


WORKLOADS = {
    "atoms": atoms_ops,
    "sampling": sampling_ops,
    "escape": escape_ops,
    "algebra": algebra_ops,
}

# Passes per 10 s of --seconds.  The pass count depends on --seconds only, so
# two commits measured with the same --seconds do the same work.  On the
# reference machine (2 cores, see README.md) a pass takes 2.6 s (atoms),
# 1.5 s (sampling), 0.7 s (escape) and 1.15 s (algebra), so a run measures
# about 10 s, except sampling (7.5 s): with five passes its op_tail_s (ten ops
# beyond it) falls inside the d=5 samples, not on their slowest few.
PASSES_PER_10S = {"atoms": 4, "sampling": 5, "escape": 12, "algebra": 8}
