"""Command-line experiment runner.

Verbs: decompose | indeterminate | iterate | measure | pointmass | sample |
converge | properness | escape.  Maps come from --input <json> or --family
<name> with repeatable --param k=v; seeds fall back to the RATBOUND_SEED
environment variable.  Structured results are JSON, sweeps are CSV with
floats at 17 significant digits; every output embeds the tolerance block
for provenance.  Exit codes: 0 ok, 2 validation, 3 mathematical domain,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import families as fam
from .config import DEFAULTS
from .errors import MathDomainError, NumericalFailure
from .escape import cone_angle_report, escape_grid
from .hpoly import HPoly, resultant
from .measure import (
    AtomicMeasure,
    boundary_measure,
    mass_in_disk,
    point_mass,
    sample_max_entropy,
    weak_distance,
)
from .projline import INFINITY, canonicalize
from .ratmap import (
    BoundaryMap,
    decompose,
    hole_depth_sequence,
    is_indeterminate,
    iterate_formula,
)

# gcd tolerance for the closed-form family limits, whose gcd factors carry
# multiplicity-m roots (numeric m-fold roots spread like eps^(1/m))
FAMILY_LIMIT_GCD_TOL = 1e-4


def _parse_value(text):
    if "," in text:
        return [_parse_value(part) for part in text.split(",")]
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(pairs):
    params = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise ValueError(f"--param expects key=value, got {raw!r}")
        key, text = raw.split("=", 1)
        params[key.strip()] = _parse_value(text.strip())
    return params


def _parse_point(value):
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return INFINITY
    if isinstance(value, float) and math.isinf(value):
        return INFINITY
    return canonicalize(complex(value), 1.0)


def _load_map(args, params):
    if args.input:
        with open(args.input) as fh:
            return BoundaryMap.from_json(json.load(fh))
    if args.family:
        return fam.FamilySpec(args.family, params).build()
    raise ValueError("provide a map via --input <json> or --family <name>")


def _seed(args):
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("RATBOUND_SEED", "0"))


def _envelope(args, result):
    return {
        "command": args.command,
        "tolerances": DEFAULTS.as_dict(),
        "seed": _seed(args),
        "result": result,
    }


def _emit_json(args, result):
    text = json.dumps(_envelope(args, result), indent=2)
    _write(args.out, text + "\n")


def _emit_csv(args, header_fields, rows, extra_header=None):
    lines = [f"# command={args.command}"]
    for key, val in DEFAULTS.as_dict().items():
        lines.append(f"# tol.{key}={val:.17g}")
    for key, val in (extra_header or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(",".join(header_fields))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(args.out, "\n".join(lines) + "\n")


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_decompose(args):
    params = _parse_params(args.param)
    f = _load_map(args, params)
    dec = decompose(f, args.tol or DEFAULTS.gcd)
    rep = dec.report()
    rep["verdict"] = (
        "indeterminate" if dec.indeterminate
        else ("degenerate" if dec.degenerate else "nondegenerate")
    )
    _emit_json(args, rep)


def cmd_indeterminate(args):
    params = _parse_params(args.param)
    f = _load_map(args, params)
    verdict = is_indeterminate(f, args.tol or DEFAULTS.indeterminacy)
    _emit_json(args, {"indeterminate": bool(verdict)})


def cmd_iterate(args):
    params = _parse_params(args.param)
    n = int(params.pop("n", 2))
    f = _load_map(args, params)
    gcd_tol = args.tol or DEFAULTS.gcd
    fn = iterate_formula(f, n, gcd_tol)
    dec = decompose(f, gcd_tol)
    table = []
    for pt, depth in dec.holes:
        seq = hole_depth_sequence(f, pt, n, gcd_tol)
        table.append({
            "point": pt.to_json(),
            "depth": depth,
            "normalized_depths": [float(s) for s in seq],
        })
    _emit_json(args, {"iterate": fn.to_json(), "hole_depth_table": table})


def cmd_measure(args):
    params = _parse_params(args.param)
    f = _load_map(args, params)
    dec = decompose(f, args.tol or DEFAULTS.gcd)
    mu = boundary_measure(dec, float(params.get("tail_tol", 1e-9)))
    cones = [
        {"point": pt.to_json(), "angle": angle, "infinite_end": bool(inf)}
        for pt, angle, inf in cone_angle_report(mu)
    ]
    _emit_json(args, {"measure": mu.to_json(), "cone_angles": cones})


def cmd_pointmass(args):
    params = _parse_params(args.param)
    at = _parse_point(params.pop("at", "inf"))
    f = _load_map(args, params)
    dec = decompose(f, args.tol or DEFAULTS.gcd)
    mass, err = point_mass(dec, at, float(params.get("series_tol", 1e-12)))
    _emit_json(args, {"point": at.to_json(), "mass": mass, "error_bound": err})


def cmd_sample(args):
    params = _parse_params(args.param)
    a0 = _parse_point(params.pop("a0", complex(0.5, 0.5)))
    f = _load_map(args, params)
    emp = sample_max_entropy(
        f, a0, depth=args.depth, count=args.count, seed=_seed(args),
        workers=args.workers,
    )
    if args.format == "csv":
        rows = [
            (z.real, z.imag, w.real, w.imag) for z, w in emp.samples
        ]
        _emit_csv(args, ["z_re", "z_im", "w_re", "w_im"], rows,
                  {"seed": _seed(args), "depth": args.depth, "count": args.count})
    else:
        _emit_json(args, emp.to_json())


def _target_measure(args, params):
    """The limit measure a converge sweep is compared against."""
    name = args.family
    d = int(params.get("d", 2))
    P = fam._p_from_roots(params.get("P_roots"))
    if name == "example1":
        limit = fam.example1_second_limit(d, params.get("a", 1.0), P)
    elif name == "example2":
        limit = fam.example2_second_limit(d, int(params["k"]), params.get("a", 1.0), P)
    elif name == "polylimit":
        limit = fam.polylimit_limit(params["roots"])
    elif name == "cubic_eps":
        return AtomicMeasure(np.array([[1.0, 0.0]], dtype=complex), np.array([1.0]))
    else:
        raise ValueError(f"converge sweeps are not defined for family {name!r}")
    dec = decompose(limit, FAMILY_LIMIT_GCD_TOL)
    return boundary_measure(dec, float(params.get("tail_tol", 1e-6)))


def cmd_converge(args):
    params = _parse_params(args.param)
    sweep = params.pop("sweep", "t")
    values = params.pop("values", None)
    if values is None:
        raise ValueError("converge needs --param values=v1,v2,...")
    if not isinstance(values, list):
        values = [values]
    center = _parse_point(params.pop("center", "inf"))
    radius = float(params.pop("radius", 0.1))
    a0 = _parse_point(params.pop("a0", complex(0.5, 0.5)))
    target = _target_measure(args, params)
    rows = []
    dists = []
    for v in values:
        row_params = dict(params)
        row_params[sweep] = v
        try:
            f = fam.FamilySpec(args.family, row_params).build()
            emp = sample_max_entropy(f, a0, depth=args.depth, count=args.count,
                                     seed=_seed(args), workers=args.workers)
            dist = weak_distance(emp, target)
            md = mass_in_disk(emp, center, radius)
            rows.append((_fmt_value(v), dist, md, "ok"))
            dists.append(dist)
        except (ValueError, NumericalFailure, MathDomainError) as exc:
            rows.append((_fmt_value(v), math.nan, math.nan, f"error: {exc}"))
    summary = {
        "distances_decreasing": all(b <= a for a, b in zip(dists, dists[1:])),
        "final_distance": dists[-1] if dists else math.nan,
    }
    _emit_csv(args, [sweep, "weak_distance", "mass_in_disk", "flag"], rows,
              {"seed": _seed(args), "depth": args.depth, "count": args.count,
               **{f"summary.{k}": v for k, v in summary.items()}})


def _fmt_value(v):
    return _fmt(v) if isinstance(v, float) else str(v)


def cmd_properness(args):
    params = _parse_params(args.param)
    n = int(params.pop("n", 2))
    sweep = params.pop("sweep", "t")
    values = params.pop("values", None)
    rows = []
    if values is None:
        f = _load_map(args, params)
        fn = iterate_formula(f, n, args.tol or DEFAULTS.gcd)
        rows.append(("-", abs(resultant(fn.P, fn.Q))))
    else:
        if not isinstance(values, list):
            values = [values]
        for v in values:
            if args.family == "inversion":
                # the d = 1 family (k w : z): documents properness failing at d = 1
                f = BoundaryMap(1, complex(v) * HPoly.w(), HPoly.z())
            else:
                row_params = dict(params)
                row_params[sweep] = v
                f = fam.FamilySpec(args.family, row_params).build()
            fn = iterate_formula(f, n, args.tol or DEFAULTS.gcd)
            rows.append((_fmt_value(v), abs(resultant(fn.P, fn.Q))))
    _emit_csv(args, [sweep, "abs_resultant"], rows, {"n": n})


def cmd_escape(args):
    params = _parse_params(args.param)
    f = _load_map(args, params)
    re_spec = params.get("re", "-2:2:21")
    im_spec = params.get("im", "-2:2:21")
    re_lo, re_hi, n_re = _parse_range(re_spec)
    im_lo, im_hi, n_im = _parse_range(im_spec)
    rows = escape_grid(f, (re_lo, re_hi), (im_lo, im_hi), n_re, n_im,
                       n_max=int(params.get("n_max", 50)))
    _emit_csv(args, ["re", "im", "G"], rows)


def _parse_range(spec):
    if isinstance(spec, list):
        lo, hi, n = spec
        return float(lo), float(hi), int(n)
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be lo:hi:count, got {spec!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


COMMANDS = {
    "decompose": cmd_decompose,
    "indeterminate": cmd_indeterminate,
    "iterate": cmd_iterate,
    "measure": cmd_measure,
    "pointmass": cmd_pointmass,
    "sample": cmd_sample,
    "converge": cmd_converge,
    "properness": cmd_properness,
    "escape": cmd_escape,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ratbound",
        description="experiments with boundary points of the space of rational maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", help="path to a BoundaryMap JSON file")
        p.add_argument("--family", help="named family (see families module)")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="family/command parameter, repeatable")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="falls back to RATBOUND_SEED, then 0")
        p.add_argument("--depth", type=int, default=20)
        p.add_argument("--count", type=int, default=10_000)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


@functools.cache
def _parser():
    # built on the first main() rather than at import; parse_args leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except MathDomainError as exc:
        print(f"ratbound: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"ratbound: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"ratbound: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
