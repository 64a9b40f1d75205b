"""Command-line experiment runner.

Verbs: decompose | indeterminate | iterate | measure | pointmass | sample |
converge | properness | escape.  Maps come from --input <json> or --family
<name> with repeatable --param k=v (values, roots and P_roots take a comma
list, every other key one value); seeds fall back to the RATBOUND_SEED
environment variable; --tol, read by every verb, is the gcd tolerance of every
decomposition of the input map (a converge target decomposes at
FAMILY_LIMIT_GCD_TOL).  --format offers the formats a verb writes.
Structured results are JSON whose text is exactly
`json.dumps(envelope, indent=2)` plus a newline; sweeps are CSV with floats
at 17 significant digits; every output embeds the tolerance block for
provenance.  Exit codes: 0 ok, 2 validation, 3 mathematical domain,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import is_, itemgetter

import numpy as np

from . import families as fam
from .config import DEFAULTS
from .errors import MathDomainError, NumericalFailure
from .escape import cone_angle_report, escape_grid
from .hpoly import resultant
from .measure import (
    AtomicMeasure,
    _design_integrals,
    boundary_measure,
    mass_in_disk,
    point_mass,
    sample_max_entropy,
)
from .projline import INFINITY, canonicalize
from .ratmap import (
    BoundaryMap,
    decompose,
    hole_depth_sequence,
    iterate_formula,
)

# gcd tolerance for the closed-form family limits, whose gcd factors carry
# multiplicity-m roots (numeric m-fold roots spread like eps^(1/m))
FAMILY_LIMIT_GCD_TOL = 1e-4


# --param keys that take a comma-separated list; every other key takes one value
_LIST_PARAMS = ("values", "roots", "P_roots")


def _parse_value(text):
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(pairs):
    """The --param pairs as a dict, each value's shape decided here: a
    _LIST_PARAMS value is a list (one item without a comma), and any other
    key given a comma list is a ValueError."""
    params = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise ValueError(f"--param expects key=value, got {raw!r}")
        key, text = raw.split("=", 1)
        key = key.strip()
        items = [_parse_value(part) for part in text.strip().split(",")]
        if key in _LIST_PARAMS:
            params[key] = items
        elif len(items) > 1:
            raise ValueError(f"--param {key} takes one value, got {len(items)}")
        else:
            params[key] = items[0]
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


def _tolerances(args):
    """The tolerance block of an output: DEFAULTS, with gcd the --tol the verb ran with."""
    return {**DEFAULTS.as_dict(), "gcd": args.tol}


def _envelope(args, result):
    return {
        "command": args.command,
        "tolerances": _tolerances(args),
        "seed": _seed(args),
        "result": result,
    }


def _emit_json(args, result):
    _write(args.out, _json_text(_envelope(args, result)) + "\n")


# The JSON encoder.  Its text is byte for byte json.dumps(value, indent=2),
# whose indented path runs json's pure-Python generators.  Values are
# rendered a column at a time: the items of all lists in a column form one
# column, each key of same-keyed dicts forms one, and same-keyed dicts and
# lists of one length are filled into one %-template per shape.
#
# A list object can sit at several places of one envelope: the cone rows of
# `measure` share the point lists of its atoms.  Each _json_text call makes a
# memo, keyed by the id of a column's first item, of the columns of nested
# lists it has rendered.  A later column that is the same objects in the same
# order takes their texts, re-indented to its own nesting level by replacing
# each newline's indent (encoded strings hold no raw newline).  The memo
# keeps only columns whose items are lists, and drops a column's items'
# column once the column is kept: a column inside a kept one is matched, if
# at all, through it, and keeping the leaf [re, im] columns would only hold
# memory.  An entry is dropped at its first lookup, match or not, and the
# memo is emptied before the top level is assembled, so an encode's peak
# memory is what it would be without the memo.

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float_texts(values, *_):
    texts = list(map(float.__repr__, values))
    if not _NONFINITE.keys().isdisjoint(texts):
        texts = [_NONFINITE.get(t, t) for t in texts]
    return texts


@functools.cache
def _template(open_, slots, close, level):
    inner = "\n" + "  " * (level + 1)
    return (open_ + inner + ("," + inner).join(slots) + "\n" + "  " * level + close).__mod__


@functools.cache
def _dict_template(keys, level):
    slots = tuple(encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
    return _template("{", slots, "}", level)


def _list_texts(values, level, memo):
    seen = memo.pop(id(values[0]), None)
    if seen and len(seen[0]) == len(values) and all(map(is_, seen[0], values)):
        _, texts, at = seen
        if at == level:
            return texts
        old, new = "\n" + "  " * at, "\n" + "  " * level
        return [t.replace(old, new) for t in texts]
    lengths = list(map(len, values))
    first = next(chain.from_iterable(values), None)
    texts = iter(_json_texts(list(chain.from_iterable(values)), level + 1, memo))
    nested = isinstance(first, (list, tuple))
    if not level:
        memo.clear()
    elif nested:
        memo.pop(id(first), None)  # the items' column: matched through this one, if at all
    if len(values) > 1 and len(set(lengths)) == 1 and lengths[0]:
        # a table of rows: one template for all of them
        n = lengths[0]
        out = list(map(_template("[", ("%s",) * n, "]", level), zip(*[texts] * n)))
    else:
        sep = ",\n" + "  " * (level + 1)
        out = [_template("[", ("%s",), "]", level)(sep.join(islice(texts, n))) if n else "[]"
               for n in lengths]
    if nested:
        memo[id(values[0])] = (values, out, level)
    return out


def _dict_texts(values, level, memo):
    """None when the dicts differ in keys; keys must be str."""
    shapes = set(map(tuple, values))
    if len(shapes) != 1:
        return None
    (keys,) = shapes
    if not keys:
        return ["{}"] * len(values)
    if len(values) == 1:
        rows = [tuple(_json_texts(list(values[0].values()), level + 1, memo))]
    else:
        rows = zip(*[_json_texts(list(map(itemgetter(k), values)), level + 1, memo)
                     for k in keys])
    if not level:
        memo.clear()
    return list(map(_dict_template(keys, level), rows))


# column renderers in json's order of isinstance checks (bool before int)
_RENDERERS = (
    (str, lambda values, *_: list(map(encode_basestring_ascii, values))),
    ((type(None), bool), lambda values, *_: list(map(_CONSTANTS.__getitem__, values))),
    (int, lambda values, *_: list(map(int.__repr__, values))),
    (float, _float_texts),
    ((list, tuple), _list_texts),
    (dict, _dict_texts),
)


@functools.cache
def _renderer(kind):
    for base, render in _RENDERERS:
        if issubclass(kind, base):
            return render
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(value):
    """json.dumps(value, indent=2), byte for byte."""
    return _json_texts([value], 0, {})[0]


def _json_texts(values, level, memo):
    """The indented JSON text of each of `values`, all opening at nesting `level`;
    `memo` holds the shared-column texts of one _json_text call."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        texts = _renderer(*kinds)(values, level, memo)
        if texts is not None:
            return texts
    return [_renderer(type(v))([v], level, memo)[0] for v in values]


def _emit_csv(args, header_fields, rows, extra_header=None):
    lines = [f"# command={args.command}"]
    for key, val in _tolerances(args).items():
        lines.append(f"# tol.{key}={val:.17g}")
    for key, val in (extra_header or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(",".join(map(_fmt, header_fields)))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(args.out, "\n".join(lines) + "\n")


def _fmt(value):
    """A CSV field: a float at 17 significant digits; any other value as
    str, quoted RFC 4180 style when it holds a comma, a quote or a newline."""
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
    dec = decompose(f, args.tol)
    rep = dec.report()
    rep["verdict"] = (
        "indeterminate" if dec.indeterminate
        else ("degenerate" if dec.degenerate else "nondegenerate")
    )
    _emit_json(args, rep)


def cmd_indeterminate(args):
    params = _parse_params(args.param)
    f = _load_map(args, params)
    _emit_json(args, {"indeterminate": decompose(f, args.tol).indeterminate})


def cmd_iterate(args):
    params = _parse_params(args.param)
    n = int(params.pop("n", 2))
    f = _load_map(args, params)
    dec = decompose(f, args.tol)
    fn = iterate_formula(f, n, args.tol, dec=dec)
    table = []
    for pt, depth in dec.holes:
        seq = hole_depth_sequence(f, pt, n, args.tol, dec=dec)
        table.append({
            "point": pt.to_json(),
            "depth": depth,
            "normalized_depths": [float(s) for s in seq],
        })
    _emit_json(args, {"iterate": fn.to_json(), "hole_depth_table": table})


def cmd_measure(args):
    params = _parse_params(args.param)
    f = _load_map(args, params)
    dec = decompose(f, args.tol)
    mu = boundary_measure(dec, float(params.get("tail_tol", 1e-9)))
    angles, infinite = cone_angle_report(mu)
    measure = mu.to_json()
    cones = [
        {"point": atom["point"], "angle": angle, "infinite_end": inf}
        for atom, angle, inf in zip(measure["atoms"], angles.tolist(), infinite.tolist())
    ]
    _emit_json(args, {"measure": measure, "cone_angles": cones})


def cmd_pointmass(args):
    params = _parse_params(args.param)
    at = _parse_point(params.pop("at", "inf"))
    f = _load_map(args, params)
    dec = decompose(f, args.tol)
    mass, err = point_mass(dec, at, float(params.get("series_tol", 1e-12)))
    _emit_json(args, {"point": at.to_json(), "mass": mass, "error_bound": err})


def cmd_sample(args):
    params = _parse_params(args.param)
    a0 = _parse_point(params.pop("a0", complex(0.5, 0.5)))
    f = _load_map(args, params)
    emp = sample_max_entropy(
        f, a0, depth=args.depth, count=args.count, seed=_seed(args),
        workers=args.workers, gcd_tol=args.tol,
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
    center = _parse_point(params.pop("center", "inf"))
    radius = float(params.pop("radius", 0.1))
    a0 = _parse_point(params.pop("a0", complex(0.5, 0.5)))
    target = _target_measure(args, params)
    # weak_distance(emp, target), integrating the target once for the sweep;
    # taken at the first row that gets this far, so a target of bad mass
    # fails every row as weak_distance would
    target_integrals = None
    rows = []
    dists = []
    for v in values:
        try:
            f = fam.FamilySpec(args.family, {**params, sweep: v}).build()
            emp = sample_max_entropy(f, a0, depth=args.depth, count=args.count,
                                     seed=_seed(args), workers=args.workers,
                                     gcd_tol=args.tol)
            if target_integrals is None:
                target_integrals = _design_integrals(target)
            dist = float(np.abs(_design_integrals(emp) - target_integrals).max())
            md = mass_in_disk(emp, center, radius)
            rows.append((v, dist, md, "ok"))
            dists.append(dist)
        except (ValueError, NumericalFailure, MathDomainError) as exc:
            rows.append((v, math.nan, math.nan, f"error: {exc}"))
    summary = {
        "distances_decreasing": all(b <= a for a, b in zip(dists, dists[1:])),
        "final_distance": dists[-1] if dists else math.nan,
    }
    _emit_csv(args, [sweep, "weak_distance", "mass_in_disk", "flag"], rows,
              {"seed": _seed(args), "depth": args.depth, "count": args.count,
               **{f"summary.{k}": v for k, v in summary.items()}})


def cmd_properness(args):
    params = _parse_params(args.param)
    n = int(params.pop("n", 2))
    sweep = params.pop("sweep", "t")
    values = params.pop("values", None)
    if values is None:
        maps = [("-", _load_map(args, params))]
    else:
        maps = ((v, fam.FamilySpec(args.family, {**params, sweep: v}).build())
                for v in values)
    rows = []
    for v, f in maps:
        fn = iterate_formula(f, n, args.tol)
        rows.append((v, abs(resultant(fn.P, fn.Q))))
    _emit_csv(args, [sweep, "abs_resultant"], rows, {"n": n})


def cmd_escape(args):
    params = _parse_params(args.param)
    f = _load_map(args, params)
    re_lo, re_hi, n_re = _parse_range(params.get("re", "-2:2:21"))
    im_lo, im_hi, n_im = _parse_range(params.get("im", "-2:2:21"))
    rows = escape_grid(f, (re_lo, re_hi), (im_lo, im_hi), n_re, n_im,
                       n_max=int(params.get("n_max", 50)), dec=decompose(f, args.tol))
    _emit_csv(args, ["re", "im", "G"], rows)


def _parse_range(spec):
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


def _tolerance(text):
    """A --tol value: a positive, finite float."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


# the formats a verb writes, default first; every verb not listed writes json
_FORMATS = {"sample": ("json", "csv"), "converge": ("csv",), "properness": ("csv",),
            "escape": ("csv",)}


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
        p.add_argument("--tol", type=_tolerance, default=DEFAULTS.gcd,
                       help="gcd tolerance: root-matching radius and residual bound")
        p.add_argument("--seed", type=int, default=None,
                       help="falls back to RATBOUND_SEED, then 0")
        p.add_argument("--depth", type=int, default=20)
        p.add_argument("--count", type=int, default=10_000)
        p.add_argument("--workers", type=int, default=1,
                       help="sampler RNG stream partition; chunks run one after "
                            "another. The stream depends on (seed, workers) only, never "
                            "on threads: the root kernel may split large batches over a "
                            "fixed pool of at most two, separate from BLAS's")
        p.add_argument("--out", help="output path (default stdout)")
        formats = _FORMATS.get(name, ("json",))
        p.add_argument("--format", choices=formats, default=formats[0])
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
