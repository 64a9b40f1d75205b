"""Command-line experiment runner; README.md's CLI section lists each verb's flags and keys.

main parses the --param pairs once and hands the dict to the verb, which reads every
input it takes before any work; a flag or key the verb does not read exits 2.
Structured results are JSON whose text is exactly `json.dumps(envelope, indent=2)`
plus a newline; sweeps are CSV with floats at 17 significant digits; every output
embeds the tolerance block for provenance.  Exit codes: 0 ok, 2 validation, 3
mathematical domain, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
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

# --param keys that take a comma-separated list; every other key takes one value
_LIST_PARAMS = ("values", "roots", "P_roots")


def _parse_value(text):
    for cast in (int, float, complex):
        try:
            value = cast(text)
        except ValueError:
            continue
        # an int no float holds overflows to infinity, as the spelling 1e400 does
        return float(text) if cast is int and abs(value) > sys.float_info.max else value
    return text


def _parse_params(pairs):
    """The --param pairs as a dict, each value's shape decided here: a
    _LIST_PARAMS value is a list (one item without a comma), and any other
    key given a comma list, or a key given twice, is a ValueError."""
    params = {}
    for raw in pairs or []:
        key, sep, text = raw.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"--param expects key=value, got {raw!r}")
        if key in params:
            raise ValueError(f"--param {key} given twice")
        items = [_parse_value(part) for part in text.strip().split(",")]
        if key in _LIST_PARAMS:
            params[key] = items
        elif len(items) > 1:
            raise ValueError(f"--param {key} takes one value, got {len(items)}")
        else:
            params[key] = items[0]
    return params


def _parse_point(key, value):
    """A point --param value: a number; inf, or one that overflows, is infinity."""
    # _parse_value leaves a str only where complex() fails too
    z = complex(math.nan if isinstance(value, str) else value)
    if cmath.isnan(z):
        raise ValueError(f"--param {key} must be a point, got {value!r}")
    return INFINITY if cmath.isinf(z) else canonicalize(z, 1.0)


def _load_map(args, params):
    if args.input:
        if params:
            raise ValueError(f"a map from --input takes no --param {', '.join(params)}")
        with open(args.input) as fh:
            return BoundaryMap.from_json(json.load(fh))
    if args.family:
        return fam.FamilySpec(args.family, params).build()
    raise ValueError("provide a map via --input <json> or --family <name>")


def _seed(args):
    if getattr(args, "seed", None) is not None:  # only sample and converge take --seed
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


def cmd_decompose(args, params):
    f = _load_map(args, params)
    dec = decompose(f, args.tol)
    rep = dec.report()
    rep["verdict"] = ("indeterminate" if dec.indeterminate
                      else "degenerate" if dec.degenerate else "nondegenerate")
    _emit_json(args, rep)


def cmd_indeterminate(args, params):
    f = _load_map(args, params)
    _emit_json(args, {"indeterminate": decompose(f, args.tol).indeterminate})


def cmd_iterate(args, params):
    n = fam.int_param("n", params.pop("n", 2))
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


def cmd_measure(args, params):
    tail_tol = fam.real_param("tail_tol", params.pop("tail_tol", 1e-9))
    f = _load_map(args, params)
    dec = decompose(f, args.tol)
    mu = boundary_measure(dec, tail_tol)
    angles, infinite = cone_angle_report(mu)
    measure = mu.to_json()
    cones = [
        {"point": atom["point"], "angle": angle, "infinite_end": inf}
        for atom, angle, inf in zip(measure["atoms"], angles.tolist(), infinite.tolist())
    ]
    _emit_json(args, {"measure": measure, "cone_angles": cones})


def cmd_pointmass(args, params):
    at = _parse_point("at", params.pop("at", math.inf))
    series_tol = fam.real_param("series_tol", params.pop("series_tol", 1e-12))
    f = _load_map(args, params)
    dec = decompose(f, args.tol)
    mass, err = point_mass(dec, at, series_tol)
    _emit_json(args, {"point": at.to_json(), "mass": mass, "error_bound": err})


def cmd_sample(args, params):
    a0 = _parse_point("a0", params.pop("a0", complex(0.5, 0.5)))
    f = _load_map(args, params)
    emp = sample_max_entropy(
        f, a0, depth=args.depth, count=args.count, seed=_seed(args),
        workers=args.workers, gcd_tol=args.tol,
    )
    if args.format == "csv":
        rows = [(z.real, z.imag, w.real, w.imag) for z, w in emp.samples]
        _emit_csv(args, ["z_re", "z_im", "w_re", "w_im"], rows,
                  {"seed": _seed(args), "depth": args.depth, "count": args.count})
    else:
        _emit_json(args, emp.to_json())


def cmd_converge(args, params):
    sweep = _sweep_key(params)
    values = params.pop("values", None)
    if values is None:
        raise ValueError("converge needs --param values=v1,v2,...")
    center = _parse_point("center", params.pop("center", math.inf))
    radius = fam.real_param("radius", params.pop("radius", 0.1))
    a0 = _parse_point("a0", params.pop("a0", complex(0.5, 0.5)))
    tail_tol = fam.real_param("tail_tol", params.pop("tail_tol", 1e-6))
    family = fam.FamilySpec(args.family, params)
    family.check_limit()
    # the specs check their keys, and the target its mass, before any row runs;
    # a row is weak_distance(emp, target) with the target integrated once
    specs = [fam.FamilySpec(args.family, {**params, sweep: v}) for v in values]
    target_integrals = _design_integrals(family.limit(tail_tol))
    rows = []
    dists = []
    for v, spec in zip(values, specs):
        try:
            f = spec.build()
            emp = sample_max_entropy(f, a0, depth=args.depth, count=args.count,
                                     seed=_seed(args), workers=args.workers,
                                     gcd_tol=args.tol)
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


def cmd_properness(args, params):
    n = fam.int_param("n", params.pop("n", 2))
    sweep = _sweep_key(params)
    values = params.pop("values", None)
    if values is None:
        maps = [("-", _load_map(args, params))]
    else:
        maps = [(v, fam.FamilySpec(args.family, {**params, sweep: v}).build())
                for v in values]
    rows = []
    for v, f in maps:
        fn = iterate_formula(f, n, args.tol)
        rows.append((v, abs(resultant(fn.P, fn.Q))))
    _emit_csv(args, [sweep, "abs_resultant"], rows, {"n": n})


def cmd_escape(args, params):
    re_lo, re_hi, n_re = _parse_range(params.pop("re", "-2:2:21"))
    im_lo, im_hi, n_im = _parse_range(params.pop("im", "-2:2:21"))
    n_max = fam.int_param("n_max", params.pop("n_max", 50))
    f = _load_map(args, params)
    rows = escape_grid(f, (re_lo, re_hi), (im_lo, im_hi), n_re, n_im,
                       n_max=n_max, dec=decompose(f, args.tol))
    _emit_csv(args, ["re", "im", "G"], rows)


def _sweep_key(params):
    sweep = params.pop("sweep", "t")
    if not isinstance(sweep, str) or not sweep:
        raise ValueError(f"--param sweep must be a key name, got {sweep!r}")
    return sweep


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


def _positive(cast):
    """The argparse type of a flag whose value, read by `cast`, is positive and finite."""
    def positive(text):
        value = cast(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value
    return positive


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
        source = p.add_mutually_exclusive_group()
        source.add_argument("--input", help="path to a BoundaryMap JSON file")
        source.add_argument("--family", help="named family (see families module)")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="family/command parameter, repeatable")
        p.add_argument("--tol", type=_positive(float), default=DEFAULTS.gcd,
                       help="gcd tolerance: root-matching radius and residual bound")
        if name in ("sample", "converge"):
            p.add_argument("--seed", type=int, default=None,
                           help="falls back to RATBOUND_SEED, then 0")
            p.add_argument("--depth", type=_positive(int), default=20)
            p.add_argument("--count", type=_positive(int), default=10_000)
            p.add_argument("--workers", type=_positive(int), default=1,
                           help="sampler RNG stream partition; chunks run one after another. "
                                "The stream depends on (seed, workers) only, never on threads: "
                                "the root kernel may split large batches over a fixed pool of "
                                "at most two, separate from BLAS's")
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
        COMMANDS[args.command](args, _parse_params(args.param))
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
