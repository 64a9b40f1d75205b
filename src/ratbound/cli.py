"""Command-line experiment runner; README.md's CLI section lists each verb's flags and keys.

main parses the --param pairs once and hands the dict to the verb, which reads every
input it takes before any work; a flag or key the verb does not read exits 2.
Structured results are JSON whose text is exactly `json.dumps(envelope, indent=2)`
plus a newline; sweeps are CSV with floats at 17 significant digits; every output
embeds the tolerance block and streams to --out or stdout.  Exit codes: 0 ok, 2
validation, 3 mathematical domain, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

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


def _emit_json(args, result):
    envelope = {"command": args.command, "tolerances": _tolerances(args), "seed": _seed(args),
                "result": result}
    _write(args.out, itertools.chain(_json_pieces(envelope), "\n"))


# The JSON encoder yields json.dumps(value, indent=2) in pieces, byte for byte,
# for _write to stream; a verb's result is complete first, so only a crash in
# the encoder or a signal can truncate --out.  Numpy arrays are its one fast
# path: an (n, ...) array renders as the list of its rows, _Rows(key=column,
# ...) as the list of dicts {key: column[i], ...}, through _table_rows (shared
# with CSV), which joins _BLOCK rows at a time.  A float64 array renders each
# distinct bit pattern once (np.unique of the int64 view keeps -0.0, 0.0 and
# NaN apart) and keeps its item texts, by id, to their second use: the
# `measure` points of atom and cone rows render once.

_BLOCK = 4096  # rows per piece of an array or a CSV table
_ITEM = object()  # an item in a row rendered for its fragments: "\0", which json escapes in a str
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false", _ITEM: "\0"}


class _Rows(dict):
    """Same-keyed rows given as columns: key -> array with one item per row."""


def _float_texts(values):
    texts = list(map(float.__repr__, values))
    if not _NONFINITE.keys().isdisjoint(texts):
        texts = [_NONFINITE.get(t, t) for t in texts]
    return texts


def _item_texts(array, render):
    """An object array of an array's item texts in C order: float64 ones from `render` (floats
    to texts) once per bit pattern; only bools use _CONSTANTS, which reads 1 as true."""
    flat = np.ascontiguousarray(array).ravel()
    if flat.dtype == np.float64:
        bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
        texts = render(bits.view(np.float64).tolist())
        return np.array(texts, dtype=object)[inverse]
    render = _CONSTANTS.__getitem__ if flat.dtype == bool else lambda v: "".join(_json_pieces(v))
    return np.array(list(map(render, flat.tolist())), dtype=object)


def _table_rows(first, fragments, columns):
    """Row i is fragments[0], then row i of each column of texts ((n,) or (n, m)) with
    fragments[1:] after its items; the first row opens with `first`.  _BLOCK rows a piece."""
    n = len(columns[0])
    table = np.empty((min(n, _BLOCK), 2 * len(fragments) - 1), dtype=object)
    table[:, ::2] = fragments
    for start in range(0, n, _BLOCK):
        rows = table[:min(n - start, _BLOCK)]
        rows[:, 1::2] = np.column_stack([texts[start:start + _BLOCK] for texts in columns])
        rows[0, 0] = fragments[0] if start else first
        yield "".join(rows.ravel().tolist())


def _array_pieces(value, level, items):
    """The list of an array or a _Rows at `level`, in pieces."""
    columns = list(value.values()) if isinstance(value, _Rows) else [value]
    if not (n := len(columns[0])):
        yield "[]"
        return
    texts = [items.pop(id(column)) if id(column) in items
             else items.setdefault(id(column), _item_texts(column, _float_texts).reshape(n, -1))
             for column in columns]
    row = [np.full(column.shape[1:], _ITEM, dtype=object).tolist() for column in columns]
    row = dict(zip(value, row)) if isinstance(value, _Rows) else row[0]
    head, *rest = "".join(_json_pieces(row, level + 1)).split("\0")
    inner = "\n" + "  " * (level + 1)
    yield from _table_rows("[" + inner + head, ["," + inner + head, *rest], texts)
    yield "\n" + "  " * level + "]"


def _scalar_text(value):
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False or value is _ITEM:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _NONFINITE.get(text := float.__repr__(value), text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_pieces(value, level=0, items=None):
    """json.dumps(value, indent=2) in pieces, byte for byte, opening at nesting `level`, with
    str keys only; arrays and _Rows render as lists; `items` holds one top-level call's item
    texts.  A container's scalars join into the piece before its next container child."""
    items = {} if items is None else items
    if isinstance(value, (np.ndarray, _Rows)):
        yield from _array_pieces(value, level, items)
        return
    if isinstance(value, dict):
        children = [(encode_basestring_ascii(k) + ": ", v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        children = [("", v) for v in value]
    else:
        yield _scalar_text(value)
        return
    open_, close = "{}" if isinstance(value, dict) else "[]"
    inner, run = "\n" + "  " * (level + 1), [open_]
    for i, (key, child) in enumerate(children):
        run += ["," if i else "", inner, key]
        if isinstance(child, (dict, list, tuple, np.ndarray)):
            yield "".join(run)
            run = []
            yield from _json_pieces(child, level + 1, items)
        else:
            run.append(_scalar_text(child))
    yield "".join(run) + ("\n" + "  " * level + close if children else close)


def _emit_csv(args, header_fields, rows, extra_header=None):
    lines = [f"# command={args.command}",
             *(f"# tol.{key}={val:.17g}" for key, val in _tolerances(args).items()),
             *(f"# {key}={val}" for key, val in (extra_header or {}).items()),
             ",".join(map(_fmt, header_fields)) + "\n"]
    # a column of floats only is formatted as _fmt does, once per distinct float
    columns = [_item_texts(np.array(column), lambda values: [f"{v:.17g}" for v in values])
               if all(isinstance(v, float) for v in column)
               else np.array(list(map(_fmt, column)), dtype=object) for column in zip(*rows)]
    body = _table_rows("", ["", *[","] * (len(columns) - 1), "\n"], columns)
    _write(args.out, itertools.chain(["\n".join(lines)], body))


def _fmt(value):
    """A CSV field: a float at 17 significant digits; any other value as
    str, quoted RFC 4180 style when it holds a comma, a quote or a newline."""
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write(path, pieces):
    if path:
        with open(path, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


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
    polys = {name: {"degree": h.degree, "coeffs": h.coeffs.view(float).reshape(-1, 2)}
             for name, h in (("P", fn.P), ("Q", fn.Q))}  # fn.to_json(), coeffs as arrays
    _emit_json(args, {"iterate": {"d": fn.d, **polys}, "hole_depth_table": table})


def cmd_measure(args, params):
    tail_tol = fam.real_param("tail_tol", params.pop("tail_tol", 1e-9))
    f = _load_map(args, params)
    mu = boundary_measure(decompose(f, args.tol), tail_tol)
    angles, infinite = cone_angle_report(mu)
    points = mu.points.view(float).reshape(-1, 2, 2)  # rows [[z.re, z.im], [w.re, w.im]]
    measure = {"atoms": _Rows(point=points, mass=mu.masses), "tail_bound": mu.tail_bound,
               "note": mu.note}
    cones = _Rows(point=points, angle=angles, infinite_end=infinite)
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
    samples = emp.samples.view(float).reshape(-1, 2, 2)
    if args.format == "csv":
        _emit_csv(args, ["z_re", "z_im", "w_re", "w_im"], samples.reshape(-1, 4).tolist(),
                  {"seed": _seed(args), "depth": args.depth, "count": args.count})
    else:
        _emit_json(args, {"samples": samples, "seed": emp.seed, "depth": emp.depth,
                          "count": emp.count, "source": emp.source})


def cmd_converge(args, params):
    sweep = _sweep_key(params)
    values = params.pop("values", None)
    if values is None:
        raise ValueError("converge needs --param values=v1,v2,...")
    center = _parse_point("center", params.pop("center", math.inf))
    radius = fam.real_param("radius", params.pop("radius", 0.1))
    if not radius > 0:
        raise ValueError(f"--param radius must be positive, got {radius!r}")
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
    re_lo, re_hi, n_re = _parse_range("re", params.pop("re", "-2:2:21"))
    im_lo, im_hi, n_im = _parse_range("im", params.pop("im", "-2:2:21"))
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


def _parse_range(key, spec):
    """An escape grid axis lo:hi:count: finite real bounds and a positive integer count."""
    parts = [_parse_value(part) for part in str(spec).split(":")]
    if len(parts) != 3:
        raise ValueError(f"--param {key} must be lo:hi:count, got {spec!r}")
    lo, hi = (fam.real_param(key, bound) for bound in parts[:2])
    count = fam.int_param(key, parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi) and count > 0):
        raise ValueError(f"--param {key} takes finite bounds and a positive count, got {spec!r}")
    return lo, hi, count


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


def _positive(cast, below=math.inf):
    """The argparse type of a flag whose value, read by `cast`, is positive, finite and
    below `below`."""
    def positive(text):
        value = cast(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        if not value < below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {text!r}")
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
        # chordal distances lie in [0, 1], so a tol of 1 would match every root pair
        p.add_argument("--tol", type=_positive(float, below=1), default=DEFAULTS.gcd,
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
