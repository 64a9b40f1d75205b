"""Command-line experiment runner; README.md's CLI section lists each verb's flags and keys.

main parses the --param pairs once and reads the verb's own keys by their COMMANDS entry
before the verb runs; its family reads the rest before any work, and a flag or key that
neither reads exits 2.  Structured results are JSON whose text is exactly
`json.dumps(envelope, indent=2)` plus a newline; sweeps are CSV with floats at 17
significant digits; every output embeds the tolerance block and streams to --out or stdout.
Exit codes: 0 ok, else the failure's `exit_code` (errors.py), 2 if it has none.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import os
import stat
import sys
from collections import namedtuple

import numpy as np

from . import families as fam
from .config import DEFAULTS
from .errors import NumericalFailure
from .escape import cone_angle_report, escape_grid
from .hpoly import _shared_map
from .measure import (
    _design_integrals,
    boundary_measure,
    mass_in_disk,
    point_mass,
    sample_max_entropy,
)
from .projline import INFINITY, canonicalize, re_im
from .ratmap import (
    BoundaryMap,
    decompose,
    hole_depth_sequence,
    iterate_abs_resultant,
    iterate_formula,
)

# --param keys that take a comma-separated list; every other key takes one value
_LIST_PARAMS = {"values", *fam.LIST_KEYS}


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


def _seed(text):
    """A seed: a non-negative integer's text, else an ArgumentTypeError."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _tolerances(args):
    """The tolerance block of an output: DEFAULTS, with gcd the --tol the verb ran with."""
    return {**DEFAULTS.as_dict(), "gcd": args.tol}


def _emit_json(args, result):
    envelope = {"command": args.command, "tolerances": _tolerances(args), "seed": args.seed,
                "result": result}
    _write(args.out, itertools.chain(_json_pieces(envelope), "\n"))


# The JSON encoder yields json.dumps(value, indent=2) in pieces, byte for byte,
# for _write to stream; a verb's result is complete first, so only a failure in
# the encoder or a signal can leave a partial --out.  json.dumps writes all but the
# numpy arrays and _Rows, whose lists the encoder splices in at their slots: an
# (n, ...) array as the list of its rows, _Rows(key=column, ...) as the list of
# dicts {key: column[i], ...}, _BLOCK rows a piece by _table_rows (shared with
# CSV).  A float64 array renders each distinct magnitude once (np.unique of the
# int64 view with the sign bit cleared), a negative value as "-" and its
# magnitude's text, and keeps its item texts, by id, to their second use: the
# `measure` points of atom and cone rows render once.  A magnitude's text is
# float.__repr__'s: _repr computes the same bytes with Schubfach's shortest digits
# for an array of many magnitudes, float.__repr__ writes them for a smaller one.
# _repr's first use in a process imports it and builds its tables, which takes as
# long as float.__repr__ on about 10,000 magnitudes without bytecode and 5,000 with
# it; after that it is the faster from about 300 on.  So it renders an array of
# _COLD_FROM magnitudes or more until it is loaded, and of _WARM_FROM after.

_BLOCK = 4096  # rows per piece of an array or a CSV table
_COLD_FROM, _WARM_FROM = 12_288, 512
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Rows:
    """Same-keyed rows given as columns: key -> array with one item per row.  Not a dict,
    which json.dumps would write itself."""

    def __init__(self, **columns):
        self.columns = columns


def _float_texts(magnitudes):
    """JSON texts of a float64 array of ascending non-negative values, whose largest is
    the one that can be inf or NaN: float.__repr__'s bytes, by _repr for a large array."""
    if len(magnitudes) < (_WARM_FROM if "ratbound._repr" in sys.modules else _COLD_FROM):
        texts = list(map(float.__repr__, magnitudes.tolist()))
    else:
        from . import _repr

        texts = _repr.texts(magnitudes)
    if len(magnitudes) and not math.isfinite(magnitudes[-1]):
        texts = [_NONFINITE.get(t, t) for t in texts]
    return texts


def _item_texts(array, render):
    """An object array of an array's item texts in C order: float64 ones from `render`
    (a float64 array of ascending magnitudes to their texts) once per magnitude, with "-"
    before a negative value's, none before NaN's, as json.dumps and %.17g write them;
    bools by a map, others by json.dumps."""
    flat = np.ascontiguousarray(array).ravel()
    if flat.dtype == np.float64:
        bits = flat.view(np.int64)
        mags, inverse = np.unique(bits & np.int64(2**63 - 1), return_inverse=True)
        texts = np.array(render(mags.view(np.float64)), dtype=object)
        items = texts[inverse]
        negative = (bits < 0) & (flat == flat)
        signed = np.zeros(len(texts), dtype=bool)  # the magnitudes some negative value has
        signed[inverse[negative]] = True
        texts[signed] = "-" + texts[signed]
        items[negative] = texts[inverse[negative]]
        return items
    render = {True: "true", False: "false"}.__getitem__ if flat.dtype == bool else json.dumps
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


def _split_dumps(value):
    """(json.dumps(value, indent=2) split at each array and _Rows in it, those values in
    order).  json.dumps writes each as a run of NULs that no str in `value` is."""
    for width in itertools.count(1):
        mark, slots = "\0" * width, []

        def slot(o):
            if not isinstance(o, (np.ndarray, _Rows)):
                raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
            slots.append(o)
            return mark

        pieces = json.dumps(value, indent=2, default=slot).split(json.dumps(mark))
        if len(pieces) == len(slots) + 1:
            return pieces, slots


def _array_pieces(value, before, items):
    """`before`, the JSON text up to an array or a _Rows, then that value's list, in pieces;
    `items` holds one _json_pieces call's item texts by column id."""
    columns = list(value.columns.values()) if isinstance(value, _Rows) else [value]
    if not (n := len(columns[0])):
        yield before + "[]"
        return
    texts = [items.pop(id(column)) if id(column) in items
             else items.setdefault(id(column), _item_texts(column, _float_texts).reshape(n, -1))
             for column in columns]
    # the row template, each item an empty array, at which _split_dumps splits it
    row = [functools.reduce(lambda cell, k: [cell] * k, column.shape[:0:-1], np.empty(0))
           for column in columns]
    row = dict(zip(value.columns, row)) if isinstance(value, _Rows) else row[0]
    line = before[before.rfind("\n") + 1:]
    close = "\n" + line[:len(line) - len(line.lstrip(" "))]  # a newline and the slot's indent
    inner = close + "  "
    head, *rest = (piece.replace("\n", inner) for piece in _split_dumps(row)[0])
    yield from _table_rows(before + "[" + inner + head, ["," + inner + head, *rest], texts)
    yield close + "]"


def _json_pieces(value):
    """json.dumps(value, indent=2) in pieces, byte for byte, with arrays and _Rows as lists."""
    pieces, slots = _split_dumps(value)
    items = {}
    for before, array in zip(pieces, slots):
        yield from _array_pieces(array, before, items)
    if pieces[-1]:  # empty after a top-level array
        yield pieces[-1]


def _emit_csv(args, header_fields, columns, extra_header=None):
    """Stream the CSV table of `columns`, one sequence per header field, all of one length,
    under the comment header.  A float64 ndarray is formatted as _fmt does, once per
    distinct float; any other column, a list or an ndarray of another dtype, goes through
    _fmt value by value."""
    lines = [f"# command={args.command}",
             *(f"# tol.{key}={_fmt(val)}" for key, val in _tolerances(args).items()),
             *(f"# {key}={val}" for key, val in (extra_header or {}).items()),
             ",".join(map(_fmt, header_fields)) + "\n"]
    texts = list(map(_csv_texts, columns))
    body = _table_rows("", ["", *[","] * (len(texts) - 1), "\n"], texts)
    _write(args.out, itertools.chain(["\n".join(lines)], body))


def _csv_texts(column):
    """An object array of a CSV column's fields, each by _fmt: a float64 ndarray's once
    per distinct magnitude, any other column's value by value."""
    ndarray = isinstance(column, np.ndarray)
    if ndarray and column.dtype == np.float64:
        return _item_texts(column, lambda values: list(map(_fmt, values.tolist())))
    return np.array(list(map(_fmt, column.tolist() if ndarray else column)), dtype=object)


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
    """Stream `pieces` to stdout, or over the file at `path`, which ends where they end.

    An existing file is overwritten in place and cut at the final offset: truncating it
    at open frees its blocks first, which on ext4 mounted with discard takes longer than
    the whole in-place write.  The cut runs in a `finally`, so an exception mid-stream
    leaves the written prefix; a non-regular file (/dev/null, a FIFO, a terminal) is not cut.
    """
    if not path:
        sys.stdout.writelines(pieces)
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            fh.writelines(pieces)
            fh.flush()
        finally:
            # at the kernel's offset; after an exception, the text still buffered is
            # written past the cut on close
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


# ---------------------------------------------------------------------------
# commands


def cmd_decompose(args, params):
    f = _load_map(args, params)
    dec = decompose(f, args.tol)
    rep = dec.report(f)
    rep["verdict"] = ("indeterminate" if dec.indeterminate
                      else "degenerate" if dec.degenerate else "nondegenerate")
    _emit_json(args, rep)


def cmd_indeterminate(args, params):
    f = _load_map(args, params)
    _emit_json(args, {"indeterminate": decompose(f, args.tol).indeterminate})


def cmd_iterate(args, params, n):
    f = _load_map(args, params)
    dec = decompose(f, args.tol)
    fn = iterate_formula(f, n, dec)
    table = []
    for pt, depth in dec.holes:
        seq = hole_depth_sequence(dec, pt, n)
        table.append({
            "point": pt.to_json(),
            "depth": depth,
            "normalized_depths": [float(s) for s in seq],
        })
    polys = {name: {"degree": h.degree, "coeffs": re_im(h.coeffs)}
             for name, h in (("P", fn.P), ("Q", fn.Q))}  # fn.to_json(), coeffs as arrays
    _emit_json(args, {"iterate": {"d": fn.d, **polys}, "hole_depth_table": table})


def cmd_measure(args, params, tail_tol):
    f = _load_map(args, params)
    mu = boundary_measure(decompose(f, args.tol), tail_tol)
    angles, infinite = cone_angle_report(mu)
    points = re_im(mu.points)
    measure = {"atoms": _Rows(point=points, mass=mu.masses), "tail_bound": mu.tail_bound,
               "note": mu.note}
    cones = _Rows(point=points, angle=angles, infinite_end=infinite)
    _emit_json(args, {"measure": measure, "cone_angles": cones})


def cmd_pointmass(args, params, at, series_tol):
    f = _load_map(args, params)
    dec = decompose(f, args.tol)
    mass, err = point_mass(dec, at, series_tol)
    _emit_json(args, {"point": at.to_json(), "mass": mass, "error_bound": err})


def cmd_sample(args, params, a0):
    f = _load_map(args, params)
    emp = sample_max_entropy(
        f, a0, depth=args.depth, count=args.count, seed=args.seed,
        workers=args.workers, gcd_tol=args.tol,
    )
    samples = re_im(emp.samples)
    if args.format == "csv":
        _emit_csv(args, ["z_re", "z_im", "w_re", "w_im"], samples.reshape(-1, 4).T,
                  {"seed": args.seed, "depth": args.depth, "count": args.count})
    else:
        _emit_json(args, {"samples": samples, "seed": emp.seed, "depth": emp.depth,
                          "count": emp.count, "source": emp.source})


def cmd_converge(args, params, sweep, values, center, radius, a0, tail_tol):
    family = fam.FamilySpec(args.family, params)
    family.check_limit()
    # the target (its integrals, or the mass check that exits 2) and the rows (integrals and
    # disk mass, or an error flag) share the pool
    specs = _sweep_specs(args, params, sweep, values)

    def run(spec):
        if spec is None:
            return _design_integrals(family.limit(tail_tol))
        try:
            emp = sample_max_entropy(spec.build(), a0, depth=args.depth, count=args.count,
                                     seed=args.seed, workers=args.workers, gcd_tol=args.tol)
            return _design_integrals(emp), mass_in_disk(emp, center, radius)
        except (ValueError, NumericalFailure) as exc:
            return f"error: {exc}"

    target_integrals, *outcomes = _shared_map(run, [None, *specs])
    rows = [(math.nan, math.nan, outcome) if isinstance(outcome, str)
            else (float(np.abs(outcome[0] - target_integrals).max()), outcome[1], "ok")
            for outcome in outcomes]  # (weak_distance, mass_in_disk, flag)
    dists = [dist for dist, _, flag in rows if flag == "ok"]
    summary = {
        "distances_decreasing": all(b <= a for a, b in zip(dists, dists[1:])),
        "final_distance": dists[-1] if dists else math.nan,
    }
    _emit_csv(args, [sweep, "weak_distance", "mass_in_disk", "flag"],
              [values, *map(list, zip(*rows))],
              {"seed": args.seed, "depth": args.depth, "count": args.count,
               **{f"summary.{k}": v for k, v in summary.items()}})


def cmd_properness(args, params, n, sweep, values):
    if values is None:
        values, maps = ["-"], [_load_map(args, params)]
    else:
        maps = [spec.build() for spec in _sweep_specs(args, params, sweep, values)]
    resultants = [iterate_abs_resultant(f, n, decompose(f, args.tol)) for f in maps]
    _emit_csv(args, [sweep, "abs_resultant"], [values, resultants], {"n": n})


def cmd_escape(args, params, re, im, n_max):
    f = _load_map(args, params)
    _emit_csv(args, ["re", "im", "G"], escape_grid(f, re, im, n_max, decompose(f, args.tol)))


def _require_family(args):
    if not args.family:
        raise ValueError("a sweep builds its maps from --family <name> and does not read --input")


def _sweep_specs(args, params, sweep, values):
    """A sweep's family specs, one per value, each checked before any is built; the swept
    key takes its values from `values` alone."""
    _require_family(args)
    if sweep in params:
        raise ValueError(f"--param {sweep} is swept: give its values as --param values=...")
    return [fam.FamilySpec(args.family, {**params, sweep: v}) for v in values]


# the readers of the verbs' own keys, (key, value as parsed or its default) -> value
def _key_name(key, value):
    if not isinstance(value, str) or not value:
        raise ValueError(f"--param {key} must be a key name, got {value!r}")
    return value


def _positive_real(key, value):
    value = fam.real_param(key, value)
    if not value > 0:
        raise ValueError(f"--param {key} must be positive, got {value!r}")
    return value


def _sweep_values(key, values):
    """A sweep's values as parsed; converge, which has no default for them, needs them."""
    if values is fam.REQUIRED:
        raise ValueError(f"converge needs --param {key}=v1,v2,...")
    return values


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


# each verb: its function; its own --param keys, key -> (reader, default), read by main in this
# order; its formats (default first); whether it samples (--seed --depth --count --workers), and
# so records a seed as a json verb does; whether it reads --family alone, which main checks first
_Verb = namedtuple("_Verb", "run keys formats samples family_only",
                   defaults=({}, ("json",), False, False))
COMMANDS = {
    "decompose": _Verb(cmd_decompose),
    "indeterminate": _Verb(cmd_indeterminate),
    "iterate": _Verb(cmd_iterate, {"n": (fam.int_param, 2)}),
    "measure": _Verb(cmd_measure, {"tail_tol": (fam.real_param, 1e-9)}),
    "pointmass": _Verb(cmd_pointmass, {"at": (_parse_point, math.inf),
                                       "series_tol": (fam.real_param, 1e-12)}),
    "sample": _Verb(cmd_sample, {"a0": (_parse_point, 0.5 + 0.5j)}, ("json", "csv"), samples=True),
    "converge": _Verb(
        cmd_converge,
        {"sweep": (_key_name, "t"), "values": (_sweep_values, fam.REQUIRED),
         "center": (_parse_point, math.inf), "radius": (_positive_real, 0.1),
         "a0": (_parse_point, 0.5 + 0.5j), "tail_tol": (fam.real_param, 1e-6)},
        ("csv",), samples=True, family_only=True),
    "properness": _Verb(cmd_properness, {"n": (fam.int_param, 2), "sweep": (_key_name, "t"),
                                         "values": (_sweep_values, None)}, ("csv",)),
    "escape": _Verb(cmd_escape, {"re": (_parse_range, "-2:2:21"), "im": (_parse_range, "-2:2:21"),
                                 "n_max": (fam.int_param, 50)}, ("csv",)),
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ratbound",
        description="experiments with boundary points of the space of rational maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in COMMANDS.items():
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--input", help="path to a BoundaryMap JSON file")
        source.add_argument("--family", help="named family (see families module)")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="family/command parameter, repeatable")
        # chordal distances lie in [0, 1], so a tol of 1 would match every root pair
        p.add_argument("--tol", type=_positive(float, below=1), default=DEFAULTS.gcd,
                       help="gcd tolerance: root-matching radius and residual bound")
        p.set_defaults(seed=0)  # --seed's default, and the seed a verb that draws nothing records
        if verb.samples:
            p.add_argument("--seed", type=_seed, help="sampler seed (default 0)")
            p.add_argument("--depth", type=_positive(int), default=20)
            p.add_argument("--count", type=_positive(int), default=10_000)
            p.add_argument("--workers", type=_positive(int), default=1,
                           help="sampler RNG stream partition. The stream depends on (seed, "
                                "workers) and numpy's SIMD dispatch (FMA), never on threads: "
                                "chunks, converge rows and large root batches share a fixed "
                                "pool of at most two, separate from BLAS's")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=verb.formats, default=verb.formats[0])
    return parser


@functools.cache
def _parser():
    # built on the first main() rather than at import; parse_args leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        verb = COMMANDS[args.command]
        params = _parse_params(args.param)
        if verb.family_only:
            _require_family(args)
        keys = {key: read(key, params.pop(key, default))
                for key, (read, default) in verb.keys.items()}
        verb.run(args, params, **keys)
    except (ValueError, KeyError, OSError, argparse.ArgumentTypeError, NumericalFailure) as exc:
        print(f"ratbound: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
