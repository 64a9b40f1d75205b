"""Per-layer spans recorded from outside the package.

The tracer replaces each public function of the traced modules at every name
it is bound to (`roots` lives in `hpoly` and is also bound in `ratmap` and
`measure`; `merge_atoms` is reached through `measure`'s globals), so calls
between modules and inside one module are both seen.  Spans are kept in
memory with a parent link and written out at the end; a layer's self time is
its span minus the spans of its direct children.

Left unwrapped on purpose:
- `HPoly.evaluate` and the other methods, called millions of times in the
  escape and root loops (methods listed in WRAPPED_METHODS are the exception);
- the `cli` helpers (`cmd_*`, `build_parser`, `_emit_json`), so that
  `cli.main`'s self time holds argument parsing, the envelope, JSON/CSV
  serialization and the write.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict

PACKAGE = "ratbound"
MODULES = ("cli", "families", "ratmap", "hpoly", "measure", "escape", "projline")
WRAPPED_METHODS = (
    ("families", "FamilySpec", "build"),
    ("measure", "AtomicMeasure", "to_json"),
    ("measure", "EmpiricalMeasure", "to_json"),
)


def _merge_counts(c, args, kwargs, out):
    c["atoms_in"] += len(args[0]) if args else len(kwargs["points"])
    c["atoms_out"] += len(out[0])


# work counts read off arguments and return values, per layer
COUNTERS = {
    "hpoly.roots": lambda c, a, k, out: c.__setitem__(
        "degree_sum", c["degree_sum"] + (a[0] if a else k["P"]).degree),
    "measure.boundary_measure": lambda c, a, k, out: c.__setitem__(
        "atoms_out", c["atoms_out"] + len(out.points)),
    "measure.merge_atoms": _merge_counts,
    "measure.batched_preimage_slots": lambda c, a, k, out: c.__setitem__(
        "rows", c["rows"] + len(out)),
    "measure.sample_max_entropy": lambda c, a, k, out: c.__setitem__(
        "steps", c["steps"] + out.count * out.depth),
    "escape.escape_rate": lambda c, a, k, out: c.__setitem__(
        "steps", c["steps"] + out.n_used),
    "projline.canonicalize_rows": lambda c, a, k, out: c.__setitem__(
        "rows", c["rows"] + len(out)),
    "projline.chordal_cross": lambda c, a, k, out: c.__setitem__(
        "pairs", c["pairs"] + out.size),
}


class Tracer:
    """Installs wrappers around the package's public functions on demand."""

    def __init__(self):
        self.names = []               # span name table
        self.spans = []               # (name index, parent span index, t0, t1)
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._patches = []            # (owner, attribute, wrapper, original)
        mods = [sys.modules[f"{PACKAGE}.{m}"] for m in MODULES]
        owners = [m for name, m in sys.modules.items()
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        originals = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__
                        and (short != "cli" or attr == "main")):
                    originals[val] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patches.append((owner, attr, wrappers[val], val))
        for mod_name, cls_name, meth in WRAPPED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, self._wrap(f"{mod_name}.{meth}", fn), fn))
        self._op_name = {}

    def _name_index(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name, fn):
        idx = self._name_index(name)
        counter = COUNTERS.get(name)
        counts = self.counts[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, parent, t0, t1)
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def run_op(self, label, fn):
        """Run fn with the wrappers installed, under a root span for the op."""
        idx = self._op_name.get(label)
        if idx is None:
            idx = self._op_name[label] = self._name_index("op:" + label)
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)
        me = len(self.spans)
        self.spans.append(None)
        self._stack.append(me)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[me] = (idx, -1, t0, t1)
            for owner, attr, _, original in self._patches:
                setattr(owner, attr, original)

    def self_times(self):
        """Two dicts keyed by span name: call counts and total self seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        selfs = defaultdict(float)
        for i, (idx, _, t0, t1) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            selfs[name] += (t1 - t0) - child[i]
        return calls, selfs

    def write(self, path):
        """Spans as a name table plus [name, parent, start, end] rows."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [list(s) for s in self.spans]}, fh)
