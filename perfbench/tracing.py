"""Per-layer tracing of stingray's public functions, installed from outside.

The package itself is not changed: `install` replaces functions and methods
by attribute assignment, in every loaded ``stingray`` module that holds a
reference to them, so calls between modules are caught as well.

Two modes exist because wrapping the scalar field methods costs more than
the work they wrap:

* ``spans`` records one span per call of every function in LAYERS
  (name, start, end, parent span, item id), kept in flat arrays and
  summarised once at the end.  Scalar arithmetic is not wrapped, so its
  cost stays in the self time of the span that called it.
* ``counts`` counts calls of the same functions without timing them, and
  counts and times the scalar ``FieldSpec.*_enc`` methods (layer L0).

Self time of a span is its duration minus the durations of its direct
child spans; calls are sequential, so children never overlap.
"""

import importlib
import sys
from array import array
from time import perf_counter

# (module, attribute, metric prefix).  An attribute "Cls.meth" is a method.
LAYERS = (
    ("_kernels", "matmul", "kernels.matmul"),
    ("_kernels", "rref", "kernels.rref"),
    ("_kernels", "charpoly", "kernels.charpoly"),
    ("fmatrix", "char_poly", "fmatrix.char_poly"),
    ("fmatrix", "min_poly", "fmatrix.min_poly"),
    ("fmatrix", "matrix_order", "fmatrix.matrix_order"),
    ("fmatrix", "kernel", "fmatrix.kernel"),
    ("fmatrix", "image", "fmatrix.image"),
    ("fmatrix", "fixed_space", "fmatrix.fixed_space"),
    ("fmatrix", "apply_row", "fmatrix.apply_row"),
    ("fmatrix", "DenseMatrix.__mul__", "fmatrix.DenseMatrix.mul"),
    ("fmatrix", "DenseMatrix.inverse", "fmatrix.DenseMatrix.inverse"),
    ("fpoly", "factor", "fpoly.factor"),
    ("fpoly", "factor_cached", "fpoly.factor_cached"),
    ("fpoly", "root_order_in_quotient", "fpoly.root_order_in_quotient"),
    ("fpoly", "powmod", "fpoly.powmod"),
    ("fpoly", "lcm", "fpoly.lcm"),
    ("ppd", "factor_qe_minus_one", "ppd.factor_qe_minus_one"),
    ("ppd", "primitive_prime_divisors", "ppd.primitive_prime_divisors"),
    ("_intmath", "factorize", "intmath.factorize"),
    ("classify", "classify_element", "classify.classify_element"),
    ("classify", "is_stingray_oracle", "classify.is_stingray_oracle"),
    ("groups", "group_order", "groups.group_order"),
    ("groups", "random_element", "groups.random_element"),
    ("harness", "verify_suite", "harness.verify_suite"),
)
SCALAR = ("mul_enc", "add_enc", "sub_enc", "inv_enc")
SUITES = ("PERMMOD", "PSL2", "PROP122", "CHARACTERS", "PPDTABLE")


def _matmul_ops(args, result):
    n, k = args[1].shape
    return n * k * args[2].shape[1]


def _rref_ops(args, result):
    rows, cols = args[1].shape
    return result[2] * rows * cols


def _charpoly_ops(args, result):
    return args[1].shape[0] ** 3


# Field multiply-adds computed from array shapes, not counted: n*k*m for a
# product, rank*rows*cols for an echelon form, d^3 for a characteristic
# polynomial.
OPS = {"kernels.matmul": _matmul_ops, "kernels.rref": _rref_ops,
       "kernels.charpoly": _charpoly_ops}


def _span_name(prefix, args):
    if prefix == "harness.verify_suite":
        return "%s.%s" % (prefix, str(args[0]).upper())
    return prefix


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in a fixed order."""
    specs = [("ffield.%s.calls" % m, "count", "lower") for m in SCALAR]
    specs.append(("ffield.scalar.self_s", "s", "lower"))
    for _mod, _attr, prefix in LAYERS:
        if prefix == "harness.verify_suite":
            specs += [("%s.%s.wall_s" % (prefix, s), "s", "lower")
                      for s in SUITES]
            specs.append(("harness.candidate_ratio", "ratio", "higher"))
            continue
        specs += [(prefix + ".calls", "count", "lower"),
                  (prefix + ".self_s", "s", "lower")]
        if prefix in OPS:
            specs.append((prefix + ".ops", "computed-ops", "lower"))
        if prefix == "fpoly.factor_cached":
            specs.append((prefix + ".hit_ratio", "ratio", "higher"))
        if prefix == "fpoly.factor":
            specs.append((prefix + ".per_item", "count/item", "lower"))
    return specs + [("trace.untraced_wall_s", "s", "lower"),
                    ("trace.traced_wall_s", "s", "lower"),
                    ("trace.overhead_s", "s", "lower")]


class SpanTracer:
    """Flat in-memory span store."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ops = {}
        self.current_item = -1
        self._stack = [-1]

    def _name_id(self, name):
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def wrap(self, prefix, fn):
        ops_fn = OPS.get(prefix)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(self._name_id(_span_name(prefix, args)))
            self.parent.append(self._stack[-1])
            self.item.append(self.current_item)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if ops_fn is not None:
                self.ops[prefix] = self.ops.get(prefix, 0) + ops_fn(args, result)
            return result

        return traced

    def summary(self):
        """{"spans": n, "layers": {name: {calls, self_s, wall_s}}, ...}."""
        selfs = self_times(self.start, self.end, self.parent)
        layers = {}
        for i, nid in enumerate(self.name):
            row = layers.setdefault(self.names[nid],
                                    {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
            row["wall_s"] += self.end[i] - self.start[i]
        return {"spans": len(self.start), "layers": layers, "ops": self.ops,
                "factor_cache_misses": self._children_named(
                    "fpoly.factor_cached", "fpoly.factor"),
                "psl2_oracle_calls": self._under(
                    "classify.is_stingray_oracle", "harness.verify_suite.PSL2")}

    def _children_named(self, parent_name, child_name):
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        return sum(1 for i, nid in enumerate(self.name)
                   if nid == cid and self.parent[i] >= 0
                   and self.name[self.parent[i]] == pid)

    def _under(self, name, ancestor):
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        count = 0
        for i, got in enumerate(self.name):
            if got != nid:
                continue
            j = self.parent[i]
            while j >= 0 and self.name[j] != aid:
                j = self.parent[j]
            count += j >= 0
        return count

    def dump(self):
        return {"names": self.names, "name": list(self.name),
                "parent": list(self.parent), "item": list(self.item),
                "start": list(self.start), "end": list(self.end)}


def self_times(start, end, parent):
    """Per-span duration minus the durations of its direct children."""
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class CountTracer:
    """Call counts for LAYERS; counts and outermost time for L0 scalars."""

    def __init__(self):
        self.calls = {}
        self.scalar_s = 0.0
        self.current_item = -1
        self._depth = 0

    def wrap(self, prefix, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            name = _span_name(prefix, args)
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def wrap_scalar(self, name, fn):
        calls = self.calls

        def timed(*args):
            calls[name] = calls.get(name, 0) + 1
            if self._depth:
                return fn(*args)
            self._depth = 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                self.scalar_s += perf_counter() - t0
                self._depth = 0

        return timed

    def summary(self):
        return {"calls": self.calls, "scalar_s": self.scalar_s}


def _replace_everywhere(orig, new):
    for modname, mod in list(sys.modules.items()):
        if modname == "stingray" or modname.startswith("stingray."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


def install(mode):
    """Install a SpanTracer ("spans") or CountTracer ("counts") and return it."""
    tracer = SpanTracer() if mode == "spans" else CountTracer()
    for modname, attr, prefix in LAYERS:
        mod = importlib.import_module("stingray." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(prefix, getattr(cls, meth)))
        else:
            orig = getattr(mod, attr)
            _replace_everywhere(orig, tracer.wrap(prefix, orig))
    if mode == "counts":
        from stingray.ffield import FieldSpec
        for meth in SCALAR:
            setattr(FieldSpec, meth, tracer.wrap_scalar(
                "ffield.%s" % meth, getattr(FieldSpec, meth)))
    return tracer
