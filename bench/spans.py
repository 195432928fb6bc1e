"""Span tracing for the benchmark, applied from outside the package.

`instrument` wraps the public functions of every charpow layer module, the
constructors of the classes they define, and the public methods of the
coefficient-table, class-function and formal-group classes.  Each wrapped
call records one span (name, start, end, parent) in flat arrays; nothing
is aggregated while the workload runs.  `layer_metrics` turns the spans
and the package's cache counters into the per-layer metrics.

A span's self time is its duration minus the union of its children's
intervals, so children that overlap are counted once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from array import array
from time import perf_counter

LAYERS = ("lattice", "torsion", "isogeny", "groups", "classfn", "fgl", "verify", "cli")

# Span name prefix -> bucket.  The longest matching prefix wins; a name with
# no match falls into the bucket named after its module (groups.other and
# classfn.other for the two modules that are split).
BUCKETS = {
    "groups.FiniteGroup.__init__": "groups.build",
    "groups.build_group": "groups.build",
    "groups.symmetric_group": "groups.build",
    "groups.cyclic_group": "groups.build",
    "groups.product_group": "groups.build",
    "groups.wreath_group": "groups.build",
    "groups.trivial_group": "groups.build",
    "groups.enumerate_hom_classes": "groups.hom_classes",
    "groups.canonical_tuple": "groups.hom_classes",
    "groups.precompose": "groups.hom_classes",
    "groups.TupleClass": "groups.hom_classes",
    "groups.split_product_class": "groups.hom_classes",
    "groups.abelian_subgroups": "groups.hom_classes",
    "groups.subgroup_closure": "groups.hom_classes",
    "groups.symm_class_to_sum": "groups.bijection",
    "groups.sum_to_symm_class": "groups.bijection",
    "groups.wreath_class_to_decorated": "groups.bijection",
    "groups.decorated_to_wreath_class": "groups.bijection",
    "groups": "groups.other",
    "classfn.C0Element": "classfn.C0Element",
    "classfn.c0_": "classfn.C0Element",
    "classfn.matrix_space": "classfn.C0Element",
    "classfn.ClassFunction": "classfn.ClassFunction",
    "classfn.constant_one": "classfn.ClassFunction",
    "classfn.constant_value": "classfn.ClassFunction",
    "classfn.indicator": "classfn.ClassFunction",
    "classfn.random_class_function": "classfn.ClassFunction",
    "classfn.restrict": "classfn.ClassFunction",
    "classfn.external_product": "classfn.ClassFunction",
    "classfn.stabilizer_act": "classfn.ClassFunction",
    "classfn.act_by_residue": "classfn.act_by_residue",
    "classfn.aut_act": "classfn.act_by_residue",
    "classfn.average": "classfn.average",
    "classfn.is_invariant": "classfn.is_invariant",
    "classfn.power_op": "classfn.power_op",
    "classfn.total_power_op": "classfn.total_power_op",
    "classfn.transfer": "classfn.transfer",
    "classfn.TransferIdeal": "classfn.transfer",
    "classfn.to_json_dict": "classfn.serialize",
    "classfn.from_json_dict": "classfn.serialize",
    "classfn": "classfn.other",
}

SELF_BUCKETS = (
    "lattice", "torsion", "isogeny",
    "groups.build", "groups.hom_classes", "groups.bijection", "groups.other",
    "classfn.C0Element", "classfn.ClassFunction", "classfn.act_by_residue",
    "classfn.average", "classfn.is_invariant", "classfn.power_op",
    "classfn.total_power_op", "classfn.transfer", "classfn.serialize",
    "classfn.other", "fgl", "verify", "cli",
)

# Classes whose public methods and __eq__ (table comparisons) are wrapped,
# not only their constructors.
METHOD_CLASSES = {
    "classfn": ("C0Element", "ClassFunction", "TransferIdeal"),
    "fgl": ("FGL", "TruncatedSeries", "TruncatedPoly", "RationalCoefficients", "IntegersMod"),
    "isogeny": ("Section",),
}

ACT_SPANS = (
    "classfn.C0Element.act_isogeny",
    "classfn.C0Element.act_matrix_left",
    "classfn.C0Element.act_matrix_right",
)
BIJECTION_SPANS = tuple(
    f"groups.{name}" for name in (
        "symm_class_to_sum", "sum_to_symm_class",
        "wreath_class_to_decorated", "decorated_to_wreath_class",
    )
)


def bucket_of(name: str) -> str:
    best = ""
    for prefix in BUCKETS:
        if name.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return BUCKETS[best] if best else name.split(".", 1)[0]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents):
    """Per span: duration minus the union of its children, clipped to the span."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        out[p] -= union_length(
            (max(starts[k], lo), min(ends[k], hi)) for k in kids
        )
    return out


class Tracer:
    """Span store: flat arrays indexed by span number."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced


class Counters:
    """Counts gathered by the after-hooks of a few spans."""

    def __init__(self):
        self.c0_entries = 0
        self.table_size = 0
        self.group_table_entries = 0
        self.groups = weakref.WeakSet()
        self.hom_hits = 0
        self.classes_enumerated = 0
        self.torsion_items = 0
        self._hom_results = {}

    def c0_built(self, args, _out):
        c = args[0]
        size = (c.p ** c.level) ** (c.n * c.n)
        self.c0_entries += size
        self.table_size = max(self.table_size, size)

    def group_built(self, args, _out):
        g = args[0]
        self.groups.add(g)
        self.group_table_entries += g.order ** 2

    def hom_classes(self, _args, out):
        # A cache hit hands back the tuple an earlier call returned.
        if id(out) in self._hom_results:
            self.hom_hits += 1
        else:
            self._hom_results[id(out)] = out
            self.classes_enumerated += len(out)

    def torsion_listed(self, _args, out):
        self.torsion_items += len(out)


AFTER_HOOKS = {
    "classfn.C0Element.__init__": "c0_built",
    "groups.FiniteGroup.__init__": "group_built",
    "groups.enumerate_hom_classes": "hom_classes",
    "torsion.enumerate_subgroups": "torsion_listed",
    "torsion.enumerate_sums": "torsion_listed",
}


def _is_traceable(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def instrument(tracer: Tracer, counters: Counters):
    """Wrap charpow's layer functions and rebind every reference to them."""

    def traced(name, fn):
        hook = AFTER_HOOKS.get(name)
        return tracer.wrap(name, fn, getattr(counters, hook) if hook else None)

    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"charpow.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if _is_traceable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                wrapped[id(obj)] = traced(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                public = attr in METHOD_CLASSES.get(layer, ())
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (meth == "__init__" or public and (
                        meth == "__eq__" or not meth.startswith("_")
                    )):
                        setattr(obj, meth, traced(f"{layer}.{attr}.{meth}", fn))
    # Rebind from-imports, package re-exports and function tables (verify.SUITES).
    for modname, mod in list(sys.modules.items()):
        if modname != "charpow" and not modname.startswith("charpow."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif type(obj) is dict:
                for key, val in list(obj.items()):
                    if id(val) in wrapped:
                        obj[key] = wrapped[id(val)]


def _cache_info(mod, name):
    """(hits, misses, size) of an lru_cache'd function, zeros if it is gone."""
    fn = getattr(mod, name, None)
    while fn is not None and not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)  # under a tracing wrapper
    if fn is None:
        return 0, 0, 0
    info = fn.cache_info()
    return info.hits, info.misses, info.currsize


def layer_metrics(tracer: Tracer, counters: Counters, wall_start: float, wall_end: float):
    """Per-layer metrics of one traced timed phase, keyed by metric name."""
    groups = sys.modules["charpow.groups"]
    classfn = sys.modules["charpow.classfn"]
    buckets = [bucket_of(name) for name in tracer.names]
    act_ids = {i for i, name in enumerate(tracer.names) if name in ACT_SPANS}
    ids = tracer.name_id
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    per_bucket = dict.fromkeys(SELF_BUCKETS, 0.0)
    counts = [0] * len(tracer.names)
    act_outer = 0
    for i, (nid, s) in enumerate(zip(ids, selfs)):
        b = buckets[nid]
        per_bucket[b] = per_bucket.get(b, 0.0) + s
        counts[nid] += 1
        if nid in act_ids:
            p = tracer.parent[i]
            if p < 0 or ids[p] not in act_ids:
                act_outer += 1
    calls = dict(zip(tracer.names, counts))
    roots = [
        (s, e) for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0
    ]

    def calls_in(prefix):
        return sum(n for name, n in calls.items() if bucket_of(name).startswith(prefix))

    left = _cache_info(classfn, "_left_translation_perm")
    right = _cache_info(classfn, "_right_translation_perm")
    perm_lookups = left[0] + left[1] + right[0] + right[1]
    hom_calls = calls.get("groups.enumerate_hom_classes", 0)
    live_groups = list(getattr(groups, "_GROUPS", {}).values()) + list(counters.groups)
    hom_cache = {id(g): len(getattr(g, "_hom_classes", {})) for g in live_groups}

    out = {f"{b}.self_s": v for b, v in per_bucket.items()}
    out.update({
        "groups.self_s": sum(v for b, v in per_bucket.items() if b.startswith("groups.")),
        "classfn.ops.self_s": sum(
            v for b, v in per_bucket.items()
            if b.startswith("classfn.") and b != "classfn.C0Element"
        ),
        "unattributed.self_s": (wall_end - wall_start) - union_length(roots),
        "classfn.C0Element.constructed": calls.get("classfn.C0Element.__init__", 0),
        "classfn.C0Element.entries": counters.c0_entries,
        "classfn.C0Element.mul.calls": calls.get("classfn.C0Element.mul", 0),
        "classfn.C0Element.act.calls": act_outer,
        "classfn.C0Element.add.calls": calls.get("classfn.C0Element.add", 0),
        "classfn.act_by_residue.calls": calls.get("classfn.act_by_residue", 0),
        "classfn.power_op.calls": calls.get("classfn.power_op", 0),
        "classfn.ClassFunction.constructed": calls.get("classfn.ClassFunction.__init__", 0),
        "classfn.perm_cache.hit_ratio": (left[0] + right[0]) / perm_lookups if perm_lookups else 0.0,
        "classfn.perm_cache.entries": left[2] + right[2],
        "classfn.matrix_space.entries": _cache_info(classfn, "matrix_space")[2],
        "classfn.gl_residues.entries": _cache_info(classfn, "general_linear_residues")[2],
        "classfn.table_size": counters.table_size,
        "groups.build.calls": calls.get("groups.FiniteGroup.__init__", 0),
        "groups.table_entries": counters.group_table_entries,
        "groups.cached": len(getattr(groups, "_GROUPS", {})),
        "groups.hom_cache_entries": sum(hom_cache.values()),
        "groups.hom_classes.calls": hom_calls,
        "groups.hom_classes.hit_ratio": counters.hom_hits / hom_calls if hom_calls else 0.0,
        "groups.classes_enumerated": counters.classes_enumerated,
        "groups.canonical_tuple.calls": calls.get("groups.canonical_tuple", 0),
        "groups.precompose.calls": calls.get("groups.precompose", 0),
        "groups.bijection.calls": sum(calls.get(n, 0) for n in BIJECTION_SPANS),
        "torsion.calls": calls_in("torsion"),
        "torsion.items_enumerated": counters.torsion_items,
        "lattice.calls": calls_in("lattice"),
        "isogeny.calls": calls_in("isogeny"),
        "fgl.calls": calls_in("fgl"),
        "trace.spans": len(ids),
    })
    return out
