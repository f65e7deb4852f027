"""Per-layer tracing of zdinfty from outside the package.

``SpanTracer`` wraps each layer's public functions and records one span per
call: a name, a parent, a start and an end, kept in memory.  ``StatCounter``
wraps a few functions again in a separate pass that takes no timings: the
scalar operations of ``fields``, which are cheaper than a timer, and the
sizes read from arguments and results.  Both install their wrapper on every
module that binds the function (``from .homext import hom_space`` in decomp,
ar and cli; ``window._mm = linalg.mm``) and undo it on exit.  A function that
is missing from its module is reported as absent.
"""

from __future__ import annotations

import gzip
import sys
import time
import types

LAYERS = {
    "linalg": (
        "rref", "nullspace", "inverse", "solve", "rank", "span", "coords_in_basis",
        "reduce_against", "in_span", "mat_mul", "mm", "mat_vec",
        "minimal_polynomial", "mat_pow",
    ),
    "lattice": (
        "canonicalize", "membership", "contains", "from_filtration", "lattice_sum",
        "lattice_intersect", "intersect_rowspaces", "direct_sum", "adapted_coords",
        "shift_lattice", "sigma_lattice",
    ),
    "objects": (
        "model_of", "from_window", "from_presentation", "direct_sum",
        "direct_sum_many", "shift", "sigma", "serre_twist", "serre_untwist",
        "rank_one", "rank_two", "torsion_cyclic", "window_bounds",
        "injective_resolution",
    ),
    "window": ("intertwiner_space", "find_equivariant_iso", "reconstruct_parts", "quotient_model"),
    "homext": (
        "hom_space", "ext_space", "hom_kx_space", "compose", "add_morphisms",
        "scale_morphism", "morphism_from_parts", "sum_inclusion", "sum_projection",
        "serre_check", "serre_gram", "eta", "euler_form", "yoneda_compose",
        "serre_twist_morphism", "serre_twist_class", "module_xpower",
        "morphism_degreewise", "validate_morphism",
    ),
    "decomp": ("decompose", "identify", "end_ring", "filtration", "is_isomorphism", "label_to_object"),
    "ar": (
        "almost_split", "extension_object", "class_of_sequence", "verify_exact",
        "morphism_from_degreewise", "quiver_window", "no_proj_no_inj_witness",
    ),
    "cli": ("run_command",),
}
PRODUCTS = ("linalg.mat_mul", "linalg.mm", "linalg.mat_vec")


def _modules():
    return [m for n, m in list(sys.modules.items()) if n == "zdinfty" or n.startswith("zdinfty.")]


def _install(replacements: dict) -> list:
    """Rebind every module attribute that is one of the originals; returns
    what ``_restore`` needs to undo it."""
    undo = []
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if type(value) is types.FunctionType and value in replacements:
                setattr(mod, attr, replacements[value])
                undo.append((mod, attr, value))
    return undo


def _restore(undo: list) -> None:
    for obj, attr, value in reversed(undo):
        setattr(obj, attr, value)


def resolve():
    """Map "layer.function" to the function object.  A name that is missing,
    or that only aliases a function listed before it, is absent."""
    found, absent, seen = {}, [], set()
    for layer, names in LAYERS.items():
        mod = sys.modules.get(f"zdinfty.{layer}")
        for name in names:
            fn = getattr(mod, name, None)
            if not callable(fn) or id(fn) in seen:
                absent.append(f"{layer}.{name}")
                continue
            seen.add(id(fn))
            found[f"{layer}.{name}"] = fn
    return found, absent


class SpanTracer:
    """Context manager that records a span per call of every resolved function."""

    def __init__(self):
        self.found, self.absent = resolve()
        self.spans = []  # [name, parent index or -1, start, end, tag]
        self._undo = []

    def _wrap(self, key, fn):
        spans, clock = self.spans, time.perf_counter
        stack = self._stack
        field_tag = key == "linalg.rref"

        def wrapper(*args, **kwargs):
            tag = args[0].kind if field_tag else None
            rec = [key, stack[-1], clock(), 0.0, tag]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        self._stack = [-1]
        self._undo = _install({fn: self._wrap(k, fn) for k, fn in self.found.items()})
        return self

    def __exit__(self, *exc):
        _restore(self._undo)
        return False

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, parent, start, end, _ in self.spans:
                fh.write(f"{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")

    def summary(self, wall: float) -> dict:
        """Per-function calls, self and total time, plus the derived ratios."""
        spans = self.spans
        bit = {key: 1 << i for i, key in enumerate(self.found)}
        child = [0.0] * len(spans)
        flags = [0] * len(spans)
        stats = {key: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for key in self.found}
        rref_self = {"Q": 0.0, "Fp": 0.0}
        hom_in_decompose = inverse_in_iso = 0
        for i, (key, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                flags[i] = flags[parent] | bit[key]
                outer = not flags[parent] & bit[key]
                up = flags[parent]
            else:
                flags[i] = bit[key]
                outer, up = True, 0
            s = stats[key]
            s["calls"] += 1
            if outer:
                s["total_s"] += end - start
            if key == "homext.hom_space" and up & bit.get("decomp.decompose", 0):
                hom_in_decompose += 1
            if key == "linalg.inverse" and up & bit.get("window.find_equivariant_iso", 0):
                inverse_in_iso += 1
        for i, (key, _, start, end, tag) in enumerate(spans):
            own = end - start - child[i]
            stats[key]["self_s"] += own
            if tag is not None:
                rref_self[tag] += own
        out = {}
        for key, s in stats.items():
            for stat, value in s.items():
                out[f"{key}.{stat}"] = value
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s["self_s"] for key, s in stats.items() if key.startswith(layer + ".")
            )
        products = [stats[k] for k in PRODUCTS if k in stats]
        out["linalg.product.calls"] = sum(s["calls"] for s in products)
        out["linalg.product.self_s"] = sum(s["self_s"] for s in products)
        out["linalg.rref.q_self_s"] = rref_self["Q"]
        out["linalg.rref.fp_self_s"] = rref_self["Fp"]
        out["decomp.hom_space_per_op"] = _ratio(hom_in_decompose, stats.get("decomp.decompose"))
        out["window.inverse_per_iso"] = _ratio(inverse_in_iso, stats.get("window.find_equivariant_iso"))
        out["trace.coverage"] = sum(s["self_s"] for s in stats.values()) / wall
        return out


def _counting(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _ratio(count, stat) -> float:
    return count / stat["calls"] if stat and stat["calls"] else 0.0


class StatCounter:
    """Context manager for the untimed counting pass."""

    def __init__(self, zd):
        self.zd = zd
        self.counts = {
            "fields.mul.calls": 0, "fields.inv.calls": 0, "linalg.rref.cells": 0,
            "linalg.rref.max_bits": 0, "window.intertwiner_space.unknowns": 0,
            "homext.hom_space.basis_dim": 0,
        }
        self.absent = []

    def __enter__(self):
        c = self.counts
        cls = self.zd.fields.FieldSpec
        self._undo = []
        for name in ("mul", "inv"):
            fn = vars(cls).get(name)
            if fn is None:
                self.absent.append(f"fields.{name}")
                continue
            setattr(cls, name, _counting(fn, c, f"fields.{name}.calls"))
            self._undo.append((cls, name, fn))

        found, _ = resolve()
        wrappers = {}
        rref = found.get("linalg.rref")
        if rref:
            def rref_stats(F, rows, *args, **kwargs):
                rows = list(rows)
                c["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
                out = rref(F, rows, *args, **kwargs)
                if F.kind == "Q":
                    bits = max(
                        (max(x.numerator.bit_length(), x.denominator.bit_length())
                         for row in out[0] for x in row),
                        default=0,
                    )
                    c["linalg.rref.max_bits"] = max(c["linalg.rref.max_bits"], bits)
                return out
            wrappers[rref] = rref_stats
        intertwiners = found.get("window.intertwiner_space")
        if intertwiners:
            def intertwiner_stats(A, B, *args, **kwargs):
                c["window.intertwiner_space.unknowns"] += sum(
                    A.dim_at(d) * B.dim_at(d) for d in range(A.lo, A.hi + 1)
                )
                return intertwiners(A, B, *args, **kwargs)
            wrappers[intertwiners] = intertwiner_stats
        hom_space = found.get("homext.hom_space")
        if hom_space:
            def hom_stats(*args, **kwargs):
                out = hom_space(*args, **kwargs)
                c["homext.hom_space.basis_dim"] += out.dim
                return out
            wrappers[hom_space] = hom_stats
        for key, fn in (("linalg.rref", rref), ("window.intertwiner_space", intertwiners),
                        ("homext.hom_space", hom_space)):
            if fn is None:
                self.absent.append(key)
        self._undo += _install(wrappers)
        return self

    def __exit__(self, *exc):
        _restore(self._undo)
        return False


def layer_metrics(tracer: SpanTracer, counter: StatCounter, untraced_wall: float,
                  traced_wall: float) -> tuple[dict, list]:
    """Every per-layer value by name, and the functions found absent."""
    values = tracer.summary(traced_wall)
    values.update(counter.counts)
    values["trace.overhead"] = traced_wall / untraced_wall
    absent = sorted(set(tracer.absent) | set(counter.absent))
    return values, absent
