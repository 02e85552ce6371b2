"""Per-layer tracing of heckekit, installed from outside the package.

The tracer replaces public entry points with timing wrappers after
``import heckekit`` and before the workload binds any name:

* methods are patched on their classes (``LaurentPoly.__mul__`` ...);
* module functions are patched in every ``heckekit.*`` namespace that holds
  them, because ``from .linalg import mat_mul`` gives ``schema``,
  ``rmatrix`` and ``metaplectic`` their own binding of the same function.

Every wrapped entry keeps aggregate counters (calls, inclusive and self
time, size counts), so millions of polynomial products cost a few
attributes each.  Only the outer entries, the relation checks and the
instance builders, also record a full span with its parent; a check's
name labels its ``reports.run`` span.  Self time is inclusive time minus
the time of wrapped callees; inclusive time counts only the outermost
activation of a recursive entry.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter

perf = time.perf_counter


class Stat:
    __slots__ = (
        "calls", "self_s", "incl_s", "active", "raised",
        "term_pairs", "cells", "nonzero_products", "block_products",
        "num_terms_sum", "max_num_terms", "max_den_factors",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)
        self.self_s = self.incl_s = 0.0


# -- size counters, computed from the arguments before the call -------------------


def _term_pairs(stat, args):
    a, b = args[0], args[1]
    stat.term_pairs += len(a.terms) * len(getattr(b, "terms", (b,)))


def _rf_sizes(stat, args):
    for x in args[:2]:
        n = len(x.num.terms)
        stat.num_terms_sum += n
        if n > stat.max_num_terms:
            stat.max_num_terms = n
        if len(x.den) > stat.max_den_factors:
            stat.max_den_factors = len(x.den)


def _mat_products(stat, args):
    a, b = args[0], args[1]
    inner = len(b)
    stat.cells += len(a) * inner * (len(b[0]) if inner else 0)
    col_nonzero = [0] * inner
    for row in a:
        for j, x in enumerate(row):
            if not x.is_zero():
                col_nonzero[j] += 1
    stat.nonzero_products += sum(
        c * sum(1 for y in b[j] if not y.is_zero()) for j, c in enumerate(col_nonzero) if c
    )


def _block_products(stat, args):
    self, other = args[0], args[1]
    sources_by_target = Counter(target for target, _ in other.blocks)
    stat.block_products += sum(sources_by_target[source] for _, source in self.blocks)


# -- what is traced ---------------------------------------------------------------
#
# (metric prefix, module, class or None, attribute names, sizer, span?, stats)
# A class entry patches each attribute name on the class; a function entry
# patches the function wherever a heckekit namespace binds it.

ENTRIES = [
    ("algebra.poly_mul", "algebra", "LaurentPoly", ("__mul__", "__rmul__"), _term_pairs, False,
     "calls self_s term_pairs"),
    ("algebra.poly_add", "algebra", "LaurentPoly", ("__add__", "__radd__"), None, False, "calls self_s"),
    ("algebra.rf_add", "algebra", "RationalFunction", ("__add__", "__radd__"), None, False, "calls self_s"),
    ("algebra.rf_mul", "algebra", "RationalFunction", ("__mul__", "__rmul__"), None, False, "calls self_s"),
    ("algebra.rf_equal", "algebra", None, ("rf_equal",), _rf_sizes, False,
     "calls self_s max_num_terms mean_num_terms max_den_factors"),
    ("algebra.exact_divide", "algebra", None, ("exact_divide",), None, False,
     "calls self_s incl_s not_divisible useful_ratio"),
    ("algebra.as_poly", "algebra", "RationalFunction", ("as_poly",), None, False, "calls incl_s"),
    ("algebra.cancelled", "algebra", "RationalFunction", ("cancelled",), None, False, "calls incl_s"),
    ("linalg.mat_mul", "linalg", None, ("mat_mul",), _mat_products, False,
     "calls self_s cells nonzero_products useful_ratio"),
    ("linalg.first_difference", "linalg", None, ("first_difference",), None, False, "calls self_s"),
    ("linalg.is_scalar_matrix", "linalg", None, ("is_scalar_matrix",), None, False, "calls self_s"),
    ("linalg.mat_inverse", "linalg", None, ("mat_inverse",), None, False, "calls incl_s"),
    ("schema.compose", "schema", "BlockOperator", ("compose",), _block_products, False, "calls self_s block_products"),
    ("schema.build_T", "schema", None, ("build_T",), None, False, "calls incl_s"),
    ("schema.difference", "schema", "BlockOperator", ("difference",), None, False, "calls incl_s"),
    ("schema.check_composition", "schema", None, ("check_composition",), None, True, "incl_s"),
    ("schema.check_quadratic", "schema", None, ("check_quadratic",), None, True, "incl_s"),
    ("schema.check_braid", "schema", None, ("check_braid",), None, True, "incl_s"),
    ("schema.check_bernstein", "schema", None, ("check_bernstein",), None, True, "incl_s"),
    ("schema.generic_instance", "schema", None, ("generic_instance",), None, True, "incl_s"),
    ("roots.act_fn", "roots", "WeylGroup", ("act_fn",), None, False, "calls self_s"),
    ("roots.weyl_character", "roots", None, ("weyl_character",), None, False, "incl_s"),
    ("whittaker.idempotent_apply", "whittaker", None, ("idempotent_apply",), None, True, "calls incl_s"),
    ("whittaker.idempotent_element", "whittaker", None, ("idempotent_element",), None, True, "incl_s"),
    ("whittaker.twisted_mul", "whittaker", "TwistedGroupElement", ("mul",), None, False, "calls self_s"),
    ("whittaker.apply_demazure", "whittaker", None, ("apply_demazure",), None, False, "calls self_s"),
    ("whittaker.check_demazure_relations", "whittaker", None, ("check_demazure_relations",), None, True, "incl_s"),
    ("whittaker.cs_rhs", "whittaker", None, ("cs_rhs",), None, True, "incl_s"),
    ("metaplectic.metaplectic_schema_instance", "metaplectic", None, ("metaplectic_schema_instance",), None, True,
     "incl_s"),
    ("metaplectic.scattering_block", "metaplectic", None, ("scattering_block",), None, False, "calls self_s"),
    ("metaplectic.met_demazure", "metaplectic", None, ("met_demazure",), None, False, "calls self_s"),
    ("metaplectic.cg_scaled", "metaplectic", None, ("cg_scaled",), None, False, "calls self_s"),
    ("metaplectic.check_met_demazure_relations", "metaplectic", None, ("check_met_demazure_relations",), None, True,
     "incl_s"),
    ("metaplectic.rmatrix_dictionary_check", "metaplectic", None, ("rmatrix_dictionary_check",), None, True, "incl_s"),
    ("rmatrix.embed", "rmatrix", "TensorOperator", ("embed",), None, False, "calls self_s"),
    ("rmatrix.tensor_compose", "rmatrix", "TensorOperator", ("compose",), None, False, "calls self_s"),
    ("rmatrix.r_tilde", "rmatrix", None, ("r_tilde",), None, False, "calls self_s"),
    ("rmatrix.check_parametrized_ybe", "rmatrix", None, ("check_parametrized_ybe",), None, True, "incl_s"),
    ("rmatrix.check_triangularity", "rmatrix", None, ("check_triangularity",), None, True, "incl_s"),
    ("reports.run", "reports", "Report", ("run",), None, True, "calls incl_s"),
]

# stat -> (unit, better, value from a Stat)
STATS = {
    "calls": ("count", "lower", lambda s: s.calls),
    "self_s": ("s", "lower", lambda s: s.self_s),
    "incl_s": ("s", "lower", lambda s: s.incl_s),
    "term_pairs": ("count", "lower", lambda s: s.term_pairs),
    "max_num_terms": ("count", "lower", lambda s: s.max_num_terms),
    "mean_num_terms": ("count", "lower", lambda s: s.num_terms_sum / (2 * s.calls) if s.calls else 0.0),
    "max_den_factors": ("count", "lower", lambda s: s.max_den_factors),
    # exact_divide raises NotDivisible when the quotient does not exist
    "not_divisible": ("count", "lower", lambda s: s.raised),
    "useful_ratio": ("ratio", "higher", None),  # per entry, below
    "cells": ("count", "lower", lambda s: s.cells),
    "nonzero_products": ("count", "lower", lambda s: s.nonzero_products),
    "block_products": ("count", "lower", lambda s: s.block_products),
}

# Ratios of useful outcomes to attempts; 0.0 when nothing was attempted.
USEFUL = {
    "algebra.exact_divide": lambda s: (s.calls - s.raised) / s.calls if s.calls else 0.0,
    "linalg.mat_mul": lambda s: s.nonzero_products / s.cells if s.cells else 0.0,
}

# Counts that repeat exactly for one seed (times and time ratios do not).
EXACT_STATS = ("calls", "term_pairs", "cells", "nonzero_products", "block_products",
               "max_num_terms", "max_den_factors", "not_divisible")


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for prefix, *_, stats in ENTRIES:
        for stat in stats.split():
            unit, better, _ = STATS[stat]
            out.append((f"{prefix}.{stat}", unit, better))
    return out


class Tracer:
    def __init__(self, origin: float):
        self.origin = origin
        self.stats: dict[str, Stat] = {}
        # (id, parent id, entry, label, start, end); label is the entry's first str argument
        self.spans: list[tuple[int, int | None, str, str | None, float, float]] = []
        self._child_time: list[float] = []  # one accumulator per active wrapped call
        self._open_spans: list[int] = []
        self._span_ids = itertools.count()

    def install(self) -> None:
        """Patch every entry in ENTRIES; call after ``import heckekit``."""
        namespaces = [m for name, m in sys.modules.items() if name == "heckekit" or name.startswith("heckekit.")]
        for prefix, module, cls_name, attrs, sizer, span, _ in ENTRIES:
            stat = self.stats.setdefault(prefix, Stat())
            home = sys.modules[f"heckekit.{module}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                for attr in attrs:
                    setattr(cls, attr, self._wrap(cls.__dict__[attr], prefix, stat, sizer, span))
                continue
            original = getattr(home, attrs[0])
            wrapper = self._wrap(original, prefix, stat, sizer, span)
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, name, wrapper)

    def _wrap(self, fn, name, stat, sizer, span):
        child_time = self._child_time
        open_spans = self._open_spans
        spans = self.spans
        origin = self.origin
        span_ids = self._span_ids

        def traced(*args, **kwargs):
            if sizer is not None:
                sizer(stat, args)
            if span:
                span_id = next(span_ids)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            child_time.append(0.0)
            stat.active += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat.raised += 1
                raise
            finally:
                end = perf()
                elapsed = end - start
                stat.active -= 1
                stat.calls += 1
                stat.self_s += elapsed - child_time.pop()
                if not stat.active:
                    stat.incl_s += elapsed
                if child_time:
                    child_time[-1] += elapsed
                if span:
                    open_spans.pop()
                    label = next((a for a in args if isinstance(a, str)), None)
                    spans.append((span_id, parent, name, label, start - origin, end - origin))

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, float]:
        out = {}
        for prefix, *_, stats in ENTRIES:
            stat = self.stats[prefix]
            for name in stats.split():
                value = USEFUL[prefix](stat) if name == "useful_ratio" else STATS[name][2](stat)
                out[f"{prefix}.{name}"] = value
        return out

    def module_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix, stat in self.stats.items():
            module = prefix.split(".")[0]
            out[module] = out.get(module, 0.0) + stat.self_s
        return out
