"""Per-layer tracing for the benchmark: wraps public coxsaito functions.

Each wrapped function adds its wall time and call count to a named layer
metric.  Only the outermost entry into a metric is timed and counted, so
recursion (products run suites per factor) and calls between functions of
one metric (``exact_div`` calls ``divmod_single``) are not counted twice.

Wrapping patches every import site: a function imported by name into
another module (``graded_membership_batch`` into ``rankcond``, ``algebra``
and ``freediv``) is replaced wherever a ``coxsaito`` module holds it, and
methods are replaced on their class.  ``scalars`` (``Quad`` and
``Fraction`` arithmetic) is deliberately not wrapped: an H3 job makes about
a million such calls, so wrapping them would distort every timing; their
cost appears as self time of ``engine.exact_solve_s`` and ``poly.*``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# the suites of `coxsaito.workspace.ALL_SUITES`, fixed here so that the
# metric list in BENCHMARK.json does not follow changes to the program
SUITES = (
    "datum",
    "saito",
    "grc-A",
    "grc-D",
    "drc",
    "hrc",
    "algebra",
    "fibers",
    "fractions",
    "generators",
    "freediv",
    "lift",
)

# (module, attribute path, layer metric); run_suite's metric is named per
# call after its suite argument.
TARGETS = (
    ("workspace", "Workspace.run_suite", None),
    ("catalog", "build_datum", "catalog.build_datum"),
    ("saito", "build_saito", "saito.build_saito"),
    ("saito", "express_in_invariants", "saito.express_in_invariants"),
    ("saito", "logarithmic_quotients", "saito.logarithmic_quotients"),
    ("rankcond", "build_minor_table", "rankcond.build_minor_table"),
    ("rankcond", "check_grc", "rankcond.check"),
    ("rankcond", "check_drc", "rankcond.check"),
    ("rankcond", "check_hrc", "rankcond.check"),
    ("engine", "graded_membership_batch", "engine.membership"),
    ("engine", "solve_linear", "engine.exact_solve"),
    ("engine", "groebner", "engine.groebner"),
    ("engine", "codim_at_least_two", "engine.codim2"),
    ("poly", "Poly.__mul__", "poly.mul"),
    ("poly", "Poly.divmod_single", "poly.div"),
    ("poly", "Poly.exact_div", "poly.div"),
    ("poly", "Poly.subst", "poly.subst"),
    ("polymatrix", "PolyMatrix.det", "polymatrix.det"),
    ("polymatrix", "PolyMatrix.adjugate", "polymatrix.adjugate"),
    ("algebra", "build_mul_table", "algebra.build_mul_table"),
    ("algebra", "verify_generators", "algebra.check"),
    ("algebra", "check_mul_table", "algebra.check"),
    ("algebra", "check_fibers", "algebra.check"),
    ("algebra", "check_quotient_rule", "algebra.check"),
    ("algebra", "check_generator_match", "algebra.check"),
    ("algebra", "check_normalization_gap", "algebra.check"),
    ("freediv", "adjoint_divisor", "freediv.check"),
    ("freediv", "check_derivative_ideal", "freediv.check"),
    ("freediv", "check_basis_change", "freediv.check"),
    ("freediv", "check_free_divisor_sum", "freediv.check"),
    ("freediv", "check_distinguished_monomials", "freediv.check"),
    ("freediv", "check_lift", "freediv.check"),
    ("freediv", "check_b3_fixture", "freediv.check"),
    ("certs", "write_report", "certs.write_report"),
    ("certs", "verify_payload_item", "certs.verify_item"),
)


def target_label(module, path):
    return f"{module}.{path}"


class Tracer:
    """Accumulates busy time and outermost call counts per layer metric."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.hits = defaultdict(int)  # per wrapped function, every call
        self.depth = defaultdict(int)
        self.check_pairs = set()  # distinct (type, check) per process
        self.exact_targets = 0  # targets that reached solve_linear from membership
        self._first_solve = False

    def _wrap(self, fn, label, metric):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.hits[label] += 1
            name = metric or f"workspace.suite_s.{args[2]}"  # (self, name, suite)
            if tracer.depth[name]:
                return fn(*args, **kwargs)
            tracer.depth[name] += 1
            tracer.calls[name] += 1
            tracer._before(name, args)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.busy[name] += time.perf_counter() - t0
                tracer.depth[name] -= 1
            tracer._after(name, args, out)
            return out

        return wrapper

    def _before(self, name, args):
        if name == "engine.membership":
            self.calls["engine.membership_targets"] += len(args[0])
            self._first_solve = True
        elif name == "engine.exact_solve" and self.depth["engine.membership"]:
            # the first solve inside a membership batch carries the targets
            # the modular path left; later ones build separating functionals
            if self._first_solve:
                self.exact_targets += args[2]
                self._first_solve = False

    def _after(self, name, args, out):
        if name == "rankcond.check":
            self.check_pairs.add((out.ctype, out.name))

    def install(self):
        """Wrap every target at each coxsaito module attribute holding it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "coxsaito"]
        for module, path, metric in TARGETS:
            owner = sys.modules[f"coxsaito.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, target_label(module, path), metric)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def snapshot(self):
        """Counters as plain JSON data, for merging across processes."""
        return {
            "busy": dict(self.busy),
            "calls": dict(self.calls),
            "hits": dict(self.hits),
            "distinct_checks": len(self.check_pairs),
            "exact_targets": self.exact_targets,
        }


def merge(snapshots):
    out = {
        "busy": defaultdict(float),
        "calls": defaultdict(int),
        "hits": defaultdict(int),
        "distinct_checks": 0,
        "exact_targets": 0,
    }
    for snap in snapshots:
        for key in ("busy", "calls", "hits"):
            for name, value in snap[key].items():
                out[key][name] += value
        out["distinct_checks"] += snap["distinct_checks"]
        out["exact_targets"] += snap["exact_targets"]
    return out


def layer_metrics(total):
    """The per-layer metrics reported by a traced run, from merged counters."""
    busy, calls = total["busy"], total["calls"]
    out = {}
    for suite in SUITES:
        out[f"workspace.suite_s.{suite}"] = (busy.get(f"workspace.suite_s.{suite}", 0.0), "s")
    for name in dict.fromkeys(metric for _, _, metric in TARGETS if metric):
        out[f"{name}_s"] = (busy.get(name, 0.0), "s")
    checks = calls.get("rankcond.check", 0)
    out["rankcond.distinct_check_ratio"] = (
        total["distinct_checks"] / checks if checks else 0.0, "ratio")
    targets = calls.get("engine.membership_targets", 0)
    out["engine.membership_targets"] = (targets, "count")
    out["engine.exact_solve_calls"] = (calls.get("engine.exact_solve", 0), "count")
    out["engine.modular_settled_ratio"] = (
        1 - total["exact_targets"] / targets if targets else 0.0, "ratio")
    out["poly.mul_calls"] = (calls.get("poly.mul", 0), "count")
    out["poly.div_calls"] = (calls.get("poly.div", 0), "count")
    out["certs.payload_items"] = (calls.get("certs.verify_item", 0), "count")
    return out


def missing_hits(total, exempt=()):
    """Wrapped functions never called; a renamed or re-imported function
    that silently dropped out of the trace shows up here."""
    labels = [target_label(m, p) for m, p, _ in TARGETS]
    return [lab for lab in labels if lab not in exempt and not total["hits"].get(lab)]
