"""Span tracing of clusterkit's public functions, installed from outside.

For the traced run, Tracer.install() replaces each listed function with a
wrapper that records a span (id, parent id, op id, name, start, end): on its
home module, on every clusterkit module that imported it by name, and for
the LaurentPoly dunders on the class.  uninstall() puts the originals back.
A listed name missing from the code under test is reported as absent.

Spans are kept in flat arrays while the run goes and written out at the end;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, home module, attribute path)
TARGETS = (
    ("laurent.mul", "clusterkit.laurent", "LaurentPoly.__mul__"),
    ("laurent.mul", "clusterkit.laurent", "LaurentPoly.__rmul__"),
    ("laurent.init", "clusterkit.laurent", "LaurentPoly.__init__"),
    ("laurent.exact_div", "clusterkit.laurent", "exact_div"),
    ("laurent.poly_gcd", "clusterkit.laurent", "poly_gcd"),
    ("seeds.seed_mutate", "clusterkit.seeds", "seed_mutate"),
    ("seeds.matrix_mutate", "clusterkit.seeds", "matrix_mutate"),
    ("seeds.validate", "clusterkit.seeds", "validate"),
    ("explore.explore", "clusterkit.explore", "explore"),
    ("analysis.laurent_membership", "clusterkit.analysis", "laurent_membership"),
    ("analysis.upper_bound_member", "clusterkit.analysis", "upper_bound_member"),
    ("analysis.coordinate_images", "clusterkit.analysis", "coordinate_images"),
    ("analysis.clusters_disjoint", "clusterkit.analysis", "clusters_disjoint"),
    ("constructions.type_a_chain", "clusterkit.constructions", "type_a_chain"),
    ("constructions.acyclic_staircase", "clusterkit.constructions", "acyclic_staircase"),
    ("constructions.bfz_basis_change", "clusterkit.constructions", "bfz_basis_change"),
    ("constructions.lie_preset", "clusterkit.constructions", "lie_preset"),
    ("constructions.verify_polynomial_generators", "clusterkit.constructions", "verify_polynomial_generators"),
    ("constructions.eval_expr", "clusterkit.constructions", "eval_expr"),
    ("cli.main", "clusterkit.cli", "main"),
)

# Per-layer metric -> unit.  Counts and times are per completed op, so runs
# of different lengths compare; ratios are over the whole traced phase.
LAYER_METRICS = {
    "laurent.mul.calls": "count/op",
    "laurent.mul.self_s": "s/op",
    "laurent.mul.terms_out": "count/op",
    "laurent.init.calls": "count/op",
    "laurent.exact_div.calls": "count/op",
    "laurent.exact_div.self_s": "s/op",
    "laurent.exact_div.not_divisible_ratio": "ratio",
    "laurent.poly_gcd.calls": "count/op",
    "laurent.poly_gcd.self_s": "s/op",
    "laurent.poly_gcd.nontrivial_ratio": "ratio",
    "seeds.seed_mutate.calls": "count/op",
    "seeds.seed_mutate.self_s": "s/op",
    "seeds.matrix_mutate.calls": "count/op",
    "seeds.matrix_mutate.self_s": "s/op",
    "seeds.validate.calls": "count/op",
    "seeds.validate.self_s": "s/op",
    "seeds.validate_per_mutate": "ratio",
    "explore.explore.calls": "count/op",
    "explore.explore.self_s": "s/op",
    "explore.labelled_s": "s/op",
    "explore.quotient_s": "s/op",
    "explore.seeds_found": "count/op",
    "explore.useful_child_ratio": "ratio",
    "analysis.laurent_membership.calls": "count/op",
    "analysis.laurent_membership.self_s": "s/op",
    "analysis.upper_bound_member.calls": "count/op",
    "analysis.coordinate_images.self_s": "s/op",
    "analysis.clusters_disjoint.calls": "count/op",
    "analysis.clusters_disjoint.self_s": "s/op",
    "constructions.type_a_chain.self_s": "s/op",
    "constructions.acyclic_staircase.self_s": "s/op",
    "constructions.bfz_basis_change.self_s": "s/op",
    "constructions.lie_preset.self_s": "s/op",
    "constructions.verify_polynomial_generators.self_s": "s/op",
    "constructions.eval_expr.calls": "count/op",
    "cli.main.calls": "count/op",
    "cli.main.self_s": "s/op",
    "presets.checks_run": "count/op",
    "trace.untraced_ops_s": "1/s",
    "trace.traced_ops_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count/op",
}

# Layers that must do no work on a workload: (metric prefix, workloads it may be nonzero on).
ZERO_WORK = (
    ("laurent.poly_gcd.calls", ("membership",)),
    ("explore.", ("explore-closure",)),
    ("constructions.", ("certify",)),
)


class Tracer:
    """Records spans from wrappers installed over clusterkit's functions."""

    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.parent = array("l")
        self.op = array("l")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.current_op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "clusterkit"]
        for span, modname, path in TARGETS:
            try:
                home = importlib.import_module(modname)
                owner, attr = home, path
                if "." in path:
                    cls, attr = path.split(".")
                    owner = getattr(home, cls)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{modname}:{path}")
                continue
            wrapper = self._wrap(span, original)
            self._replace(owner, attr, wrapper)
            if not isinstance(owner, type):
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn):
        code = self._code.setdefault(span, len(self.names))
        if code == len(self.names):
            self.names.append(span)
        after = _AFTER.get(span)
        parent, op, name, start, end = self.parent, self.op, self.name, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            name.append(code)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                if after is not None:
                    after(counters, args, kwargs, None, exc, t1 - t0)
                raise
            else:
                t1 = clock()
                if after is not None:
                    after(counters, args, kwargs, result, None, t1 - t0)
                return result
            finally:
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results ------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            c = name[i]
            calls[c] += 1
            self_s[c] += end[i] - start[i] - child[i]
        return dict(zip(self.names, calls)), dict(zip(self.names, self_s))

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every LAYER_METRICS entry except the trace.* ones, per completed op."""
        calls, self_s = self.totals()
        c = self.counters
        per = 1.0 / max(ops, 1)
        out = {}
        for metric in LAYER_METRICS:
            if metric.startswith("trace."):
                continue
            head, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(head, 0) * per
            elif stat == "self_s":
                out[metric] = self_s.get(head, 0.0) * per
        out["laurent.mul.terms_out"] = c["laurent.mul.terms_out"] * per
        out["laurent.exact_div.not_divisible_ratio"] = _ratio(c["laurent.exact_div.not_divisible"], calls.get("laurent.exact_div", 0))
        out["laurent.poly_gcd.nontrivial_ratio"] = _ratio(c["laurent.poly_gcd.nontrivial"], calls.get("laurent.poly_gcd", 0))
        out["seeds.validate_per_mutate"] = _ratio(calls.get("seeds.validate", 0), calls.get("seeds.matrix_mutate", 0))
        out["explore.labelled_s"] = c["explore.labelled_s"] * per
        out["explore.quotient_s"] = c["explore.quotient_s"] * per
        out["explore.seeds_found"] = c["explore.seeds_found"] * per
        out["explore.useful_child_ratio"] = _ratio(c["explore.new_seeds"], c["explore.children"])
        out["presets.checks_run"] = c["presets.checks_run"] * per
        return out

    def write(self, path) -> None:
        """Spans as one JSON header line, then the raw arrays, gzip-compressed."""
        header = {
            "names": self.names,
            "count": self.span_count(),
            "fields": [["parent", "l"], ["op", "l"], ["name", "H"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
            "absent": self.absent,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.op, self.name, self.start, self.end):
                arr.tofile(fh)


def zero_work_violations(workload: str, metrics: dict[str, float]) -> list[str]:
    out = []
    for prefix, allowed in ZERO_WORK:
        if workload in allowed:
            continue
        for metric, value in metrics.items():
            if metric.startswith(prefix) and value != 0:
                out.append(f"{metric} = {value:g} on {workload}, predicted 0")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _after_mul(counters, args, kwargs, result, exc, dt):
    if result is not None and result is not NotImplemented:
        try:
            counters["laurent.mul.terms_out"] += len(result.terms)
        except (AttributeError, TypeError):
            pass


def _after_exact_div(counters, args, kwargs, result, exc, dt):
    if exc is not None and type(exc).__name__ == "NotDivisible":
        counters["laurent.exact_div.not_divisible"] += 1


def _after_poly_gcd(counters, args, kwargs, result, exc, dt):
    if result is not None and not result.is_one:
        counters["laurent.poly_gcd.nontrivial"] += 1


def _after_explore(counters, args, kwargs, result, exc, dt):
    # children = n per seed expanded, which is every seed found on a closure
    mode = "quotient" if kwargs.get("quotient_permutations") else "labelled"
    counters[f"explore.{mode}_s"] += dt
    if result is not None:
        seed = args[0] if args else kwargs["seed"]
        found = result.seeds_found
        counters["explore.seeds_found"] += found
        counters["explore.new_seeds"] += found - 1
        counters["explore.children"] += found * seed.profile.n


_AFTER = {
    "laurent.mul": _after_mul,
    "laurent.exact_div": _after_exact_div,
    "laurent.poly_gcd": _after_poly_gcd,
    "explore.explore": _after_explore,
}
