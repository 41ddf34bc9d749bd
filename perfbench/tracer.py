"""Outside-in span tracer for the unitcat benchmark.

The program is not edited: ``install`` replaces, from outside, every
module binding of each target below with a wrapper that records a span
(name, start, end, parent).  A function imported into another module
(``suites`` imports ``all_posets``, ``stone`` imports ``function_space``)
is rebound there too, and class members are patched on the class, so
``FunctionSpace.__init__`` reaching ``duality.GridOps`` is seen as well.

Hot leaves run millions of times per suite.  They do not store a span
each: their calls, time and passing results are summed per parent span.
Calls made inside a hot leaf are not traced separately; their time is
the leaf's self time.  Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

CALL, HOT, GEN = "call", "hot", "gen"


def _space_key(P, q, n):
    return (P.leq, q.name, n)


def _cx_key(X, n):
    return (X.matrix, X.quantale.name, n)


# (metric name, module, attribute, kind, distinct-argument key).  GEN
# targets are generators: one span per next().
TARGETS = (
    ("tnorms.grid_closed", "tnorms", "grid_closed", CALL, None),
    ("tnorms.GridOps", "tnorms", "GridOps.__init__", CALL, None),
    ("duality.function_space", "duality", "function_space", CALL, _space_key),
    ("duality.FunctionSpace.pair_ops", "duality", "FunctionSpace.pair_ops", CALL, None),
    ("duality.FunctionSpace.unary_ops", "duality", "FunctionSpace.unary_ops", CALL, None),
    ("duality.Functional.from_levels", "duality", "Functional.from_levels", HOT, None),
    ("duality.passes_cut", "duality", "passes_cut", HOT, None),
    ("duality.representability_audit", "duality", "representability_audit", CALL, None),
    ("duality.c_of_distributor", "duality", "c_of_distributor", CALL, None),
    ("duality.total_partial_audit", "duality", "total_partial_audit", CALL, None),
    ("enriched.is_finsup_functional", "enriched", "is_finsup_functional", HOT, None),
    ("enriched.adjunction_audit", "enriched", "adjunction_audit", CALL, None),
    ("enriched.pointsep_extension_audit", "enriched", "pointsep_extension_audit", CALL, None),
    ("enriched.enumerate_enriched_categories", "enriched", "enumerate_enriched_categories", GEN, None),
    ("enriched.enumerate_cx", "enriched", "enumerate_cx", CALL, _cx_key),
    ("enriched.is_cogenerated", "enriched", "is_cogenerated", CALL, None),
    ("enriched.lemma1_audit", "enriched", "lemma1_audit", CALL, None),
    ("stone.generate_closure", "stone", "generate_closure", CALL, None),
    ("stone.density_at_level", "stone", "density_at_level", CALL, None),
    ("stone.check_sep", "stone", "check_sep", CALL, None),
    ("vcat.validate_vcategory", "vcat", "validate_vcategory", CALL, None),
    ("vcat.is_separated", "vcat", "is_separated", CALL, None),
    ("posets.verify_monad_laws", "posets", "verify_monad_laws", CALL, None),
    ("posets.all_posets", "posets", "all_posets", CALL, None),
    ("posets.continuous_distributors", "posets", "continuous_distributors", GEN, None),
    ("posets.kleisli_compose", "posets", "kleisli_compose", CALL, None),
    ("suites.run_suite", "suites", "run_suite", CALL, None),
)

TARGET_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Span recorder kept in memory until ``write``.

    A frame on the stack is ``[span_id, hot, child_s, start, leaves]``;
    ``leaves`` sums the hot leaves called directly under that span.
    ``stats[name]`` is ``[calls, self_s, passes]``, where passes counts
    results that are ``True`` (the hot leaves are predicates).
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self.leaves: list[tuple] = []
        self.stats = {name: [0, 0.0, 0] for name in TARGET_NAMES}
        self.keys: dict[str, set] = {}
        self.bindings: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self.originals: list[tuple[str, object]] = []
        self.absorb_marks: list[float] = []
        self._stack: list[list] = []
        self._next_id = 0

    def _open(self) -> list:
        self._next_id += 1
        frame = [self._next_id, False, 0.0, 0.0, {}]
        self._stack.append(frame)
        frame[3] = self.clock()
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        span_id, _, child_s, start, leaves = frame
        duration = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration - child_s
        parent_id = None
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[0]
        self.spans.append((span_id, name, start, end, parent_id))
        for leaf, agg in leaves.items():
            self.leaves.append((span_id, leaf, *agg))

    def wrap(self, name: str, fn, kind: str, key=None):
        stack = self._stack
        keys = self.keys.setdefault(name, set()) if key is not None else None

        if kind == HOT:
            clock = self.clock
            stat = self.stats[name]
            marker = [None, True, 0.0, 0.0, None]

            def traced_hot(*args, **kwargs):
                parent = stack[-1] if stack else None
                if parent is not None and parent[1]:
                    return fn(*args, **kwargs)
                stack.append(marker)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                passed = result is True
                stat[0] += 1
                stat[1] += duration
                stat[2] += passed
                if parent is not None:
                    parent[2] += duration
                    agg = parent[4].get(name)
                    if agg is None:
                        agg = parent[4][name] = [0, 0.0, 0]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += passed
                return result

            return traced_hot

        if kind == GEN:
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if stack and stack[-1][1]:
                    yield from inner
                    return
                while True:
                    frame = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, frame)
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            if stack and stack[-1][1]:
                return fn(*args, **kwargs)
            if keys is not None:
                keys.add(key(*args, **kwargs))
            frame = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame)

        return traced

    def unwrapped(self) -> list[str]:
        """Module bindings that still hold an unwrapped target, such as one
        made by a module imported after ``install``; empty if none was missed."""
        found = []
        for n, mod in sorted(sys.modules.items()):
            if mod is None or not (n == "unitcat" or n.startswith("unitcat.")):
                continue
            for binding, value in vars(mod).items():
                for name, original in self.originals:
                    if value is original:
                        found.append(f"{n}.{binding} ({name})")
        return found

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
            for parent, leaf, calls, total_s, passes in self.leaves:
                fh.write(json.dumps(
                    {"leaf": leaf, "parent": parent, "calls": calls,
                     "total_s": total_s, "passes": passes}
                ) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every target in every ``unitcat`` module that binds it.

    A target the program no longer has is listed in ``tracer.missing``;
    the benchmark then fails the traced run, since its metrics would read
    zero.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "unitcat" or n.startswith("unitcat."))]
    for name, module_name, attr, kind, key in TARGETS:
        try:
            module = importlib.import_module(f"unitcat.{module_name}")
        except ImportError:
            tracer.missing.append(name)
            continue
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(member)
            if raw is None:
                tracer.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, member, classmethod(tracer.wrap(name, raw.__func__, kind, key)))
            else:
                setattr(owner, member, tracer.wrap(name, raw, kind, key))
            tracer.bindings[name] = [f"{module.__name__}.{owner_name}"]
            continue
        original = getattr(module, member, None)
        if original is None:
            tracer.missing.append(name)
            continue
        tracer.originals.append((name, original))
        wrapped = tracer.wrap(name, original, kind, key)
        bound = []
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapped)
                    bound.append(f"{mod.__name__}.{binding}")
        tracer.bindings[name] = bound

    reports = importlib.import_module("unitcat.reports")
    absorb = reports.SuiteReport.absorb
    marks = tracer.absorb_marks
    clock = tracer.clock

    def marked_absorb(self, *args, **kwargs):
        marks.append(clock())
        return absorb(self, *args, **kwargs)

    reports.SuiteReport.absorb = marked_absorb
