"""Spans around the program's public calls, recorded from outside it.

``Tracer.install`` replaces each function listed in WRAPPED, in every
loaded ``sfcheck`` module that holds it, with a wrapper that records one
span: name, start, end, parent span, operation id and, for a few calls, a
count taken from the call's arguments or result.  Spans stay in memory and
are written out when the pass ends.  ``layer_metrics`` turns one pass's
spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _clique_count(args, kwargs, result):
    return [args[0].n, result.nodes_explored]


def _report_bytes(args, kwargs, result):
    from sfcheck.report import report_to_json, strip_volatile

    return len(report_to_json(strip_volatile(args[1])).encode())


def _text_bytes(args, kwargs, result):
    return len(result.encode())


# (module, function, span name, count taken after the call).  Spans are
# named layer.function after the module that defines the function; the
# solver's degeneracy order and greedy seed are private, but they are the
# stages the solver's cost splits into.
WRAPPED = [
    ("sfcheck.graphs", "complement", "graphs.complement", None),
    ("sfcheck.graphs", "combine", "graphs.combine", None),
    ("sfcheck.graphs", "product", "graphs.product", None),
    ("sfcheck.graphs", "induced", "graphs.induced", None),
    ("sfcheck.construct", "build_F", "construct.build_F", None),
    ("sfcheck.construct", "build_SF", "construct.build_SF", None),
    ("sfcheck.construct", "validate", "construct.validate", None),
    ("sfcheck.solve", "max_clique", "solve.max_clique", _clique_count),
    ("sfcheck.solve", "max_independent_set", "solve.max_independent_set", None),
    ("sfcheck.solve", "max_mono_clique", "solve.max_mono_clique", None),
    ("sfcheck.solve", "verify_witness", "solve.verify_witness", None),
    ("sfcheck.solve", "_degeneracy_order", "solve.degeneracy_order", None),
    ("sfcheck.solve", "_greedy_clique", "solve.greedy_seed", None),
    ("sfcheck.verify", "check_theorem_1_1", "verify.check_theorem_1_1", None),
    ("sfcheck.verify", "check_theorem_1_2", "verify.check_theorem_1_2", None),
    ("sfcheck.verify", "bound_report_from_counts", "verify.bound_report", None),
    ("sfcheck.report", "run_verification", "report.run_verification", None),
    ("sfcheck.report", "write_report", "report.write_report", _report_bytes),
    ("sfcheck.report", "load_report", "report.load_report", None),
    ("sfcheck.report", "verify_report", "report.verify_report", None),
    ("sfcheck.formats", "encode_graph6", "formats.encode_graph6", _text_bytes),
    ("sfcheck.formats", "decode_graph6", "formats.decode_graph6", None),
    ("sfcheck.formats", "encode_dimacs", "formats.encode_dimacs", None),
    ("sfcheck.cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder for one single-threaded pass.

    A span is ``[name, start, end, parent, op, count]``; ``parent`` is the
    index of the enclosing span or -1.  ``op`` is the operation id the
    worker sets before each operation; when ``op_span`` is given, each
    span of that name starts the next operation instead.
    """

    def __init__(self, op_span: str | None = None):
        self.spans: list[list] = []
        self.op = -1
        self._op_span = op_span
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == self._op_span:
                self.op += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every WRAPPED function wherever a sfcheck module binds it,
        and Graph's invariant check, which runs once per Graph built."""
        import sfcheck.cli  # noqa: F401  (loads every module of the package)
        from sfcheck.graphs import Graph

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sfcheck"]
        for module_name, attr, name, count in WRAPPED:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        Graph.__post_init__ = self.wrap("graphs.graph_init", Graph.__post_init__)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# Per-layer metrics: name -> unit.  `_s` is total time inside calls of that
# name, counted once where calls nest; `_self_s` subtracts the time of the
# spans directly beneath; `_calls`, `graph_inits` and `nodes` are exact
# counts.
LAYER_UNITS = {
    "graphs.graph_inits": "count",
    "graphs.graph_init_s": "s",
    "graphs.complement_s": "s",
    "graphs.product_s": "s",
    "graphs.combine_s": "s",
    "graphs.induced_s": "s",
    "construct.build_F_s": "s",
    "construct.build_F_calls": "count",
    "construct.build_SF_s": "s",
    "construct.build_SF_calls": "count",
    "construct.validate_s": "s",
    "solve.max_clique_s": "s",
    "solve.max_clique_calls": "count",
    "solve.max_clique_self_s": "s",
    "solve.degeneracy_order_s": "s",
    "solve.greedy_seed_s": "s",
    "solve.max_independent_set_self_s": "s",
    "solve.max_mono_clique_s": "s",
    "solve.verify_witness_s": "s",
    "solve.nodes": "count",
    "solve.clique_vertices": "count",
    "solve.nodes_per_vertex": "nodes/vertex",
    "verify.check_theorem_1_1_s": "s",
    "verify.check_theorem_1_2_s": "s",
    "verify.self_s": "s",
    "report.run_verification_self_s": "s",
    "report.write_report_s": "s",
    "report.report_bytes": "bytes",
    "report.load_report_s": "s",
    "report.verify_report_s": "s",
    "formats.encode_graph6_s": "s",
    "formats.decode_graph6_s": "s",
    "formats.encode_dimacs_s": "s",
    "formats.graph6_bytes": "bytes",
    "cli.job_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly whenever the same work is repeated.
EXACT_COUNTS = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer totals of one pass.  ``solve.nodes_per_vertex`` and
    ``trace.overhead_s`` are left to the caller, which knows the base."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        calls[name] += 1
        own[name] += dur[i] - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total[name] += dur[i]
    clique = [s[5] for s in spans if s[0] == "solve.max_clique"]
    return {
        "graphs.graph_inits": calls["graphs.graph_init"],
        "graphs.graph_init_s": total["graphs.graph_init"],
        "graphs.complement_s": total["graphs.complement"],
        "graphs.product_s": total["graphs.product"],
        "graphs.combine_s": total["graphs.combine"],
        "graphs.induced_s": total["graphs.induced"],
        "construct.build_F_s": total["construct.build_F"],
        "construct.build_F_calls": calls["construct.build_F"],
        "construct.build_SF_s": total["construct.build_SF"],
        "construct.build_SF_calls": calls["construct.build_SF"],
        "construct.validate_s": total["construct.validate"],
        "solve.max_clique_s": total["solve.max_clique"],
        "solve.max_clique_calls": calls["solve.max_clique"],
        "solve.max_clique_self_s": own["solve.max_clique"],
        "solve.degeneracy_order_s": total["solve.degeneracy_order"],
        "solve.greedy_seed_s": total["solve.greedy_seed"],
        "solve.max_independent_set_self_s": own["solve.max_independent_set"],
        "solve.max_mono_clique_s": total["solve.max_mono_clique"],
        "solve.verify_witness_s": total["solve.verify_witness"],
        "solve.nodes": sum(c[1] for c in clique),
        "solve.clique_vertices": sum(c[0] for c in clique),
        "verify.check_theorem_1_1_s": total["verify.check_theorem_1_1"],
        "verify.check_theorem_1_2_s": total["verify.check_theorem_1_2"],
        "verify.self_s": sum(v for k, v in own.items() if k.startswith("verify.")),
        "report.run_verification_self_s": own["report.run_verification"],
        "report.write_report_s": total["report.write_report"],
        "report.report_bytes": sum(s[5] for s in spans if s[0] == "report.write_report"),
        "report.load_report_s": total["report.load_report"],
        "report.verify_report_s": total["report.verify_report"],
        "formats.encode_graph6_s": total["formats.encode_graph6"],
        "formats.decode_graph6_s": total["formats.decode_graph6"],
        "formats.encode_dimacs_s": total["formats.encode_dimacs"],
        "formats.graph6_bytes": sum(s[5] for s in spans if s[0] == "formats.encode_graph6"),
        "cli.job_s": sum(
            dur[i] for i, s in enumerate(spans)
            if s[0] == "report.run_verification" and s[3] >= 0 and spans[s[3]][0] == "cli.main"
        ),
        "cli.self_s": own["cli.main"],
        "trace.spans": n,
    }
