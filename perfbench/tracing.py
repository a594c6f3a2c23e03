"""Span tracing of corrlift's layers from outside the library.

`Tracer.install` replaces each traced function by a wrapper in every module
namespace its callers look it up in (``corrlift.solver.forward_stacked``,
``numpy.linalg.eigh`` as called by ``solver`` and ``linalg``, ...).  A wrapper
records one span per call: name, parent span, start and end.  The spans of
one operation stay in memory until the operation ends; `fold` then adds them
to per-name totals of calls, inclusive time and self time (a span's duration
minus the time its child spans cover) and drops them.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute, span name, value to take from the return value).
# Each function is listed once per namespace its callers read it from.
TARGETS = (
    ("corrlift.solver", "solve", "solver.solve", lambda r: r.iters),
    ("corrlift.solver", "extract_rank1", "solver.extract_rank1", None),
    ("corrlift.solver", "herm_eig", "linalg.herm_eig", None),
    ("corrlift.linalg", "herm_eig", "linalg.herm_eig", None),
    ("numpy.linalg", "eigh", "linalg.eigh", None),
    ("corrlift.solver", "forward_stacked", "sensing.forward_stacked", None),
    ("corrlift.sylvester", "forward_stacked", "sensing.forward_stacked", None),
    ("corrlift.sensing", "forward_stacked", "sensing.forward_stacked", None),
    ("corrlift.solver", "adjoint", "sensing.adjoint", None),
    ("corrlift.sylvester", "adjoint", "sensing.adjoint", None),
    ("corrlift.solver", "build_sensing", "sensing.build_sensing", None),
    ("corrlift.sylvester", "build_sensing", "sensing.build_sensing", None),
    ("corrlift.ambiguity", "roots", "poly.roots", None),
    ("corrlift.ambiguity", "from_roots", "poly.from_roots", None),
    ("corrlift.ambiguity", "cluster_zeros", "ambiguity.cluster_zeros", None),
    (
        "corrlift.ambiguity",
        "enumerate_convolution_ambiguities",
        "ambiguity.enumerate_convolution_ambiguities",
        len,
    ),
    (
        "corrlift.ambiguity",
        "enumerate_autocorr_ambiguities",
        "ambiguity.enumerate_autocorr_ambiguities",
        len,
    ),
    ("corrlift.sylvester", "gcd_degree", "sylvester.gcd_degree", None),
    ("corrlift.sylvester", "certificate_report", "sylvester.certificate_report", None),
    ("corrlift.sylvester", "tangent_injectivity", "sylvester.tangent_injectivity", None),
)


class Tracer:
    """Wraps the `TARGETS` and aggregates their spans per operation."""

    def __init__(self) -> None:
        # A span is [name, parent index or -1, start, end, value].
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        # name -> [calls, inclusive s, self s, summed value]
        self.totals: dict = {}
        # (parent name, child name) -> calls
        self.edges: dict = {}

    def install(self) -> None:
        for module_name, attr, name, value_of in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # a module that no longer reads the name
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, value_of))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, value_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if value_of is not None:
                span[4] = value_of(out)
            return out

        return traced

    def fold(self) -> dict:
        """Add the current operation's spans to the totals and drop them.

        Returns this operation's own per-name [calls, inclusive s, self s,
        value] table.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        op: dict = {}
        for i, (name, parent, start, end, value) in enumerate(spans):
            row = op.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[i]
            row[3] += value
            if parent >= 0:
                edge = (spans[parent][0], name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
        for name, row in op.items():
            total = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            for k in range(4):
                total[k] += row[k]
        spans.clear()
        return op
