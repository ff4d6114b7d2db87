"""Layer tracing installed from outside the package.

The tracer replaces public functions with thin wrappers under the names the
calling modules look up at run time (``ehzcap.capacity.solve_assignment``,
``ehzcap.billiards.solve_lp``, ...), records one span per call, and puts the
originals back on ``uninstall``.  A name that no longer exists is skipped,
so a refactor that removes it reports zero calls instead of failing, and
every wrapper re-raises what the wrapped call raised, unchanged.

Spans stay in memory as ``Span`` records; ``layer_totals`` reduces them to
per-layer counts and seconds after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

# (module, attribute, span name).  Module-level functions are wrapped in the
# namespace of the module that calls them, since that is the binding the
# caller resolves.
WRAPPED = (
    ("ehzcap.capacity", "enumerate_assignments", "capacity.enumerate"),
    ("ehzcap.capacity", "solve_assignment", "capacity.assign"),
    ("ehzcap.capacity", "extract_dual", "billiards.extract"),
    ("ehzcap.capacity", "verify_strong", "billiards.verify"),
    ("ehzcap.capacity", "canonicalize", "curves"),
    ("ehzcap.capacity", "minkowski_length", "curves"),
    ("ehzcap.capacity", "translation_margin", "curves"),
    ("ehzcap.capacity", "chebyshev_center", "geometry"),
    ("ehzcap.capacity", "negate", "geometry"),
    ("ehzcap.capacity", "translate", "geometry"),
    ("ehzcap.geometry", "chebyshev_center", "geometry"),
    ("ehzcap.geometry", "translate", "geometry"),
    ("ehzcap.geometry", "ConvexPolytope.from_vertices", "geometry"),
    ("ehzcap.geometry", "ConvexPolytope.from_halfspaces", "geometry"),
    ("ehzcap.geometry", "ConvexPolytope.from_representations", "geometry"),
    ("ehzcap.bodies", "hausdorff_distance", "geometry"),
    ("ehzcap.bodies", "random_polygon", "bodies"),
    ("ehzcap.bodies", "perturbed_body", "bodies"),
    ("ehzcap.jsonio", "loads", "jsonio"),
    ("ehzcap.jsonio", "body_from_dict", "jsonio"),
    ("ehzcap.jsonio", "result_to_dict", "jsonio"),
    ("ehzcap.jsonio", "identities_to_dict", "jsonio"),
    ("ehzcap.jsonio", "dumps", "jsonio"),
)

# Every module that imports ``solve_lp``; each binding gets its own wrapper,
# so an LP span knows which module solved it.
LP_IMPORTERS = ("capacity", "billiards", "curves", "geometry")

ROOT = "op"


@dataclass
class Span:
    name: str
    parent: int  # index of the innermost span open at the call, -1 for none
    root: int  # index of the enclosing root span
    start: float
    end: float = 0.0
    outcome: str = "raised"  # "ok", "raised" or "rejected"
    status: str = ""  # LP status
    pivots: int = 0  # LP pivots
    count: int = 0  # assignments returned by an enumeration


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._root = -1
        self._saved: list[tuple[object, str, object]] = []
        self._last_extract = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            self._patch(module_name, attr, span_name)
        for importer in LP_IMPORTERS:
            self._patch(f"ehzcap.{importer}", "solve_lp", f"lp.{importer}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, module_name: str, dotted: str, span_name: str) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, span_name))
        else:
            wrapped = self._wrap(raw, span_name)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, span_name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
                tracer._note(index, args, kwargs, result)
                return result
            finally:
                tracer._close(index)

        return wrapper

    # -- recording -----------------------------------------------------------

    def root(self, label: str = ROOT):
        """Context manager for one operation's root span."""
        return _RootSpan(self, label)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self._root, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _note(self, index: int, args, kwargs, result) -> None:
        """Record what a span's result says.  Reads fields with defaults,
        so a result that loses one leaves a zero, never an error."""
        span = self.spans[index]
        span.outcome = "ok"
        if span.name.startswith("lp."):
            span.status = getattr(result, "status", "")
            span.pivots = getattr(result, "iterations", 0)
        elif span.name == "capacity.enumerate":
            span.count = len(result) if hasattr(result, "__len__") else 0
        elif span.name == "billiards.extract":
            self._last_extract = (index, result)
        elif span.name == "billiards.verify" and self._last_extract:
            # The solver verifies extracted momenta right after extracting
            # them; a rejection there is the extraction route failing.
            extract_index, momenta = self._last_extract
            given = kwargs.get("p", args[3] if len(args) > 3 else None)
            if given is momenta:
                self._last_extract = None
                if not getattr(result, "verified", True):
                    self.spans[extract_index].outcome = "rejected"


class _RootSpan:
    def __init__(self, tracer: Tracer, label: str):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        self.index = self.tracer._open(self.label)
        self.tracer._root = self.index
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index].outcome = "ok" if exc[0] is None else "raised"
        self.tracer._close(self.index)
        self.tracer._root = -1
        self.tracer._last_extract = None
        return False


def _layer(name: str) -> str:
    return "lp" if name.startswith("lp.") else name


@dataclass
class LayerTotals:
    seconds: float = 0.0  # outermost spans only, so nested calls count once
    calls: int = 0
    failed: int = 0  # raised, rejected, or (for LPs) not optimal
    count: int = 0  # assignments returned, for enumerations
    lps: int = 0  # LPs whose innermost open span is this layer
    pivots: int = 0  # pivots of those LPs
    feasible_lps: int = 0  # those LPs that ended optimal


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per-layer totals of one traced stretch.

    Keys are span names with every ``lp.<module>`` folded into ``lp``, plus
    ``lp.<module>`` for the LPs solved through each module's binding, and
    ``capacity.witness`` for LPs that ``capacity`` solved directly under a
    root span, outside every wrapped function (the multiplier witness).
    """
    totals: dict[str, LayerTotals] = {}

    def get(key: str) -> LayerTotals:
        return totals.setdefault(key, LayerTotals())

    for span in spans:
        layer = _layer(span.name)
        duration = span.end - span.start
        is_lp = layer == "lp"
        failed = span.outcome != "ok" or (is_lp and span.status != "optimal")
        keys = (layer, span.name) if is_lp else (layer,)
        for key in keys:
            entry = get(key)
            entry.calls += 1
            entry.failed += failed
            entry.count += span.count
            if is_lp:
                entry.lps += 1
                entry.pivots += span.pivots
            if not _has_ancestor_layer(spans, span, layer):
                entry.seconds += duration
        if not is_lp:
            continue
        parent = spans[span.parent] if span.parent >= 0 else None
        if parent is None or parent.parent < 0:
            owner = get("capacity.witness" if span.name == "lp.capacity"
                        else "unattributed")
            owner.seconds += duration
        else:
            owner = get(_layer(parent.name))
        owner.lps += 1
        owner.pivots += span.pivots
        owner.feasible_lps += span.status == "optimal"
    return totals


def _has_ancestor_layer(spans: list[Span], span: Span, layer: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if _layer(spans[parent].name) == layer:
            return True
        parent = spans[parent].parent
    return False
