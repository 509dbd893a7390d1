"""Span tracer that wraps geonewton's public functions from outside.

Each target is a function or method of one module (the module is the layer).
``install`` replaces it at every place where callers bind it: its defining
module or class, every required binding site (``geonewton.newton`` binds
``hessian_fd`` by name, for example), and any other geonewton module found
holding the same object. Spans live in flat arrays with parent links and are
written out when the run ends; a layer's self time is its span time minus the
time of its direct child spans.

The harness refuses to go blind: ``install`` raises ``TraceBlindError`` when a
target or a required binding site no longer exists, and ``require_layers``
raises when a layer a workload must reach recorded no calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

_CLOCK = time.perf_counter


class TraceBlindError(RuntimeError):
    """The tracer would miss calls: a wrapped site is gone or a layer is silent."""


@dataclass(frozen=True)
class Target:
    owner: str  # module, or module:Class for a method
    attr: str
    sites: tuple[str, ...] = ()  # other modules that must bind the same object
    variant: object = None  # args -> span-name suffix
    measure_bytes: bool = False  # count len() of the return value

    @property
    def name(self) -> str:
        module = self.owner.split(":")[0].rsplit(".", 1)[-1]
        return f"{module}.{self.attr}"


def _size(manifold) -> str:
    dim = getattr(manifold, "ambient_dim", 9)
    return "so3" if type(manifold).__name__ == "Rotations3" else f"sphere{dim}"


def _by_family(args):
    return args[0].family


def _by_size_family(args):  # hessian_fd(objective, spec, p, ...)
    return f"{_size(args[2].manifold)}.{args[1].family}"


def _by_newton_config(args):  # newton_run(objective, config, p0)
    return f"{_size(args[2].manifold)}.{args[1].retraction.family}"


G = "geonewton"
TARGETS = (
    Target(f"{G}.manifolds:Sphere", "tangent_basis"),
    Target(f"{G}.manifolds:Rotations3", "tangent_basis"),
    Target(f"{G}.manifolds:Sphere", "exp_map"),
    Target(f"{G}.manifolds:Rotations3", "exp_map"),
    Target(f"{G}.retractions", "retract", (f"{G}.calculus", f"{G}.newton", f"{G}.rates"), _by_family),
    Target(f"{G}.retractions", "inverse_retract", (f"{G}.rates",)),
    Target(f"{G}.objectives:Rayleigh", "value"),
    Target(f"{G}.objectives:ProcrustesTrace", "value"),
    Target(f"{G}.calculus", "gradient_fd", (f"{G}.newton", f"{G}.rates")),
    Target(f"{G}.calculus", "hessian_fd", (f"{G}.newton", f"{G}.rates"), _by_size_family),
    Target(f"{G}.calculus", "taylor_remainder", (f"{G}.rates",)),
    Target(f"{G}.newton", "newton_run", (f"{G}.cli",), _by_newton_config),
    Target(f"{G}.newton", "solve_tangent_system"),
    Target(f"{G}.rates", "fit_loglog"),
    Target(f"{G}.rates", "fit_rows", (f"{G}.cli",)),
    Target(f"{G}.rates", "retraction_order_rows", (f"{G}.cli",)),
    Target(f"{G}.rates", "critical_residual_rows", (f"{G}.cli",)),
    Target(f"{G}.rates", "distance_deviation_rows", (f"{G}.cli",)),
    Target(f"{G}.rates", "taylor_remainder_rows", (f"{G}.cli",)),
    Target(f"{G}.rates", "rate_from_errors", (f"{G}.cli",)),
    Target(f"{G}.sampling", "seeded_instance", (f"{G}.cli",)),
    Target(f"{G}.reports:Report", "to_bytes", measure_bytes=True),
    Target(f"{G}.reports", "report_from_json", (f"{G}.cli",)),
    Target(f"{G}.cli", "run_experiment"),
)

# Run once per Newton iteration, so wrapping only these leaves a pass
# effectively untraced while still timing iterations and Hessians.
LIGHT_TARGETS = tuple(t for t in TARGETS if t.attr in ("newton_run", "hessian_fd"))

FD_SPANS = ("calculus.gradient_fd", "calculus.hessian_fd", "calculus.taylor_remainder")


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceBlindError(f"module {module_name} no longer exists") from exc
    if not cls:
        return module
    if not isinstance(module.__dict__.get(cls), type):
        raise TraceBlindError(f"class {owner} no longer exists")
    return module.__dict__[cls]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.bytes_out = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(_CLOCK())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _CLOCK()
        self._stack.pop()

    def _wrap(self, fn, target: Target):
        stack = self._stack
        fixed = None if target.variant else self._intern(target.name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(stack) == 1:  # outside any root span: the benchmark's own checks
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else self._intern(f"{target.name}[{target.variant(args)}]")
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if target.measure_bytes:
                self.bytes_out += len(result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span (one op, or set-up)."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == G or n.startswith(G + ".")]
        for target in self.targets:
            owner = _resolve(target.owner)
            original = owner.__dict__.get(target.attr)
            if original is None:
                raise TraceBlindError(f"{target.owner}.{target.attr} no longer exists")
            for site in target.sites:
                if getattr(_resolve(site), target.attr, None) is not original:
                    raise TraceBlindError(f"{site} no longer binds {target.owner}.{target.attr}")
            wrapped = self._wrap(original, target)
            holders = [owner] + [m for m in modules if m is not owner and m.__dict__.get(target.attr) is original]
            for holder in holders:
                setattr(holder, target.attr, wrapped)
                self._patched.append((holder, target.attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------------------
    # aggregation

    def totals(self, scale=None) -> tuple[dict[str, dict], dict[str, int]]:
        """Calls, inclusive and self seconds per span name (with and without
        its [variant]), and the probe and nesting counts that need the parent
        links. ``scale(start, end)``, if given, multiplies the durations of
        each root span and its subtree."""
        n = len(self.start)
        names = self.names
        base = [s.split("[")[0] for s in names]
        dur = [e - s for s, e in zip(self.start, self.end)]
        if scale is not None:
            factor = [1.0] * n
            for i in range(n):
                p = self.parent[i]
                factor[i] = scale(self.start[i], self.end[i]) if p < 0 else factor[p]
                dur[i] *= factor[i]
        child = [0.0] * n
        fd_anc = [-1] * n  # nearest enclosing finite-difference span
        in_newton = [False] * n
        in_inverse = [False] * n
        for i in range(n):
            p = self.parent[i]
            b = base[self.name[i]]
            if p >= 0:
                child[p] += dur[i]
                fd_anc[i], in_newton[i], in_inverse[i] = fd_anc[p], in_newton[p], in_inverse[p]
            if b in FD_SPANS:
                fd_anc[i] = i
            elif b == "newton.newton_run":
                in_newton[i] = True
            elif b == "retractions.inverse_retract":
                in_inverse[i] = True

        stats: dict[str, dict] = {}
        counts = {
            "probes": 0, "hessian_probes": 0, "newton_probes": 0,
            "newton_gradient_reads": 0, "inverse_retracts": 0,
        }
        for i in range(n):
            full = names[self.name[i]]
            b = base[self.name[i]]
            for key in {full, b}:
                s = stats.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                s["calls"] += 1
                s["incl_s"] += dur[i]
                s["self_s"] += dur[i] - child[i]
            if b == "objectives.value" and fd_anc[i] >= 0:
                counts["probes"] += 1
                if base[self.name[fd_anc[i]]] == "calculus.hessian_fd":
                    counts["hessian_probes"] += 1
                if in_newton[i]:
                    counts["newton_probes"] += 1
            elif b == "calculus.gradient_fd" and in_newton[i]:
                counts["newton_gradient_reads"] += 1
            elif b == "retractions.retract" and in_inverse[i]:
                counts["inverse_retracts"] += 1
        return stats, counts

    def layer_calls(self) -> dict[str, int]:
        calls: dict[str, int] = {}
        for nid in self.name:
            layer = self.names[nid].split(".")[0]
            calls[layer] = calls.get(layer, 0) + 1
        return calls

    def write(self, path: Path) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "l"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def require_layers(required, *tracers: Tracer) -> None:
    seen: dict[str, int] = {}
    for tracer in tracers:
        for layer, calls in tracer.layer_calls().items():
            seen[layer] = seen.get(layer, 0) + calls
    silent = [layer for layer in required if not seen.get(layer)]
    if silent:
        raise TraceBlindError(f"layers with no recorded calls: {', '.join(silent)}")
