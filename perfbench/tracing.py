"""Per-layer tracing by wrapping the public functions of the dynirf modules.

The wrapper of a function replaces it in its defining module and in every
dynirf module that imported it by name, so calls made through either name
are seen.  Each wrapped call is one span; spans nest through a stack, and a
span's self time is its duration minus the time its child spans cover.
Spans are aggregated in memory (per function, and per caller -> callee
edge) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

import numpy as np

MODULES = (
    "special",
    "params",
    "weights",
    "oracle",
    "symfunc",
    "identities",
    "samplers",
    "observables",
    "asymptotics",
    "cli",
)


def _theta_scalar_calls(args, kwargs, result):
    z = args[0] if args else kwargs.get("z")
    return int(np.ndim(z) == 0)


# Work counts taken at a layer boundary: "<module>.<function>.<quantity>".
QUANTITIES = {
    "special.theta": {"scalar_calls": _theta_scalar_calls},
    "samplers.uniform_hash": {"values": lambda a, k, r: int(np.size(r))},
    "samplers.sample_irf_batch": {"trajectories": lambda a, k, r: int(r["vout"].shape[0])},
    "samplers.exclusion_farm": {"trajectories": lambda a, k, r: int(r.shape[0])},
    "samplers.simulate_exclusion": {"events": lambda a, k, r: len(r.events)},
    "samplers.enumerate_heights": {"states": lambda a, k, r: len(r)},
}


class Tracer:
    """Wraps the public functions of the dynirf modules and aggregates spans."""

    def __init__(self):
        self.functions: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = {}  # (caller, callee) -> [calls, total_s]
        self.counts: dict[str, int] = {}
        self.errors = {m: 0 for m in MODULES}
        self._stack: list = []
        self._originals: list = []

    def install(self) -> None:
        modules = {m: importlib.import_module(f"dynirf.{m}") for m in MODULES}
        importers = list(modules.values()) + [importlib.import_module("dynirf")]
        for mname, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(mname, fname, fn)
                for other in importers:
                    if vars(other).get(fname) is fn:
                        self._originals.append((other, fname, fn))
                        setattr(other, fname, wrapped)

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._originals):
            setattr(mod, fname, fn)
        self._originals.clear()

    def _wrap(self, mname: str, fname: str, fn):
        key = f"{mname}.{fname}"
        stats = self.functions.setdefault(key, [0, 0.0, 0.0])
        quantities = QUANTITIES.get(key, {})
        stack, edges, counts, errors = self._stack, self.edges, self.counts, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            caller = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[mname] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                edge = edges.get((caller, key))
                if edge is None:
                    edges[(caller, key)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
            for qname, fq in quantities.items():
                cname = f"{key}.{qname}"
                counts[cname] = counts.get(cname, 0) + fq(args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Flat per-layer metrics: calls, self_s, work counts and errors."""
        out = {}
        for key, (calls, _total, self_s) in self.functions.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = self_s
        out.update(self.counts)
        for mname, n in self.errors.items():
            out[f"{mname}.errors"] = n
        return out

    def dump(self, path) -> None:
        """Write the aggregated spans (functions and call edges) as JSON."""
        doc = {
            "functions": {
                k: {"calls": c, "total_s": t, "self_s": s}
                for k, (c, t, s) in sorted(self.functions.items())
                if c
            },
            "edges": [
                {"caller": a, "callee": b, "calls": c, "total_s": t}
                for (a, b), (c, t) in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
            ],
            "counts": dict(sorted(self.counts.items())),
            "errors": self.errors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
