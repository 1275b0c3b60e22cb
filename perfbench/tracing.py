"""In-memory spans around calls into the public functions of each layer.

A :class:`Tracer` installs a profile hook (``sys.setprofile``) on the
calling thread.  The hook opens a span when a function named in a
module's ``__all__`` is entered and closes it when that frame returns,
so spans nest exactly as the program's own calls do.  The library is
not modified or patched; worker threads started by the program are not
hooked.  The benchmark also opens spans of its own with :meth:`span`.

Spans stay in memory until :meth:`dump` writes them out.  Some spans
carry counts derived from arguments or return values (matrix sizes,
component counts, trajectory-steps), recorded where the work happens.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time

LAYERS = ("matkit", "sysmodel", "systemfile", "wasserstein", "propagate",
          "stability", "mcsim")


def public_functions(package) -> dict:
    """Map the code object of every public function to ``layer.name``."""
    out = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out[obj.__code__] = f"{layer}.{name}"
    return out


def _on_call(name, frame):
    """Span name and counts known when a traced function is entered."""
    if name == "propagate.w2_trajectory":
        return f"{name}.{frame.f_locals['method']}", {}
    if name == "matkit.spectral_radius":
        dim = len(frame.f_locals["m"])
        return name, {f"{name}.dim": dim,
                      f"{name}.flops_computed": 10 * dim**3,
                      f"{name}.bytes_computed": 8 * dim**2}
    if name == "mcsim.simulate_ensemble":
        cfg = frame.f_locals["cfg"]
        return name, {"mcsim.traj_steps": cfg.trajectories * cfg.k_max}
    return name, {}


def _on_return(name, value, counts):
    if name == "propagate.mog_step" and value is not None:
        counts["propagate.mog_step.components"] = value.q
    elif name == "stability.general_test" and value is not None:
        counts["stability.general_test.horizon_used"] = value.horizon_used


class Tracer:
    """Collects spans ``[id, parent, call_id, name, start, end, counts]``."""

    def __init__(self, targets: dict):
        self._targets = targets
        self._stack = []          # (frame or None, span)
        self.spans = []
        self.call_id = None

    def _open(self, name, frame, counts):
        parent = self._stack[-1][1][0] if self._stack else None
        span = [len(self.spans), parent, self.call_id, name,
                time.perf_counter(), None, counts]
        self.spans.append(span)
        self._stack.append((frame, span))

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self._targets.get(frame.f_code)
            if name is not None:
                span_name, counts = _on_call(name, frame)
                self._open(span_name, frame, counts)
        elif event == "return" and self._stack and self._stack[-1][0] is frame:
            _, span = self._stack.pop()
            span[5] = time.perf_counter()
            _on_return(self._targets[frame.f_code], arg, span[6])

    @contextlib.contextmanager
    def span(self, name, call_id=None, hook=True):
        """A benchmark-side span; with ``hook`` the library's calls nest in it."""
        if call_id is not None:
            self.call_id = call_id
        self._open(name, None, {})
        if hook:
            sys.setprofile(self._hook)
        try:
            yield
        finally:
            if hook:
                sys.setprofile(None)
            _, span = self._stack.pop()
            span[5] = time.perf_counter()

    def self_times(self) -> dict:
        """Span name -> total self time (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        out = {}
        for s, c in zip(self.spans, child):
            out[s[3]] = out.get(s[3], 0.0) + (s[5] - s[4]) - c
        return out

    def counts(self) -> dict:
        """Totals of every span count; ``*.dim`` counts keep their maximum."""
        out = {}
        for s in self.spans:
            for key, value in s[6].items():
                if key.endswith(".dim"):
                    out[key] = max(out.get(key, 0), value)
                else:
                    out[key] = out.get(key, 0) + value
        return out

    def roots(self):
        return [s for s in self.spans if s[1] is None]

    def dump(self, path):
        keys = ("id", "parent", "call_id", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)
