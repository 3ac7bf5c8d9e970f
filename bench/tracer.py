"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into pdcfield's public functions by
replacing each function with a wrapper wherever its caller looks the
name up: every ``pdcfield`` module that binds the same object (so
``pdcfield.fitting.stimulated_intensity`` is patched, not only the
definition in ``pdcfield.stimulated``), or the class attribute for
methods.  Nothing under ``src/`` is edited, and the originals are put
back when the patch context ends, so untraced operations in the same
process run the plain code.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span in Tracer.spans
    op: str              # operation id: "setup" or the operation number
    count: float = 0.0   # work counted at this boundary (pixels, flops, bytes, ...)


def _pixels(args, kwargs, result):
    return float(np.prod(np.shape(args[1])[:-1]))


def _rk4_flops(args, kwargs, result):
    # 8 complex matmuls per RK4 step and block, 8 d^3 real flops each
    return float(result.info["steps"] * 64 * sum(d**3 for d in result.info["blocks"]))


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(result))


def _iterations(args, kwargs, result):
    return float(result.iterations)


def traced_functions():
    """(span name, defining module or class, attribute, count hook)."""
    from pdcfield import (background, cli, config, fitting, kernels, oracle,
                          plotio, stimulated, validate)

    targets = [
        ("config.load_config_file", config, "load_config_file", None),
        ("config.with_overrides", config, "with_overrides", None),
        ("kernels.FieldKernels", kernels, "FieldKernels", None),
        ("kernels.thin_crystal_uv", kernels.FieldKernels, "thin_crystal_uv", None),
        ("stimulated.stimulated_intensity", stimulated, "stimulated_intensity", _pixels),
        ("stimulated.zeta_orders", stimulated, "zeta_orders", None),
        ("background.background_intensity", background, "background_intensity", None),
        ("fitting.fit_parameters", fitting, "fit_parameters", _iterations),
        ("fitting.ForwardModel.intensity", fitting.ForwardModel, "intensity", None),
        ("fitting.synthesize_image", fitting, "synthesize_image", None),
        ("plotio.write_csv", plotio, "write_csv", _file_bytes),
        ("plotio.read_csv", plotio, "read_csv", None),
        ("cli.cmd_image", cli, "cmd_image", None),
        ("cli.cmd_fit", cli, "cmd_fit", None),
        ("oracle.GridOperators", oracle, "GridOperators", None),
        ("oracle.square_grid_blocks", oracle, "square_grid_blocks", None),
        ("oracle.GridWorkspace", oracle, "GridWorkspace", None),
        ("oracle.solve_UV_ode", oracle, "solve_UV_ode", _rk4_flops),
        ("oracle.series_UV", oracle, "series_UV", None),
        ("oracle.oracle_zeta2", oracle, "oracle_zeta2", None),
        ("oracle.oracle_background", oracle, "oracle_background", None),
        ("oracle.hyperbolic_matrix_uv", oracle, "hyperbolic_matrix_uv", None),
        ("oracle.hyperbolic_uv_subblock", oracle, "hyperbolic_uv_subblock", None),
    ]
    targets += [(f"validate.{name}", validate, name, None)
                for name in dir(validate) if name.startswith("check_")]
    return targets


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = "setup"

    def wrap(self, name, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = Span(name, time.perf_counter(), 0.0,
                       tracer._stack[-1] if tracer._stack else None, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                rec.count = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, op_id, fn):
        """Run one operation under a root span named ``op``."""
        self.op = str(op_id)
        try:
            return self.wrap("op", fn)()
        finally:
            self.op = "setup"

    @contextmanager
    def patched(self):
        saved = []
        try:
            for name, home, attr, count in traced_functions():
                original = getattr(home, attr)
                wrapper = self.wrap(name, original, count)
                if isinstance(home, type):
                    sites = [home]
                else:
                    sites = [mod for key, mod in list(sys.modules.items())
                             if key.split(".")[0] == "pdcfield"
                             and getattr(mod, attr, None) is original]
                for site in sites:
                    saved.append((site, attr, original))
                    setattr(site, attr, wrapper)
            yield self
        finally:
            for site, attr, original in reversed(saved):
                setattr(site, attr, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "self_s": st, "count": s.count}
            for s, st in zip(self.spans, selfs)
        ]
