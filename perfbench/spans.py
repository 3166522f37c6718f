"""Span tracing of cfkit's layers, installed from outside the package.

Each traced function is replaced by a wrapper at every binding it has in the
loaded ``cfkit`` modules (a name imported with ``from .core import ...`` is a
second binding of the same function object), so a call is counted whichever
module it goes through.  A wrapper records one span: wall time, and self time
(wall time minus the time of the spans it encloses).  Spans are aggregated in
memory by name; nothing is written while the benchmark runs.

Single-threaded by design: the benchmark drives cfkit with one worker.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  "a.B.c" attributes are methods of class B.
TARGETS = [
    ("cfkit.cli", "main", "cli.main"),
    ("cfkit.core", "effective_matrix", "core.effective_matrix"),
    ("cfkit.core", "sigma_para_opt", "core.sigma_para_opt"),
    ("cfkit.core", "sigma_succ_opt", "core.sigma_succ_opt"),
    ("cfkit.regions", "lu_mappings_all", "regions.lu_mappings_all"),
    ("cfkit.regions", "asc_region", "regions.asc_region"),
    ("cfkit.mac_opt", "successive_mac_assignment", "mac_opt.successive_mac_assignment"),
    ("cfkit.intsearch", "dominant_solution", "intsearch.dominant_solution"),
    ("cfkit._exact", "rows_independent", "exact.rows_independent"),
    ("cfkit._zp", "solve_mod_p", "zp.solve_mod_p"),
    ("cfkit._kernels", "nearest_codeword_point", "kernels.nearest_codeword_point"),
    ("cfkit.lattice", "nearest_point", "lattice.nearest_point"),
    ("cfkit.lattice", "linear_label", "lattice.linear_label"),
    ("cfkit.lattice", "NestedLatticeEnsemble.codeword_shifts", "lattice.codeword_shifts"),
    ("cfkit.simulator", "run_trials", "simulator.run_trials"),
    ("cfkit.simulator", "run_single_trial", "simulator.run_single_trial"),
    ("cfkit.simulator", "encode", "simulator.encode"),
    ("cfkit.simulator", "true_combinations", "simulator.true_combinations"),
    ("cfkit.simulator", "parallel_equalizers", "simulator.equalizers"),
    ("cfkit.simulator", "successive_equalizers", "simulator.equalizers"),
    ("cfkit.simulator", "decode_parallel", "simulator.decode_parallel"),
    ("cfkit.simulator", "decode_successive", "simulator.decode_successive"),
    ("cfkit.simulator", "zp_asc_matrix", "simulator.zp_asc_matrix"),
]

# Quantizer table sizes p^prefix of the benchmark's ensembles; kernel work is
# reported per size so that many tiny scans and few huge ones stay apart.
TABLE_SIZES = (1, 3, 9, 7, 2401, 16807)

_KERNEL = "kernels.nearest_codeword_point"
_MAC_STEP = "mac_opt.successive_mac_assignment"


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Aggregated spans plus the counters taken at the same boundaries."""

    stats: dict = field(default_factory=dict)
    rows_by_size: dict = field(default_factory=dict)   # table rows -> rows scanned
    calls_by_size: dict = field(default_factory=dict)  # table rows -> kernel calls
    bytes_by_size: dict = field(default_factory=dict)  # table rows -> rows * n * 8
    mac_accepted: int = 0
    bindings: int = 0  # bindings wrapped by the last install()
    _stack: list = field(default_factory=list)  # child time of each open span
    _patches: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dur - child
                if stack:
                    stack[-1] += dur
            if name == _KERNEL:
                self._count_kernel(args[0])
            elif name == _MAC_STEP and out:
                self.mac_accepted += 1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_kernel(self, shifts):
        rows, n = shifts.shape
        self.rows_by_size[rows] = self.rows_by_size.get(rows, 0) + rows
        self.calls_by_size[rows] = self.calls_by_size.get(rows, 0) + 1
        self.bytes_by_size[rows] = self.bytes_by_size.get(rows, 0) + rows * n * 8

    def install(self):
        """Wrap every target at every binding in the loaded cfkit modules:
        each module global that is the target's function object."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cfkit" or name.startswith("cfkit."))]
        for modname, attr, span in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self.wrap(span, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(span, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)
        self.bindings = len(self._patches)

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig, wrapper))

    def uninstall(self):
        for owner, key, orig, _ in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def spans_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())
