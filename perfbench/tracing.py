"""Per-layer spans of loopstatics, recorded from outside the program.

`Tracer.install` puts a timing wrapper in place of every public function
of the package's modules, at each place a caller looks the name up: the
module globals that hold it (the defining module and every module that
imported it), `AnalysisReport.to_json` on its class, and `numpy.linalg.svd`
on numpy's module.  `uninstall` puts the originals back, so untraced passes
run the program unchanged.  Spans stay in memory and are written out once,
when the worker ends.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import types
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# Per-pass figures read from the spans and counters; every one is reported
# on every workload (0 where the layer is not used).
TIMES = {
    "document.load_structure_s": ("document.load_structure", "total"),
    "document.parse_state_s": ("document.parse_state", "total"),
    "cycles.spanning_tree_s": ("cycles.spanning_tree", "total"),
    "cycles.fundamental_cycles_s": ("cycles.fundamental_cycles", "total"),
    "selfstress.all_bar_resultants_s": ("selfstress.all_bar_resultants", "total"),
    "selfstress.check_axial_s": ("selfstress.check_axial", "total"),
    "statics.equilibrium_matrix_s": ("statics.equilibrium_matrix", "total"),
    "statics.analyze_statics_s": ("statics.analyze_statics", "total"),
    "statics.axial_to_state_s": ("statics.axial_to_state", "total"),
    "structures.prism_critical_twist_s": ("structures.prism_critical_twist", "total"),
    "report.build_report_s": ("report.build_report", "self"),
    "report.to_json_s": ("report.to_json", "total"),
    "diagrams.realize_state_s": ("diagrams.realize_state", "self"),
    "diagrams.export_diagrams_s": ("diagrams.export_diagrams", "total"),
    "synthesis.triangle_for_axial_s": ("synthesis.triangle_for_axial", "total"),
    "synthesis.synthesize_chain_s": ("synthesis.synthesize_chain", "total"),
    "synthesis.merge_chain_s": ("synthesis.merge_chain", "total"),
}
CALLS = {
    "cycles.cycle_membership_calls": "cycles.cycle_membership",
    "selfstress.bar_resultant_calls": "selfstress.bar_resultant",
    "statics.equilibrium_matrix_calls": "statics.equilibrium_matrix",
    "statics.svd_calls": "numpy.linalg.svd",
}
COUNTERS = {
    "statics.matrix_bytes": "matrix_bytes",
    "report.json_bytes": "json_bytes",
    "diagrams.mesh_bytes": "mesh_bytes",
    "diagrams.fallback_loops": "fallback_loops",
}
CLI_COMMANDS = ("axial", "check", "export", "gen")


class Tracer:
    def __init__(self, package, report_class, linalg):
        self._modules = [
            m for m in (package, *vars(package).values())
            if isinstance(m, types.ModuleType) and m.__name__.startswith(package.__name__)
        ]
        self._report_class = report_class
        self._linalg = linalg
        self._patches = []
        self._stack = []
        self.records = []  # (pass, span id, parent id, name, start, end)
        self._pass = None
        self._ids = itertools.count()
        self.counters = Counter()
        self.largest_report = None
        self._largest_bytes = -1
        self._hooks = {
            "cycles.cycle_membership": self._count_membership,
            "statics.equilibrium_matrix": self._count_matrix,
            "report.to_json": self._count_json,
            "diagrams.realize_state": self._count_fallbacks,
            "diagrams.export_diagrams": self._count_mesh,
        }

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        span = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.records.append((self._pass, span, parent, name, start, end))
        hook = self._hooks.get(name)
        if hook:
            hook(args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, pass_no):
        self._pass = pass_no
        self.counters = Counter()
        wrappers = {}
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType) and not obj.__name__.startswith("_")
                        and obj.__module__.startswith(self._modules[0].__name__ + ".")):
                    if obj not in wrappers:
                        layer = obj.__module__.rsplit(".", 1)[1]
                        wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                    self._patch(module, attr, wrappers[obj])
        self._patch(self._report_class, "to_json",
                    self._wrap("report.to_json", self._report_class.to_json))
        self._patch(self._linalg, "svd", self._wrap("numpy.linalg.svd", self._linalg.svd))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters at layer boundaries -----------------------------------------

    def _count_membership(self, args, kwargs, result):
        basis = args[1] if len(args) > 1 else kwargs["basis"]
        self.counters["loops_scanned"] += len(basis)
        self.counters["loops_hit"] += len(result)

    def _count_matrix(self, args, kwargs, result):
        self.counters["matrix_bytes"] += result.matrix.nbytes

    def _count_json(self, args, kwargs, result):
        self.counters["json_bytes"] += len(result.encode())
        if len(result) > self._largest_bytes:
            self._largest_bytes = len(result)
            self.largest_report = args[0]

    def _count_fallbacks(self, args, kwargs, result):
        self.counters["fallback_loops"] += len(result.fallbacks)

    def _count_mesh(self, args, kwargs, result):
        self.counters["mesh_bytes"] += sum(os.path.getsize(p) for p in result)

    # -- per-pass figures ------------------------------------------------------

    def pass_metrics(self, pass_no) -> dict:
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        children = defaultdict(float)
        spans = [r for r in self.records if r[0] == pass_no]
        for _, _, parent, _, start, end in spans:
            children[parent] += end - start
        cli = defaultdict(list)
        for _, span, _, name, start, end in spans:
            total[name] += end - start
            own[name] += end - start - children[span]
            calls[name] += 1
            if name.startswith("cli."):
                cli[name[4:]].append(end - start)
        figures = {"total": total, "self": own}
        out = {metric: figures[kind][name] for metric, (name, kind) in TIMES.items()}
        out.update({metric: calls[name] for metric, name in CALLS.items()})
        out.update({metric: self.counters[key] for metric, key in COUNTERS.items()})
        scanned = self.counters["loops_scanned"]
        hits = self.counters["loops_hit"]
        out["selfstress.membership_hit_ratio"] = hits / scanned if scanned else 0.0
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_s"] = statistics.median(cli[cmd]) if cli[cmd] else 0.0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for pass_no, span, parent, name, start, end in self.records:
                fh.write(json.dumps({"pass": pass_no, "span": span, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
