"""Spans and counters around frobkit's public entry points, from outside.

``Tracer.install()`` replaces the functions and methods listed in ``SPANS``
and ``COUNTS`` with wrappers.  A module-level function is replaced under
every name it is bound to in a loaded ``frobkit`` module (so
``frobkit.cli.gc_check`` is traced as well as ``frobkit.unfold.gc_check``);
a method is replaced on its class.  ``uninstall()`` puts the originals back.

* A span records its name, start, end (``perf_counter_ns``) and the index of
  the span that was open when it started.  Spans stay in memory until
  ``dump``.  The self time of a span is its duration minus the time covered
  by its direct child spans.
* High-frequency ``TruncSeries`` and ``GradedPiece`` operations are counted
  but not timed; their time lands in the self time of the span around them.

``metrics()`` folds the spans and counters into the per-layer metrics that
``BENCHMARK.json`` lists under ``per_layer``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types

# Timed entry points, as (module, qualified name).  Everything here is
# called at most a few thousand times per job.
SPANS = [
    ("series", "SeriesMatrix.__add__"),
    ("series", "SeriesMatrix.__sub__"),
    ("series", "SeriesMatrix.__neg__"),
    ("series", "SeriesMatrix.__matmul__"),
    ("series", "SeriesMatrix.scale"),
    ("series", "SeriesMatrix.scale_series"),
    ("series", "SeriesMatrix.commutator"),
    ("series", "SeriesMatrix.transpose"),
    ("series", "SeriesMatrix.partial"),
    ("series", "SeriesMatrix.mul_var"),
    ("series", "SeriesMatrix.restrict_zero"),
    ("series", "SeriesMatrix.extend"),
    ("series", "SeriesMatrix.truncate"),
    ("series", "SeriesMatrix.graded_part"),
    ("series", "SeriesMatrix.compose"),
    ("series", "SeriesMatrix.conjugate_const"),
    ("series", "SeriesMatrix.solve_series"),
    ("series", "SeriesMatrix.inverse_series"),
    ("series", "SeriesMatrix.at_origin"),
    ("series", "SeriesMatrix.to_json"),
    ("series", "SeriesMatrix.from_json"),
    ("series", "euler_integrate"),
    ("linalg", "Echelon.insert"),
    ("linalg", "mat_mul"),
    ("linalg", "mat_inverse"),
    ("linalg", "mat_rank"),
    ("linalg", "nullspace"),
    ("jacobi", "build_jacobi"),
    ("jacobi", "JacobiAlgebra.__init__"),
    ("jacobi", "JacobiAlgebra.report"),
    ("jacobi", "h2_generation_check"),
    ("jacobi", "JacobiFamily.__init__"),
    ("jacobi", "JacobiFamily.mult_matrix"),
    ("structures", "check_ftype_axioms"),
    ("structures", "check_filtration"),
    ("structures", "ftype_to_filtration"),
    ("structures", "filtration_to_ftype"),
    ("structures", "shift_example"),
    ("structures", "jacobi_to_filtration"),
    ("pencil", "flatness_residual"),
    ("pencil", "potential_matrix"),
    ("pencil", "reduced_flatness_check"),
    ("pencil", "pairing_extension_check"),
    ("pencil", "structure_connection"),
    ("pencil", "pencil_to_ftype"),
    ("unfold", "gc_check"),
    ("unfold", "ic_check"),
    ("unfold", "solve"),
    ("unfold", "universal_unfold"),
    ("germ", "InitialData.create"),
    ("germ", "initial_from_filtration"),
    ("germ", "invert_map"),
    ("germ", "wdvv_check"),
    ("germ", "euler_check"),
    ("germ", "potential_integrate"),
    ("germ", "frobenius_via_unfolding"),
    ("germ", "h2_reconstruct"),
    ("germ", "germ_to_ftype"),
    ("germ", "normalize_germ"),
    ("germ", "compare_germs"),
    ("cli", "_emit"),
]

# Counted, not timed: (module, qualified name, counter).
COUNTS = [
    ("series", "TruncSeries.__init__", "series.init_calls"),
    ("series", "TruncSeries.__mul__", "series.mul_calls"),
    ("series", "TruncSeries.__add__", "series.add_calls"),
    ("series", "TruncSeries.constant_term", "series.constant_term_calls"),
    ("jacobi", "GradedPiece.nf_key", "jacobi.nf_key_calls"),
]

# Self time metrics: metric -> span names whose self time it sums.  The
# module totals (series.self_s, linalg.self_s) sum every span of the module.
SELF_TIMES = {
    "series.at_origin_s": ["series.SeriesMatrix.at_origin"],
    "jacobi.build_s": ["jacobi.build_jacobi", "jacobi.JacobiAlgebra.__init__"],
    "jacobi.h2_check_s": ["jacobi.h2_generation_check"],
    "jacobi.family_s": ["jacobi.JacobiFamily.mult_matrix"],
    "structures.jacobi_to_filtration_s": ["structures.jacobi_to_filtration"],
    "structures.check_filtration_s": ["structures.check_filtration"],
    "pencil.structure_connection_s": ["pencil.structure_connection"],
    "pencil.flatness_residual_s": ["pencil.flatness_residual"],
    "pencil.potential_matrix_s": ["pencil.potential_matrix"],
    "unfold.universal_unfold_s": ["unfold.universal_unfold"],
    "unfold.solve_s": ["unfold.solve"],
    "unfold.gc_check_s": ["unfold.gc_check"],
    "germ.via_unfolding_s": ["germ.frobenius_via_unfolding"],
    "germ.h2_reconstruct_s": ["germ.h2_reconstruct"],
    "germ.wdvv_check_s": ["germ.wdvv_check"],
    "germ.euler_check_s": ["germ.euler_check"],
    "germ.potential_integrate_s": ["germ.potential_integrate"],
    "germ.invert_map_s": ["germ.invert_map"],
    "cli.validate_s": ["cli.validate"],
    "cli.emit_s": ["cli._emit"],
}
MODULE_SELF_TIMES = {"series.self_s": "series.", "linalg.self_s": "linalg."}
SPAN_CALLS = {
    "series.matmul_calls": "series.SeriesMatrix.__matmul__",
    "series.inverse_series_calls": "series.SeriesMatrix.inverse_series",
    "linalg.echelon_inserts": "linalg.Echelon.insert",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {
            "series.matrix_entries": 0,
            "jacobi.piece_builds": 0,
            "jacobi.piece_monomials": 0,
            "jacobi.pieces_echelon": 0,
            "linalg.echelon_useful": 0,
            "cli.report_bytes": 0,
        }
        for _, _, counter in COUNTS:
            self.counts[counter] = 0
        self.self_ns: dict = {}
        self.calls: dict = {}
        self._stack: list = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        self_ns, calls = self.self_ns, self.calls
        self_ns.setdefault(name, 0)
        calls.setdefault(name, 0)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name, start, end, parent)
                self_ns[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace(self, module, qualname, make):
        """Replace a function or method (and its aliases) by make(orig)."""
        mod = importlib.import_module("frobkit." + module)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                self._set(cls, attr, property(make(orig.fget)))
                return
            if isinstance(orig, classmethod):
                self._set(cls, attr, classmethod(make(orig.__func__)))
                return
            new = make(orig)
            for alias, value in list(vars(cls).items()):
                if value is orig:
                    self._set(cls, alias, new)
            return
        orig = getattr(mod, qualname)
        new = make(orig)
        for name, loaded in list(sys.modules.items()):
            if name != "frobkit" and not name.startswith("frobkit."):
                continue
            for alias, value in list(vars(loaded).items()):
                if value is orig:
                    self._set(loaded, alias, new)

    def _observed(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def install(self):
        counts = self.counts

        def piece_built(args, _):
            piece = args[0]
            counts["jacobi.piece_builds"] += 1
            counts["jacobi.piece_monomials"] += len(piece.monomials)
            counts["jacobi.pieces_echelon"] += piece._uf is None

        def matrix_built(args, _):
            counts["series.matrix_entries"] += args[0].rows * args[0].cols

        def echelon_insert(_, grew):
            counts["linalg.echelon_useful"] += bool(grew)

        def emitted(args, _):
            path = os.path.join(args[0], "report.json")
            counts["cli.report_bytes"] += os.path.getsize(path)

        self._replace("jacobi", "GradedPiece.__init__",
                      lambda fn: self._observed(fn, piece_built))
        self._replace("series", "SeriesMatrix.__init__",
                      lambda fn: self._observed(fn, matrix_built))
        for module, qualname, counter in COUNTS:
            self._replace(module, qualname,
                          lambda fn, c=counter: self._counted(c, fn))
        afters = {"linalg.Echelon.insert": echelon_insert,
                  "cli._emit": emitted}
        for module, qualname in SPANS:
            name = "%s.%s" % (module, qualname)
            self._replace(module, qualname,
                          lambda fn, n=name: self._timed(n, fn,
                                                         afters.get(n)))
        cli = importlib.import_module("frobkit.cli")
        schema = cli.jsonschema
        self._set(cli, "jsonschema", types.SimpleNamespace(
            validate=self._timed("cli.validate", schema.validate),
            ValidationError=schema.ValidationError))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self.self_ns.get(n, 0) for n in names) / 1e9
        for metric, prefix in MODULE_SELF_TIMES.items():
            out[metric] = sum(v for n, v in self.self_ns.items()
                              if n.startswith(prefix)) / 1e9
        for metric, name in SPAN_CALLS.items():
            out[metric] = self.calls.get(name, 0)
        counts = self.counts
        for _, _, counter in COUNTS:
            out[counter] = counts[counter]
        for key in ("series.matrix_entries", "jacobi.piece_builds",
                    "jacobi.piece_monomials", "jacobi.pieces_echelon",
                    "cli.report_bytes"):
            out[key] = counts[key]
        inserts = out["linalg.echelon_inserts"]
        out["linalg.echelon_useful_ratio"] = (
            counts["linalg.echelon_useful"] / inserts if inserts else 0.0)
        return out

    def dump(self, path):
        """Write the spans as JSON: [name, start_ns, end_ns, parent]."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_ns": self.self_ns,
                       "calls": self.calls, "counts": self.counts}, fh)
