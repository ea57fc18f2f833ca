"""Batch command line: scenario payloads in, certified reports out.

Every command reads one JSON payload, validates it against a schema,
computes, and writes a machine-readable ``report.json`` plus a short
``summary.txt`` into the output directory (atomically).  Exit status 0
means every requested certification passed, 1 means a certification
failed (the report names the violated identities), 2 means the payload
did not validate (against its schema, or a series in it is malformed), 3
means an internal invariant broke (an ``AssertionError`` or
``SeriesError`` inside the computation; the report names the exception
under ``error`` and ``error_type``).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from fractions import Fraction

import click
import jsonschema

from . import linalg
from .germ import (FrobeniusGermData, InitialData, compare_germs,
                   euler_check, frobenius_via_unfolding, h2_reconstruct,
                   initial_from_filtration, normalize_germ, wdvv_check)
from .jacobi import (JacobiAlgebra, NotIsolatedError, WeightSystem, XPoly,
                     build_jacobi, h2_generation_check)
from .pencil import (ConnectionPencil, PairingMatrix, flatness_residual,
                     pairing_extension_check, residual_report, reduced_flatness_check,
                     structure_connection)
from .series import SeriesError, TruncSeries, frac_from_str
from .structures import (FiltrationData, FrobeniusTypeStructure,
                         RejectionError, check_ftype_axioms,
                         jacobi_to_filtration)
from .unfold import UnfoldProblem, gc_check, ic_check, solve, universal_unfold

MATRIX = {"type": "array", "items": {"type": "array",
                                     "items": {"type": "string"}}}
SERIES = {
    "type": "object",
    "required": ["vars", "order", "terms"],
    "properties": {
        "vars": {"type": "array", "items": {"type": "string"}},
        "order": {"type": "integer", "minimum": 0},
        "terms": {"type": "array"},
    },
}
SERIES_MATRIX = {
    "type": "object",
    "required": ["rows", "cols", "vars", "order", "entries"],
}
POLYNOMIAL = {
    "type": "object",
    "required": ["num_vars", "weights", "terms"],
    "properties": {
        "num_vars": {"type": "integer", "minimum": 1},
        "weights": {"type": "array", "items": {"type": "string"}},
        "terms": {"type": "array"},
    },
}
FTYPE = {
    "type": "object",
    "required": ["vars", "rank", "order", "higgs", "u_endo", "v_endo",
                 "pairing"],
}
PENCIL = {
    "type": "object",
    "required": ["t_vars", "y_vars", "rank", "order", "C", "F", "U", "V",
                 "W"],
}
PAIRING = {"type": "object", "required": ["weight", "z_order", "coeffs"]}
GERM = {
    "type": "object",
    "required": ["coords", "rank", "order", "mult", "metric", "potential"],
}

SCHEMAS = {
    "jacobi": POLYNOMIAL,
    "h2check": POLYNOMIAL,
    "ftype-check": FTYPE,
    "structure-connection": {
        "type": "object",
        "required": ["ftype", "weight"],
        "properties": {"ftype": FTYPE, "weight": {"type": "integer"}},
    },
    "unfold": {
        "type": "object",
        "required": ["pencil", "y_vars", "f"],
        "properties": {
            "pencil": PENCIL,
            "y_vars": {"type": "array", "items": {"type": "string"}},
            "f": {"type": "array", "items": SERIES},
        },
    },
    "universal-unfold": {
        "type": "object",
        "required": ["pencil"],
        "properties": {
            "pencil": PENCIL,
            "zeta": {"type": "array", "items": {"type": "string"}},
        },
    },
    "pairing-extend": {
        "type": "object",
        "required": ["pencil", "pairing"],
        "properties": {"pencil": PENCIL, "pairing": PAIRING},
    },
    "reconstruct": {
        "type": "object",
        "required": ["initial"],
        "properties": {
            "initial": {
                "type": "object",
                "required": ["kind"],
                "properties": {"kind": {"enum": ["ftype", "filtration",
                                                 "shift-example",
                                                 "jacobi"]}},
            },
        },
    },
    "wdvv": GERM,
    "compare": {
        "type": "object",
        "required": ["left", "right"],
        "properties": {"left": GERM, "right": GERM},
    },
}


class CliFailure(Exception):
    """Certification failed; the report explains what."""


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(outdir, report, summary_lines):
    os.makedirs(outdir, exist_ok=True)
    _atomic_write(os.path.join(outdir, "report.json"),
                  json.dumps(report, indent=2, sort_keys=True) + "\n")
    _atomic_write(os.path.join(outdir, "summary.txt"),
                  "\n".join(summary_lines) + "\n")


class PayloadError(ValueError):
    """A payload that passed its schema holds a malformed value."""


def _series(obj, vars=None) -> TruncSeries:
    """Parse one series of a payload, extended to ``vars`` if given; a
    malformed one is a payload error, not a broken invariant of the
    computation."""
    try:
        s = TruncSeries.from_json(obj)
        return s if vars is None else s.extend(vars)
    except SeriesError as exc:
        raise PayloadError("series: %s" % exc) from exc


def _load_algebra(payload):
    ws = WeightSystem([frac_from_str(w) for w in payload["weights"]])
    f = XPoly.from_json(payload["num_vars"], payload["terms"])
    return build_jacobi(f, ws)


def _parse_filtration_payload(initial, order):
    kind = initial["kind"]
    if kind == "ftype":
        F = FrobeniusTypeStructure.from_json(initial["ftype"])
        zeta = ([frac_from_str(c) for c in initial["zeta"]]
                if "zeta" in initial else None)
        return InitialData.create(F, zeta=zeta,
                                  weight=initial.get("weight"))
    if kind == "filtration":
        return initial_from_filtration(
            FiltrationData.from_json(initial["filtration"]))
    if kind == "shift-example":
        from .structures import shift_example
        w = initial["weight"]
        bs = [_series(b) for b in initial.get("b", [])]
        return initial_from_filtration(shift_example(w, bs, order=order))
    if kind == "jacobi":
        algebra = _load_algebra(initial["polynomial"])
        S = None
        if "pairing" in initial:
            S = [[frac_from_str(c) for c in row]
                 for row in initial["pairing"]]
        D, _ = jacobi_to_filtration(algebra, S=S, order=order)
        return initial_from_filtration(D)
    raise RejectionError("unknown initial data kind %r" % kind)


def _run_jacobi(payload, order, z_order, trace, both):
    algebra = _load_algebra(payload)
    report = algebra.report()
    gen = h2_generation_check(algebra)
    report["generation"] = gen
    lines = ["milnor number: %d" % algebra.milnor,
             "integer-degree dimensions: %s" % report["integer_dims"],
             "generation passes: %s" % gen["passes"]]
    return report, lines, True


def _run_h2check(payload, order, z_order, trace, both):
    algebra = _load_algebra(payload)
    gen = h2_generation_check(algebra)
    report = {"milnor": algebra.milnor, "generation": gen}
    lines = ["generation passes: %s" % gen["passes"]]
    for q, c in sorted(gen["codimensions"].items()):
        lines.append("codimension at integer degree %d: %d" % (q, c))
    return report, lines, gen["passes"]


def _run_ftype_check(payload, order, z_order, trace, both):
    F = FrobeniusTypeStructure.from_json(payload)
    viol = check_ftype_axioms(F)
    report = {"violations": viol}
    lines = ["axioms hold" if not viol else
             "violated: %s" % sorted({v["check"] for v in viol})]
    return report, lines, not viol


def _run_structure_connection(payload, order, z_order, trace, both):
    F = FrobeniusTypeStructure.from_json(payload["ftype"])
    P, R = structure_connection(F, payload["weight"], z_order=z_order)
    report = {"pencil": P.to_json(), "pairing": R.to_json()}
    lines = ["structure connection of rank %d built and certified flat"
             % P.n]
    return report, lines, True


def _run_unfold(payload, order, z_order, trace, both):
    base = ConnectionPencil.from_json(payload["pencil"])
    vars = base.t_vars + tuple(payload["y_vars"])
    f = [_series(s, vars) for s in payload["f"]]
    problem = UnfoldProblem(base, tuple(payload["y_vars"]), f,
                            payload.get("order", order))
    tr = [] if trace else None
    out = solve(problem, trace=tr)
    res = flatness_residual(out)
    sab = reduced_flatness_check(out)
    report = {"pencil": out.to_json(),
              "flat": not res,
              "reduced": sab,
              "gc": gc_check(base).to_json(),
              "ic": ic_check(base)}
    if trace:
        report["trace"] = tr
    ok = (not res) and sab["passes"]
    lines = ["unfolding solved to order %d" % out.order,
             "flatness residuals empty: %s" % (not res),
             "reduced-set checks pass: %s" % sab["passes"]]
    return report, lines, ok


def _run_universal_unfold(payload, order, z_order, trace, both):
    base = ConnectionPencil.from_json(payload["pencil"])
    zeta = ([frac_from_str(c) for c in payload["zeta"]]
            if "zeta" in payload else None)
    res = universal_unfold(base, zeta=zeta)
    ok = res.jacobian_invertible()
    report = {
        "pencil": res.pencil.to_json(),
        "gc": res.gc.to_json(),
        "ic": res.ic,
        "chart_jacobian": [[str(c) for c in row] for row in res.jacobian],
        "chart_invertible": ok,
    }
    lines = ["unfolded to %d directions" % len(res.pencil.vars),
             "chart jacobian invertible: %s" % ok]
    return report, lines, ok


def _run_pairing_extend(payload, order, z_order, trace, both):
    P = ConnectionPencil.from_json(payload["pencil"])
    R0 = PairingMatrix.from_json(payload["pairing"])
    rep = pairing_extension_check(P, R0, z_order=z_order)
    report = dict(rep)
    if "pairing" in report:
        report["pairing"] = report["pairing"].to_json()
    lines = ["pairing extension certified: %s" % rep["passes"]]
    return report, lines, rep["passes"]


def _run_reconstruct(payload, order, z_order, trace, both):
    init = _parse_filtration_payload(payload["initial"], order)
    germ = frobenius_via_unfolding(init, order=order)
    report = {"germ": normalize_germ(germ).to_json(),
              "weight": init.weight}
    lines = ["germ of dimension %d synthesized" % germ.n]
    ok = True
    if both:
        other = h2_reconstruct(init, order=order)
        cmp = compare_germs(germ, other)
        report["germ_recursion"] = normalize_germ(other).to_json()
        report["two_path_comparison"] = {
            "equal": cmp["equal"],
            "diffs": [d.get("field") for d in cmp["diffs"]],
        }
        lines.append("both construction paths agree: %s" % cmp["equal"])
        ok = cmp["equal"]
    report["wdvv_violations"] = wdvv_check(germ)
    report["euler_violations"] = euler_check(germ, dconst=init.d_value)
    ok = ok and not report["wdvv_violations"] and not report["euler_violations"]
    lines.append("multiplication axioms: %s"
                 % ("pass" if not report["wdvv_violations"] else "FAIL"))
    lines.append("scaling axioms: %s"
                 % ("pass" if not report["euler_violations"] else "FAIL"))
    return report, lines, ok


def _run_wdvv(payload, order, z_order, trace, both):
    germ = FrobeniusGermData.from_json(payload)
    viol = wdvv_check(germ)
    eviol = euler_check(germ) if germ.degrees is not None else []
    report = {"wdvv_violations": viol, "euler_violations": eviol}
    ok = not viol and not eviol
    lines = ["multiplication axioms: %s" % ("pass" if not viol else "FAIL")]
    if eviol:
        lines.append("grading violations: %d" % len(eviol))
    return report, lines, ok


def _run_compare(payload, order, z_order, trace, both):
    left = FrobeniusGermData.from_json(payload["left"])
    right = FrobeniusGermData.from_json(payload["right"])
    cmp = compare_germs(left, right)
    lines = ["germs equal after normalization: %s" % cmp["equal"]]
    return cmp, lines, cmp["equal"]


RUNNERS = {
    "jacobi": _run_jacobi,
    "h2check": _run_h2check,
    "ftype-check": _run_ftype_check,
    "structure-connection": _run_structure_connection,
    "unfold": _run_unfold,
    "universal-unfold": _run_universal_unfold,
    "pairing-extend": _run_pairing_extend,
    "reconstruct": _run_reconstruct,
    "wdvv": _run_wdvv,
    "compare": _run_compare,
}


def _command(name):
    @click.command(name=name)
    @click.option("--input", "input_path", required=True,
                  type=click.Path(exists=True, dir_okay=False))
    @click.option("--output", "output_dir", required=True,
                  type=click.Path(file_okay=False))
    @click.option("--order", default=4, show_default=True,
                  help="total truncation order")
    @click.option("--z-order", default=4, show_default=True,
                  help="certified z-order for pairings")
    @click.option("--trace", is_flag=True,
                  help="emit per-degree intermediates where supported")
    @click.option("--both-paths", "both", is_flag=True,
                  help="run both germ constructors and compare")
    def cmd(input_path, output_dir, order, z_order, trace, both):
        with open(input_path) as fh:
            payload = json.load(fh)
        try:
            jsonschema.validate(payload, SCHEMAS[name])
        except jsonschema.ValidationError as exc:
            click.echo("payload does not match the %s schema: %s"
                       % (name, exc.message), err=True)
            sys.exit(2)
        meta = {"command": name, "order": order, "z_order": z_order}
        try:
            report, lines, ok = RUNNERS[name](payload, order, z_order,
                                              trace, both)
        except PayloadError as exc:
            click.echo("payload is malformed: %s" % exc, err=True)
            sys.exit(2)
        except (RejectionError, NotIsolatedError) as exc:
            report = {"error": str(exc)}
            if isinstance(exc, RejectionError):
                report["detail"] = _plain(exc.report)
            report.update(meta)
            report["ok"] = False
            _emit(output_dir, report, ["rejected: %s" % exc])
            sys.exit(1)
        except (AssertionError, SeriesError) as exc:
            report = {"error": str(exc), "error_type": type(exc).__name__}
            report.update(meta)
            report["ok"] = False
            _emit(output_dir, report, ["internal error: %s: %s"
                                       % (type(exc).__name__, exc)])
            sys.exit(3)
        report.update(meta)
        report["ok"] = ok
        _emit(output_dir, _plain(report), lines + ["ok: %s" % ok])
        sys.exit(0 if ok else 1)

    return cmd


def _plain(obj):
    """Make report values JSON-encodable (Fractions to strings)."""
    if isinstance(obj, Fraction):
        return "%d/%d" % (obj.numerator, obj.denominator)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


@click.group()
def main():
    """Exact construction and verification of Frobenius manifold germs."""


for _name in sorted(RUNNERS):
    main.add_command(_command(_name))


if __name__ == "__main__":
    main()
