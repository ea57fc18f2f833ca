"""Batch command line: scenario payloads in, certified reports out.

Every command reads one JSON payload, validates it against a schema,
computes, and writes a machine-readable ``report.json`` plus a short
``summary.txt`` into the output directory (atomically).  Exit status 0
means every requested certification passed, 1 means a certification
failed (the report names the violated identities), 2 means the payload
did not validate (against its schema, or a series, a polynomial, a germ's
Euler data, a matrix shape or a count of matrices or levels in it is
malformed), 3 means an internal invariant broke (an ``AssertionError`` or
``SeriesError`` inside the computation; the report names the exception
under ``error`` and ``error_type``).  A report's failed identities, like the ``violations``
of a rejection's ``detail``, are lists of ``structures.violation``
records ``{"check", "indices", "residual"}``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from fractions import Fraction

import click
import jsonschema

from .germ import (FrobeniusGermData, InitialData, compare_germs,
                   euler_check, frobenius_via_unfolding, h2_reconstruct,
                   initial_from_filtration, normalize_germ, wdvv_check)
from .jacobi import (NotIsolatedError, WeightSystem, XPoly, build_jacobi,
                     h2_generation_check)
from .pencil import (ConnectionPencil, PairingMatrix, flatness_residual,
                     pairing_extension_check, reduced_flatness_check,
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


def _square(rows, n, what):
    """Return a payload matrix after checking that it is n x n."""
    if len(rows) != n or any(len(row) != n for row in rows):
        raise PayloadError("%s must be a %d x %d matrix" % (what, n, n))
    return rows


def _count(items, n, what):
    """Return a payload list after checking that it has n entries."""
    if len(items) != n:
        raise PayloadError("%s must have %d entries" % (what, n))
    return items


def _square_series(mats, n, what):
    """Check that each series-matrix JSON in mats is n x n, by its rows
    and cols and by its entries."""
    for m in mats:
        if (m.get("rows"), m.get("cols")) != (n, n):
            raise PayloadError("%s must be %d x %d" % (what, n, n))
        _square(m.get("entries", []), n, what)


def _zeta(values, n):
    """Parse a payload's distinguished vector, which must have n entries."""
    return [frac_from_str(c) for c in _count(values, n, "zeta")]


def _ftype(obj) -> FrobeniusTypeStructure:
    """Parse a Frobenius type structure after checking its shapes: one
    Higgs matrix per base coordinate, and every matrix rank x rank."""
    n = obj["rank"]
    _square_series(_count(obj["higgs"], len(obj["vars"]), "higgs"), n,
                   "higgs")
    _square_series([obj["u_endo"]], n, "u_endo")
    for key in ("v_endo", "pairing"):
        _square(obj[key], n, key)
    return FrobeniusTypeStructure.from_json(obj)


def _pencil(obj) -> ConnectionPencil:
    """Parse a connection pencil after checking its shapes: one C block per
    t variable, one F block per y variable, and every block rank x rank."""
    n = obj["rank"]
    _square_series(_count(obj["C"], len(obj["t_vars"]), "C"), n, "C")
    _square_series(_count(obj["F"], len(obj["y_vars"]), "F"), n, "F")
    for key in ("U", "V", "W"):
        _square_series([obj[key]], n, key)
    return ConnectionPencil.from_json(obj)


def _pairing(obj, n) -> PairingMatrix:
    """Parse a pairing after checking that every z-coefficient is n x n."""
    _square_series(obj["coeffs"], n, "pairing coeffs")
    return PairingMatrix.from_json(obj)


def _load_algebra(payload):
    """Parse a polynomial payload (one weight in (0, 1/2] per variable,
    exponents of length num_vars) before building its Jacobi algebra."""
    n = payload["num_vars"]
    weights = _count(payload["weights"], n, "weights")
    try:
        ws = WeightSystem([frac_from_str(w) for w in weights])
        f = XPoly.from_json(n, payload["terms"])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise PayloadError("polynomial: %s" % exc) from exc
    return build_jacobi(f, ws)


def _germ(obj) -> FrobeniusGermData:
    """Parse a germ, which must carry Euler data in one of its two forms."""
    if not (obj.get("euler_degrees") or obj.get("euler_coords")):
        raise PayloadError("germ needs euler_degrees or euler_coords")
    return FrobeniusGermData.from_json(obj)


def _parse_filtration_payload(initial, order):
    kind = initial["kind"]
    if kind == "ftype":
        F = _ftype(initial["ftype"])
        zeta = _zeta(initial["zeta"], F.n) if "zeta" in initial else None
        return InitialData.create(F, zeta=zeta,
                                  weight=initial.get("weight"))
    if kind == "filtration":
        obj = initial["filtration"]
        n = obj["rank"]
        _count(obj["levels"], n, "levels")
        _square_series(_count(obj["gamma"], len(obj["vars"]), "gamma"), n,
                       "gamma")
        if obj.get("pairing") is not None:
            _square(obj["pairing"], n, "pairing")
        return initial_from_filtration(FiltrationData.from_json(obj))
    if kind == "shift-example":
        from .structures import shift_example
        w = initial["weight"]
        bs = [_series(b) for b in initial.get("b", [])]
        return initial_from_filtration(shift_example(w, bs, order=order))
    if kind == "jacobi":
        algebra = _load_algebra(initial["polynomial"])
        S = None
        if "pairing" in initial:
            S = [[frac_from_str(c) for c in row] for row in
                 _square(initial["pairing"], algebra.milnor, "pairing")]
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
    F = _ftype(payload)
    viol = check_ftype_axioms(F)
    report = {"violations": viol}
    lines = ["axioms hold" if not viol else
             "violated: %s" % sorted({v["check"] for v in viol})]
    return report, lines, not viol


def _run_structure_connection(payload, order, z_order, trace, both):
    F = _ftype(payload["ftype"])
    P, R = structure_connection(F, payload["weight"], z_order=z_order)
    report = {"pencil": P.to_json(), "pairing": R.to_json()}
    lines = ["structure connection of rank %d built and certified flat"
             % P.n]
    return report, lines, True


def _run_unfold(payload, order, z_order, trace, both):
    base = _pencil(payload["pencil"])
    vars = base.t_vars + tuple(payload["y_vars"])
    f = [_series(s, vars) for s in _count(payload["f"], base.n, "f")]
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
    base = _pencil(payload["pencil"])
    zeta = _zeta(payload["zeta"], base.n) if "zeta" in payload else None
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
    P = _pencil(payload["pencil"])
    R0 = _pairing(payload["pairing"], P.n)
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
            "diffs": [d["check"] for d in cmp["diffs"]],
        }
        lines.append("both construction paths agree: %s" % cmp["equal"])
        ok = cmp["equal"]
    # both constructors certify their germ (``germ._assert_clean``) with
    # the same checks, so a germ that reaches here has no violations
    report["wdvv_violations"] = []
    report["euler_violations"] = []
    lines += ["multiplication axioms: pass", "scaling axioms: pass"]
    return report, lines, ok


def _run_wdvv(payload, order, z_order, trace, both):
    germ = _germ(payload)
    viol = wdvv_check(germ)
    eviol = euler_check(germ) if germ.degrees is not None else []
    report = {"wdvv_violations": viol, "euler_violations": eviol}
    ok = not viol and not eviol
    lines = ["multiplication axioms: %s" % ("pass" if not viol else "FAIL")]
    if eviol:
        lines.append("grading violations: %d" % len(eviol))
    return report, lines, ok


def _run_compare(payload, order, z_order, trace, both):
    left = _germ(payload["left"])
    right = _germ(payload["right"])
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
