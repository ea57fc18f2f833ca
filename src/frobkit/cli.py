"""Batch command line: scenario payloads in, certified reports out.

Every command reads one JSON payload, parses it, computes, and writes a
machine-readable ``report.json`` plus a short ``summary.txt`` into the
output directory (atomically).  Parsing checks the payload against its
schema and builds every payload object in ``_parse``; each constructor
checks the shape of what it builds.  Exit status 0 means every requested
certification passed, 1 means a certification failed (the report names
the violated identities), 2 means the payload does not parse, because a
key is missing, a value has the wrong type, length, shape or variables, or
a value that restates its data disagrees with it (an object's ``order``
above one of its series, a pairing's ``z_order``), or the command line
does not (nothing is written), 3 means an internal invariant broke (an
``AssertionError`` or ``SeriesError`` inside the computation; the report
names the exception under ``error`` and ``error_type``).  A report's
failed identities, like the ``violations`` of a rejection's ``detail``,
are lists of ``structures.violation`` records ``{"check", "indices",
"residual"}``, plus ``"lowest_degree"`` and ``"nterms"`` for a series or
matrix residual.
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
                     check_polynomial, h2_generation_check)
from .pencil import (ConnectionPencil, PairingMatrix, gc_check, ic_check,
                     pairing_extension_check, reduced_flatness_check,
                     structure_connection)
from .series import (MAX_INPUT_ORDER, SeriesError, TruncSeries, frac_from_str,
                     frac_to_str, require_int, require_order,
                     require_square)
from .structures import (FiltrationData, FrobeniusTypeStructure,
                         RejectionError, check_ftype_axioms,
                         jacobi_to_filtration, shift_example)
from .unfold import UnfoldProblem, solve, universal_unfold

SERIES = {
    "type": "object",
    "required": ["vars", "order", "terms"],
    "properties": {
        "vars": {"type": "array", "items": {"type": "string"}},
        "order": {"type": "integer", "minimum": 0},
        "terms": {"type": "array"},
    },
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


def _parse(build, *args):
    """Return ``build(*args)``, which builds payload objects.

    Every constructor checks the shape of what it builds, so an error
    raised while building means the payload is malformed (exit 2).  No
    computation runs here: its errors keep their own exit status.
    """
    try:
        return build(*args)
    except (KeyError, TypeError, ValueError, AttributeError,
            ZeroDivisionError) as exc:
        raise PayloadError("%s: %s" % (type(exc).__name__, exc)) from exc


def _orders(obj):
    """Every int under an "order" key of a payload, at any depth."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if (key == "order" and isinstance(value, int)
                    and not isinstance(value, bool)):
                yield value
            yield from _orders(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _orders(value)


def _vector(values, n):
    """The distinguished vector of a rank-n object, if given: n fractions."""
    if values is None:
        return None
    if len(values) != n:
        raise ValueError("zeta must have %d entries" % n)
    return [frac_from_str(c) for c in values]


def _polynomial(obj):
    """The polynomial and the weight system of a polynomial payload."""
    ws = WeightSystem([frac_from_str(w) for w in obj["weights"]])
    f = XPoly.from_json(obj["num_vars"], obj["terms"])
    check_polynomial(f, ws)
    return f, ws


def _initial_data(initial, order):
    kind = initial["kind"]
    if kind == "ftype":
        F = _parse(lambda: FrobeniusTypeStructure.from_json(initial["ftype"]))
        zeta = _parse(_vector, initial.get("zeta"), F.n)
        w = initial.get("weight")
        w = w if w is None else _parse(require_int, "weight", w)
        return InitialData.create(F, zeta=zeta, weight=w)
    if kind == "filtration":
        return initial_from_filtration(_parse(
            lambda: FiltrationData.from_json(initial["filtration"])))
    if kind == "shift-example":
        # the free coefficients are series in the example's base variable t
        w, bs = _parse(lambda: (
            require_int("weight", initial["weight"]),
            [TruncSeries.from_json(b).extend(("t",))
             for b in initial.get("b", [])]))
        return initial_from_filtration(shift_example(w, bs, order=order))
    if kind == "jacobi":
        algebra = build_jacobi(*_parse(
            lambda: _polynomial(initial["polynomial"])))
        S = None
        if "pairing" in initial:
            S = _parse(lambda: [[frac_from_str(c) for c in row] for row in
                                require_square("pairing", initial["pairing"],
                                               algebra.integer_rank())])
        D, _ = jacobi_to_filtration(algebra, S=S, order=order)
        return initial_from_filtration(D)
    raise RejectionError("unknown initial data kind %r" % kind)


def _run_jacobi(payload, order, z_order):
    algebra = build_jacobi(*_parse(_polynomial, payload))
    report = algebra.report()
    gen = h2_generation_check(algebra)
    report["generation"] = gen
    lines = ["milnor number: %d" % algebra.milnor,
             "integer-degree dimensions: %s" % report["integer_dims"],
             "generation passes: %s" % gen["passes"]]
    return report, lines, True


def _run_h2check(payload, order, z_order):
    algebra = build_jacobi(*_parse(_polynomial, payload))
    gen = h2_generation_check(algebra)
    report = {"milnor": algebra.milnor, "generation": gen}
    lines = ["generation passes: %s" % gen["passes"]]
    for q, c in sorted(gen["codimensions"].items()):
        lines.append("codimension at integer degree %d: %d" % (q, c))
    return report, lines, gen["passes"]


def _run_ftype_check(payload, order, z_order):
    F = _parse(FrobeniusTypeStructure.from_json, payload)
    viol = check_ftype_axioms(F)
    report = {"violations": viol}
    lines = ["axioms hold" if not viol else
             "violated: %s" % sorted({v["check"] for v in viol})]
    return report, lines, not viol


def _run_structure_connection(payload, order, z_order):
    F = _parse(FrobeniusTypeStructure.from_json, payload["ftype"])
    w = _parse(require_int, "weight", payload["weight"])
    P, R = structure_connection(F, w, z_order=z_order)
    report = {"pencil": P.to_json(), "pairing": R.to_json()}
    lines = ["structure connection of rank %d built and certified flat"
             % P.n]
    return report, lines, True


def _run_unfold(payload, order, z_order, trace):
    problem = _parse(lambda: UnfoldProblem(
        ConnectionPencil.from_json(payload["pencil"]), payload["y_vars"],
        [TruncSeries.from_json(s) for s in payload["f"]],
        payload.get("order", order)))
    tr = [] if trace else None
    # solve certifies all fourteen flatness equations of its output
    out = solve(problem, trace=tr)
    sab = reduced_flatness_check(out)
    report = {"pencil": out.to_json(),
              "flat": True,
              "reduced": sab,
              "gc": gc_check(problem.base).to_json(),
              "ic": ic_check(problem.base)}
    if trace:
        report["trace"] = tr
    lines = ["unfolding solved to order %d" % out.order,
             "flatness residuals empty: True",
             "reduced-set checks pass: %s" % sab["passes"]]
    return report, lines, sab["passes"]


def _run_universal_unfold(payload, order, z_order):
    base = _parse(ConnectionPencil.from_json, payload["pencil"])
    zeta = _parse(_vector, payload.get("zeta"), base.n)
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


def _run_pairing_extend(payload, order, z_order):
    P = _parse(ConnectionPencil.from_json, payload["pencil"])
    R0 = _parse(PairingMatrix.from_json, payload["pairing"])
    # the pairing is given at y = 0, on the pencil's frame, and is read to
    # the pencil's order
    _parse(require_square, "pairing coeffs", R0.coeffs[0], P.n, P.t_vars)
    _parse(require_order, P.order, [("pairing.coeffs[%d]" % k, R)
                                    for k, R in enumerate(R0.coeffs)])
    R0 = PairingMatrix(R0.weight, [R.truncate(P.order) for R in R0.coeffs])
    rep = pairing_extension_check(P, R0, z_order=z_order)
    report = dict(rep)
    if "pairing" in report:
        report["pairing"] = report["pairing"].to_json()
    lines = ["pairing extension certified: %s" % rep["passes"]]
    return report, lines, rep["passes"]


def _run_reconstruct(payload, order, z_order, both):
    init = _initial_data(payload["initial"], order)
    germ = normalize_germ(frobenius_via_unfolding(init, order=order))
    report = {"germ": germ.to_json(), "weight": init.weight}
    lines = ["germ of dimension %d synthesized" % germ.n]
    ok = True
    if both:
        other = normalize_germ(h2_reconstruct(init, order=order))
        cmp = compare_germs(germ, other, normalize=False)
        report["germ_recursion"] = other.to_json()
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


def _run_wdvv(payload, order, z_order):
    germ = _parse(FrobeniusGermData.from_json, payload)
    viol = wdvv_check(germ)
    eviol = euler_check(germ)
    report = {"wdvv_violations": viol, "euler_violations": eviol}
    ok = not viol and not eviol
    lines = ["multiplication axioms: %s" % ("pass" if not viol else "FAIL")]
    if eviol:
        lines.append("grading violations: %d" % len(eviol))
    return report, lines, ok


def _run_compare(payload, order, z_order):
    left = _parse(FrobeniusGermData.from_json, payload["left"])
    right = _parse(FrobeniusGermData.from_json, payload["right"])
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

# the one command each flag acts on, whose runner alone takes it
FLAGS = {"unfold": click.option("--trace", is_flag=True,
                                help="emit the intermediates per y-degree"),
         "reconstruct": click.option("--both-paths", "both", is_flag=True,
                                     help="run both germ constructors")}


def _command(name):
    @click.command(name=name)
    @click.option("--input", "input_path", required=True,
                  type=click.Path(exists=True, dir_okay=False))
    @click.option("--output", "output_dir", required=True,
                  type=click.Path(file_okay=False))
    @click.option("--order", default=4, show_default=True,
                  type=click.IntRange(min=0, max=MAX_INPUT_ORDER),
                  help="total truncation order")
    @click.option("--z-order", default=4, show_default=True,
                  type=click.IntRange(min=0, max=MAX_INPUT_ORDER),
                  help="certified z-order for pairings")
    def cmd(input_path, output_dir, order, z_order, **flag):
        with open(input_path) as fh:
            payload = json.load(fh)
        try:
            jsonschema.validate(payload, SCHEMAS[name])
        except jsonschema.ValidationError as exc:
            click.echo("payload does not match the %s schema: %s"
                       % (name, exc.message), err=True)
            sys.exit(2)
        top = max(_orders(payload), default=0)
        if top > MAX_INPUT_ORDER:
            click.echo("payload is malformed: order %d exceeds %d"
                       % (top, MAX_INPUT_ORDER), err=True)
            sys.exit(2)
        meta = {"command": name, "order": order, "z_order": z_order}
        try:
            report, lines, ok = RUNNERS[name](payload, order, z_order,
                                              **flag)
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

    return FLAGS[name](cmd) if name in FLAGS else cmd


def _plain(obj):
    """Make report values JSON-encodable (Fractions to strings)."""
    if isinstance(obj, Fraction):
        return frac_to_str(obj)
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

