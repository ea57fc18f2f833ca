"""Seeded inputs, jobs and known-answer checks of the three benchmark workloads.

Every workload is described by

* ``make_payload(seed)``: the JSON payload, drawn from ``random.Random(seed)``;
  the seed only picks small nonzero integer coefficients, and no verdict
  depends on it;
* ``load(payload_path, outdir)``: what a job needs before it starts; this
  runs inside the timed set-up.  A CLI job only gets its argument list, since
  the command reads the payload itself; the library job parses it here;
* ``run(loaded, outdir)``: the job itself, returning ``(status, blob)``
  where ``blob`` is the exact bytes of the report (CLI jobs) or of the
  canonical certificate JSON (library job);
* ``check(status, blob)``: the known answer, returning a list of problems
  (empty when the answer is right).

This module imports frobkit only inside the functions, so the runner can
generate payloads without loading the package under test.
"""

from __future__ import annotations

import json
import os
import random


# ---------------------------------------------------------------------------
# shift-reconstruct: frobkit reconstruct --both-paths --order 6
# ---------------------------------------------------------------------------

SHIFT_WEIGHT = 11
SHIFT_ORDER = 6
# The seed assigns these (c0, c1) pairs to b_2..b_5.  A fixed set keeps the
# cost independent of the seed: with mixed signs, cancellations change the
# number of surviving series terms by up to a quarter of the job's time, and
# larger magnitudes make every fraction longer.
SHIFT_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 1))


def shift_payload(seed):
    """Deformed shift example of weight 11 (rank 10): the free coefficient
    functions b_2..b_5 are units c0 + c1*t."""
    pairs = list(SHIFT_PAIRS)
    random.Random(seed).shuffle(pairs)
    b = [{"vars": ["t"], "order": SHIFT_ORDER,
          "terms": [[[0], "%d/1" % c0], [[1], "%d/1" % c1]]}
         for c0, c1 in pairs]
    return {"initial": {"kind": "shift-example", "weight": SHIFT_WEIGHT,
                        "b": b}}


def shift_check(status, blob):
    report = json.loads(blob)
    problems = []
    if status != 0:
        problems.append("exit status %r, expected 0" % (status,))
    if not report.get("two_path_comparison", {}).get("equal"):
        problems.append("the two germ constructions differ")
    if report.get("wdvv_violations") != []:
        problems.append("WDVV violations reported")
    if report.get("euler_violations") != []:
        problems.append("Euler violations reported")
    if report.get("weight") != SHIFT_WEIGHT:
        problems.append("weight %r, expected %d"
                        % (report.get("weight"), SHIFT_WEIGHT))
    return problems


# ---------------------------------------------------------------------------
# codim-h2check: frobkit h2check on the (1,1,1,2,2,2)/9 polynomial
# ---------------------------------------------------------------------------

CODIM_EXPONENTS = [
    [9, 0, 0, 0, 0, 0], [0, 9, 0, 0, 0, 0], [0, 0, 9, 0, 0, 0],
    [1, 0, 0, 4, 0, 0], [0, 1, 0, 0, 4, 0], [0, 0, 1, 0, 0, 4],
]
CODIM_EXPECTED = {"2": 1, "3": 0, "4": 0}
# Unit magnitudes: the normal forms carry products of coefficient ratios,
# so larger magnitudes mean larger fractions and a slower job.
CODIM_COEFFS = (-1, 1)


def codim_payload(seed):
    """x^9 + y^9 + z^9 + x u^4 + y v^4 + z w^4 with seeded coefficients.
    Rescaling the variables over an algebraic closure maps any choice of
    nonzero coefficients to any other, so the verdict is fixed."""
    rng = random.Random(seed)
    return {"num_vars": 6,
            "weights": ["1/9"] * 3 + ["2/9"] * 3,
            "terms": [[e, "%d/1" % rng.choice(CODIM_COEFFS)]
                      for e in CODIM_EXPONENTS]}


def codim_check(status, blob):
    report = json.loads(blob)
    problems = []
    if status != 1:
        problems.append("exit status %r, expected 1" % (status,))
    gen = report.get("generation", {})
    if gen.get("codimensions") != CODIM_EXPECTED:
        problems.append("codimensions %r, expected %r"
                        % (gen.get("codimensions"), CODIM_EXPECTED))
    if gen.get("passes") is not False:
        problems.append("generation reported as passing")
    return problems


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------


def cli_loader(command, *flags):
    def load(payload_path, outdir):
        return [command, "--input", payload_path, "--output", outdir,
                *flags]
    return load


def cli_run(argv, outdir):
    """Run one CLI command in this process; return (exit status, report
    bytes)."""
    from frobkit import cli
    try:
        cli.main(argv, standalone_mode=False)
        status = 0
    except SystemExit as exc:
        status = exc.code
    with open(os.path.join(outdir, "report.json"), "rb") as fh:
        return status, fh.read()


# ---------------------------------------------------------------------------
# quintic-gc: build_jacobi -> jacobi_to_filtration(order 0) -> gc_check
# ---------------------------------------------------------------------------

QUINTIC_RANK = 204
# Every partial derivative is a single term, so the coefficients only
# rescale pivots and the cost does not depend on them.
QUINTIC_COEFFS = (-3, -2, -1, 1, 2, 3)


def quintic_payload(seed):
    """Fermat quintic sum c_i x_i^5 with seeded coefficients."""
    rng = random.Random(seed)
    return {"num_vars": 5, "weights": ["1/5"] * 5,
            "terms": [[[5 if i == j else 0 for i in range(5)],
                       "%d/1" % rng.choice(QUINTIC_COEFFS)] for j in range(5)]}


def quintic_load(payload_path, outdir):
    from frobkit.jacobi import WeightSystem, XPoly
    from frobkit.series import frac_from_str
    with open(payload_path) as fh:
        payload = json.load(fh)
    ws = WeightSystem([frac_from_str(w) for w in payload["weights"]])
    f = XPoly.from_json(payload["num_vars"], payload["terms"])
    return f, ws


def quintic_run(loaded, outdir):
    """Generation certificate of the order-0 quintic pencil built from its
    101 Gamma matrices.  Functions are looked up on their modules at call
    time, so traced runs see the wrapped versions."""
    from frobkit import jacobi, pencil, series, structures, unfold
    f, ws = loaded
    algebra = jacobi.build_jacobi(f, ws)
    D, info = structures.jacobi_to_filtration(algebra, order=0,
                                              with_pairing=False)
    Z = series.SeriesMatrix.zeros(D.n, D.n, D.vars, 0)
    P = pencil.ConnectionPencil(D.vars, (), D.n, list(D.Gamma), [], Z, Z, Z,
                                0)
    cert = unfold.gc_check(P)
    out = cert.to_json()
    out["filtration_rank"] = info["rank"]
    return 0, json.dumps(out, sort_keys=True).encode()


def quintic_check(status, blob):
    cert = json.loads(blob)
    problems = []
    if not cert.get("ok"):
        problems.append("generation certificate not ok")
    if cert.get("rank") != QUINTIC_RANK or \
            cert.get("filtration_rank") != QUINTIC_RANK:
        problems.append("rank %r / filtration rank %r, expected %d"
                        % (cert.get("rank"), cert.get("filtration_rank"),
                           QUINTIC_RANK))
    return problems


WORKLOADS = {
    "shift-reconstruct": {
        "make_payload": shift_payload,
        "load": cli_loader("reconstruct", "--both-paths",
                           "--order", str(SHIFT_ORDER)),
        "run": cli_run,
        "check": shift_check,
    },
    "codim-h2check": {
        "make_payload": codim_payload,
        "load": cli_loader("h2check"),
        "run": cli_run,
        "check": codim_check,
    },
    "quintic-gc": {
        "make_payload": quintic_payload,
        "load": quintic_load,
        "run": quintic_run,
        "check": quintic_check,
    },
}
