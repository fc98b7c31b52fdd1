"""The benchmark's workloads: their jobs, inputs and known answers.

A workload is a fixed list of jobs that one pass runs in order, one at a
time, in a single-threaded child process (a closed loop with one client).
Each job drives a public entry point -- ``lieworkbench.cli.main`` where the
command line has a verb, the library API otherwise -- and returns
verdict-level facts: statuses, witness triples, rank pairs, H^2
dimensions and whether a residual is zero.  Wording such as the
``triples_checked`` sentence or assumption strings is not compared.

This module holds no lieworkbench import at module level: the parent
process reads the known answers without loading the program.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import re
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WHY = {
    "suite": "paper-suite plus a checked definition file: bracket-level "
             "scans dominate, with passing full scans and early-witness "
             "failures",
    "twist": "three twist checks, a deep order on borel and low orders on "
             "sl(3) and sl(4): PBW rewriting, TensorUEA products and Poly "
             "arithmetic dominate; no elimination",
    "cohomology": "h2_dim and coboundary solves on seeded inputs: constant "
                  "and parametric exact elimination dominate; enveloping "
                  "is idle",
}

# Whether the seed changes a workload's inputs.
SEEDED = {"suite": False, "twist": False, "cohomology": True}


# -- known answers -----------------------------------------------------------------

_SUITE_FILE_STATUS = {
    "jacobi sl4": "pass",
    "jacobi gl3": "pass",
    "jacobi osp12": "pass",
    "jacobi mu.prime": "fail",
    "cybe r.jordan": "pass",
    "cybe r.dj": "pass",
    "mcybe r.dj": "pass",
    "mcybe r.full": "pass",
    "cocycle mu2star over mu1star": "pass",
    "compatible mu1star mu2star": "pass",
    "compatible dual.standard.sl2 dual.jordan.sl2": "pass",
    "coboundary mu2star over mu1star compare psi": "pass",
    "coboundary dual.standard.sl2 over dual.jordan.sl2": "fail",
    "decompose r.full = r.dj + r.jordan": "pass",
}

_TWIST_LABELS = ("twist jordanian order 5", "twist extended 3 order 3",
                 "twist extended 4 order 2")

# (algebra, cochain parity, parameters a coefficient of psi may carry,
# parameters the solver may invert, rank of the d1 matrix).  Parities are
# only those the algebra supports: odd cochains need odd generators.  The
# rank does not depend on psi.  The rescaled families sl3_t and gl3_t are
# isomorphic to sl(3) and gl(3) exactly where t != 0, so that is granted:
# the solve then runs the same elimination as its constant twin, on
# parametric entries, instead of searching t = 0 for an obstruction.
SOLVES = (
    ("osp12", 0, (), (), 10),
    ("osp12", 1, (), (), 10),
    ("mu1star", 0, (), (), 9),
    ("mu1star", 1, (), (), 10),
    ("double.pencil", 0, ("alpha1", "alpha2"), (), 12),
    ("double.g1dual", 0, ("theta",), (), 8),
    ("dual.standard.sl2", 0, ("h",), (), 3),
    ("sl3", 0, (), (), 56),          # inner derivations (Whitehead)
    ("gl3", 0, (), (), 72),          # inner ones plus gl(3) -> centre
    ("sl3_t", 0, (), ("t",), 56),
    ("gl3_t", 0, (), ("t",), 72),
)

# (kernel, image, quotient) dimensions of H^2 with adjoint coefficients.
H2_DIMS = {
    "osp12": (20, 20, 0),
    "mu1star": (20, 19, 1),
    "mu2star": (21, 18, 3),
    "double.pencil": (12, 12, 0),
    "double.g1dual": (14, 8, 6),
    "dual.standard.sl2": (6, 3, 3),
}


def _solve_name(algebra: str, parity: int) -> str:
    return f"solve_coboundary {algebra} {'odd' if parity else 'even'}"


EXPECTED = {
    "suite": {
        "paper-suite": {"exit": 1, "criteria": 11, "red": [3]},
        "run suite.wb": {
            "exit": 1,
            "summary": {"pass": 12, "fail": 2, "unsupported": 0},
            "status": _SUITE_FILE_STATUS,
            "witness": {"jacobi mu.prime": "(Y11, Y12, Y23)"},
            "solver": {
                "coboundary mu2star over mu1star compare psi":
                    {"status": "solved", "rank": [9, 9]},
                "coboundary dual.standard.sl2 over dual.jordan.sl2":
                    {"status": "obstructed", "rank": [0, 1]},
            },
            "differs": {"coboundary mu2star over mu1star compare psi":
                        ["(vm_hat, vm_hat)"]},
        },
    },
    "twist": {
        "run twist.wb": {
            "exit": 0,
            "checks": {label: {"status": "pass", "cocycle_residual": "0",
                               "qybe_residual": "0"}
                       for label in _TWIST_LABELS},
        },
    },
    "cohomology": {
        **{f"h2_dim {name}": {"dims": list(dims)}
           for name, dims in H2_DIMS.items()},
        **{_solve_name(name, parity): {"status": "solved",
                                       "rank": [rank, rank],
                                       "reproduces": True}
           for name, parity, _, _, rank in SOLVES},
    },
}

# Traced entry points each workload must reach at least once.  A name
# missing here means the tracer failed to see a call path, and the traced
# run fails rather than report a silent zero.
_PBW = ("scalars.poly_mul", "scalars.poly_add", "scalars.poly_truncate",
        "enveloping.tensor_mul", "enveloping.tensor_new",
        "enveloping.uea_mul", "enveloping.normalize_word",
        "enveloping.build_twist", "enveloping.cocycle_check",
        "enveloping.universal_R", "enveloping.qybe_check",
        "enveloping.classical_limit")
REACH = {
    "suite": _PBW + (
        "liealg.verify_jacobi", "liealg.bracket", "liealg.bracket_basis",
        "bialgebra.schouten", "bialgebra.ad_action",
        "cohomology.d1", "cohomology.d2_residual", "cohomology.cocycle_scan",
        "cohomology.mixed_jacobiator", "cohomology.compatible_pair",
        "cohomology.solve_coboundary", "linsolve.rref",
        "linsolve.solve_linear", "linsolve.rank_at_point",
        "dsl.parse", "runner.load", "catalog.build",
        *(f"runner.check.{kind}" for kind in (
            "jacobi", "cybe", "mcybe", "cocycle", "compatible",
            "coboundary", "decompose")),
        *(f"suite.criterion.{n:02d}" for n in range(1, 12))),
    "twist": _PBW + ("dsl.parse", "runner.load", "runner.check.twist",
                     "bialgebra.schouten", "liealg.bracket_basis"),
    "cohomology": (
        "scalars.poly_mul", "scalars.poly_add", "scalars.ratfunc_new",
        "scalars.ratfunc_arith", "liealg.bracket_basis",
        "linsolve.rref", "linsolve.rank_at_point", "linsolve.generic_check",
        "linsolve.solve_linear", "cohomology.d1", "cohomology.d2_residual",
        "cohomology.cocycle_scan", "cohomology.solve_coboundary",
        "cohomology.h2_dim", "catalog.build"),
}


# -- jobs -----------------------------------------------------------------------------


def _cli(lw, argv):
    """Run the command line in-process; (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lw.cli.main(argv)
    return code, out.getvalue()


def _paper_suite(lw):
    code, text = _cli(lw, ["paper-suite"])
    verdicts = re.findall(r"^\[(PASS|FAIL)\]\s+(\d+)\.", text, re.MULTILINE)
    return {"exit": code, "criteria": len(verdicts),
            "red": [int(n) for v, n in verdicts if v == "FAIL"]}


def _detail(details, prefix):
    for line in details:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _run_file(lw, name):
    code, text = _cli(lw, ["run", str(DATA / name), "--format", "structured"])
    report = json.loads(text)
    return code, report


def _suite_file(lw):
    code, report = _run_file(lw, "suite.wb")
    facts = {"exit": code, "summary": report["summary"], "status": {},
             "witness": {}, "solver": {}, "differs": {}}
    for check in report["checks"]:
        label, details = check["label"], check["details"]
        facts["status"][label] = check["status"]
        witness = _detail(details, "witness triple ")
        if witness is not None:
            facts["witness"][label] = witness
        status = _detail(details, "solver status: ")
        if status is not None:
            ranks = re.search(r"rank (\d+), augmented rank (\d+)",
                              "\n".join(details))
            facts["solver"][label] = {
                "status": status,
                "rank": [int(ranks.group(1)), int(ranks.group(2))]}
        for line in details:
            found = re.search(r"d1 image differs at (.*)$", line)
            if found:
                facts["differs"][label] = list(ast.literal_eval(found.group(1)))
    return facts


def _twist_file(lw):
    code, report = _run_file(lw, "twist.wb")
    checks = {}
    for check in report["checks"]:
        details = check["details"]
        checks[check["label"]] = {
            "status": check["status"],
            "cocycle_residual": _detail(details, "2-cocycle residual: "),
            "qybe_residual": _detail(details, "quantum Yang-Baxter residual: "),
        }
    return {"exit": code, "checks": checks}


def rescaled_family(lw, A, prefix: str, N: int):
    """A matrix algebra with each unit ``prefix``ij rescaled by t^|i - j|.

    For t != 0 this is a change of basis, so Jacobi holds identically in t,
    and every structure constant stays a polynomial in t because the
    height of a sum of roots never exceeds the sum of their heights.
    """
    height = {lw.catalog.pair_name(prefix, i, j, N): abs(i - j)
              for i in range(1, N + 1) for j in range(1, N + 1)}
    t = lw.scalars.param("t")
    names = A.basis.names
    table = {}
    for (i, j), entry in A.table.items():
        a, b = names[i], names[j]
        table[(a, b)] = {
            c: coeff * t ** (height.get(a, 0) + height.get(b, 0)
                             - height.get(c, 0))
            for c, coeff in entry.items()}
    return lw.liealg.LieSuperAlgebra(f"{A.name}_t", A.basis, table)


def random_cochain1(lw, rng: random.Random, A, parity: int, params):
    """A dense random 1-cochain of the given parity.

    Coefficients are small integers, plus an integer multiple of one of
    ``params`` when that tuple is not empty.
    """
    Poly, param = lw.scalars.Poly, lw.scalars.param
    basis = A.basis
    values = {}
    for j, source in enumerate(basis.names):
        for k, target in enumerate(basis.names):
            if (basis.parities[j] + parity) % 2 != basis.parities[k]:
                continue
            coeff = Poly.const(rng.randint(-2, 2))
            if params:
                coeff = coeff + param(rng.choice(params)) * rng.randint(-2, 2)
            if coeff:
                values.setdefault(source, {})[target] = coeff
    return lw.cohomology.Cochain1(basis, values, parity=parity)


def cohomology_inputs(lw, seed: int):
    """The seeded solves: (name, algebra, parity, assumed, psi, d1(psi))."""
    rng = random.Random(seed)
    catalog = lw.catalog
    families = {"sl3_t": rescaled_family(lw, catalog.make_sl(3), "E", 3),
                "gl3_t": rescaled_family(lw, catalog.make_gl(3), "Y", 3)}
    inputs = []
    for name, parity, params, assumed, _ in SOLVES:
        A = families.get(name) or catalog.catalog_get(name)
        psi = random_cochain1(lw, rng, A, parity, params)
        inputs.append((name, A, parity, assumed, psi, lw.cohomology.d1(A, psi)))
    return inputs


def _h2_job(lw, name):
    def job():
        report = lw.cohomology.h2_dim(lw.catalog.catalog_get(name))
        return {"dims": [report.kernel_dim, report.image_dim,
                         report.quotient_dim]}
    return job


def _solve_job(lw, A, phi, assumed):
    def job():
        outcome = lw.cohomology.solve_coboundary(A, phi,
                                                 assume_nonzero=assumed)
        reproduces = (outcome.psi is not None
                      and lw.cohomology.d1(A, outcome.psi) == phi)
        return {"status": outcome.status,
                "rank": [outcome.rank, outcome.rank_augmented],
                "reproduces": reproduces}
    return job


def setup(lw, workload: str, seed: int):
    """Build the catalog and the inputs; return the jobs as (name, callable)."""
    for name in lw.catalog.catalog_names():
        lw.catalog.catalog_get(name)
    if workload == "suite":
        return [("paper-suite", lambda: _paper_suite(lw)),
                ("run suite.wb", lambda: _suite_file(lw))]
    if workload == "twist":
        return [("run twist.wb", lambda: _twist_file(lw))]
    if workload == "cohomology":
        jobs = [(f"h2_dim {name}", _h2_job(lw, name)) for name in H2_DIMS]
        for name, A, parity, assumed, _, phi in cohomology_inputs(lw, seed):
            jobs.append((_solve_name(name, parity),
                         _solve_job(lw, A, phi, assumed)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
