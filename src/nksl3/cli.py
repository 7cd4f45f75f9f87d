"""Command-line verification suites with text and JSON reports.

Each suite runs a list of named checks.  Exact identities are exhaustive
and ignore the seed; numeric sweeps draw from a seeded generator so the
same flags always produce the same report (the elapsed_ms field aside).
Exit status: 0 when every check passes, 1 when any fails, 2 on bad usage
or when the report cannot be written to --out or stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from . import exactfield, linalg
from .classify import (CaseCandidate, GridSpec, claimed_case4_point,
                       eliminate_case2, match_survivors, pin_case4,
                       prove_case4, tangency_test)
from .exactfield import ONE, SQRT2, SQRT3, SQRT6, ZERO, FieldElem
from .liealg import (FullVec, MVec, _metric_rows, ad_numeric, basis_matrix,
                     bracket, coeff_bracket, decompose, dphi, metric,
                     rotation_action_matrix)
from .nkgeom import (F, J, J1, P, DegeneratePlaneError, curvature,
                     curvature_table, einstein_constant, nabla_tensor,
                     oracle_sign, sectional)
from .surfaces import FAMILIES, SurfaceFamily, certify, generator

_M_INDICES = range(1, 7)


class CheckFailure(Exception):
    """Raised inside a check to fail it with a specific witness string."""


def _require(condition: bool, witness: str, *values: object) -> None:
    """Fail the check with `witness`.  Given values, the witness is a
    `str.format` template, filled in only when the check fails."""
    if not condition:
        raise CheckFailure(witness.format(*values) if values else witness)


@dataclass(frozen=True)
class SuiteSpec:
    suite: str
    tol: float = 1e-8
    samples: int = 100
    grid: GridSpec | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite: {self.suite}")
        if not 0 < self.tol < float("inf"):
            raise ValueError("tolerance must be positive and finite")
        if self.samples < 1:
            raise ValueError("sample count must be at least 1")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    anchor: str
    witness: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Report:
    suite: str
    seed: int
    checks: tuple[CheckRecord, ...]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(record.passed for record in self.checks)

    @property
    def totals(self) -> dict[str, int]:
        passed = sum(record.passed for record in self.checks)
        return {"pass": passed, "fail": len(self.checks) - passed,
                "total": len(self.checks)}

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "seed": self.seed,
            "checks": [asdict(record) for record in self.checks],
            "totals": self.totals,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        width = max((len(r.name) for r in self.checks), default=0)
        for r in self.checks:
            mark = "ok  " if r.passed else "FAIL"
            lines.append(f"{mark} {r.name.ljust(width)}  {r.witness}")
        totals = self.totals
        if self.passed:
            lines.append(f"PASS ({totals['pass']}/{totals['total']} checks, "
                         f"{self.elapsed_ms} ms)")
        else:
            lines.append(f"FAIL ({totals['fail']} of {totals['total']} "
                         f"checks failed, {self.elapsed_ms} ms)")
        return "\n".join(lines) + "\n"


Check = tuple[str, str, Callable[[], str]]


# ---------------------------------------------------------------- field

def _field_checks(spec: SuiteSpec) -> list[Check]:
    def axioms() -> str:
        rng = random.Random(spec.seed)
        for _ in range(spec.samples):
            x, y, z = (exactfield.random_element(rng) for _ in range(3))
            _require((x + y) + z == x + (y + z), "addition broke at {}", x)
            _require((x * y) * z == x * (y * z), "multiplication broke at {}", x)
            _require(x * (y + z) == x * y + x * z, "distributivity broke at {}", x)
            _require(x * y == y * x and x + y == y + x, "commutativity broke at {}", x)
        return f"{spec.samples} random triples, seed {spec.seed}, all exact"

    def inverse() -> str:
        rng = random.Random(spec.seed)
        for _ in range(spec.samples):
            x = exactfield.random_element(rng, nonzero=True)
            y = exactfield.random_element(rng, nonzero=True)
            x_inv = x.inv()
            _require(x * x_inv == ONE, "x*inv(x) != 1 at {}", x)
            _require((x * y).inv() == x_inv * y.inv(),
                     "inverse not multiplicative at {}, {}", x, y)
        return f"{spec.samples} random nonzero pairs, seed {spec.seed}, all exact"

    def closure() -> str:
        _require(SQRT2 * SQRT3 == SQRT6, "sqrt2*sqrt3 != sqrt6")
        _require(SQRT2 * SQRT6 == SQRT3 * 2, "sqrt2*sqrt6 != 2 sqrt3")
        _require(SQRT3 * SQRT6 == SQRT2 * 3, "sqrt3*sqrt6 != 3 sqrt2")
        _require(SQRT6 * SQRT6 == FieldElem(6), "sqrt6^2 != 6")
        _require(SQRT2 * SQRT2 == FieldElem(2) and SQRT3 * SQRT3 == FieldElem(3),
                 "square of a generator is off")
        return "radical products land on the basis exactly"

    def sign_vs_float() -> str:
        rng = random.Random(spec.seed)
        for _ in range(spec.samples):
            x = exactfield.random_element(rng, nonzero=True)
            float_sign = 1 if x.to_float() > 0 else -1
            _require(x.sign() == float_sign, "sign mismatch at {}", x)
        _require(ZERO.sign() == 0, "sign(0) != 0")
        return f"{spec.samples} nonzero draws, seed {spec.seed}, signs agree"

    def parse_roundtrip() -> str:
        rng = random.Random(spec.seed)
        for _ in range(spec.samples):
            x = exactfield.random_element(rng)
            _require(FieldElem.parse(str(x)) == x, "round trip broke at {}", x)
        return f"{spec.samples} elements, seed {spec.seed}, parse(str(x)) == x"

    return [
        ("field.axioms", "commutative ring identities in Q(sqrt2, sqrt3)", axioms),
        ("field.inverse", "multiplicative inverses via Galois conjugates", inverse),
        ("field.radical_closure", "products of sqrt2, sqrt3, sqrt6 stay in the basis", closure),
        ("field.sign", "exact sign against float evaluation", sign_vs_float),
        ("field.parse_roundtrip", "string rendering parses back to the same element", parse_roundtrip),
    ]


# -------------------------------------------------------------- algebra

def _algebra_checks(spec: SuiteSpec) -> list[Check]:
    def traceless() -> str:
        for i in range(1, 9):
            _require(basis_matrix(i).trace() == ZERO, f"e{i} has nonzero trace")
        return "all eight basis matrices are traceless"

    def bracket_table() -> str:
        e = basis_matrix
        lhs = bracket(e(1), e(2))
        _require(decompose(lhs) == FullVec.basis(8) * 2, "[e1, e2] != 2 e8")
        _require(not bracket(e(3), e(4)), "[e3, e4] != 0")
        _require(decompose(bracket(e(7), e(3))) == FullVec.basis(3) * SQRT3,
                 "[e7, e3] != sqrt3 e3")
        _require(decompose(bracket(e(8), e(1))) == FullVec.basis(2) * (-2),
                 "[e8, e1] != -2 e2")
        return "[e1,e2] = 2e8, [e3,e4] = 0, [e7,e3] = sqrt3 e3, [e8,e1] = -2e2"

    def jacobi() -> str:
        # antisymmetry makes the trilinear Jacobiator alternating: i < j < k suffice
        b, e = coeff_bracket, FullVec.basis
        for i, j in itertools.product(range(1, 9), repeat=2):
            _require(b(e(i), e(j)) == -b(e(j), e(i)),
                     f"bracket not antisymmetric at ({i}, {j})")
        for i, j, k in itertools.combinations(range(1, 9), 3):
            x, y, z = e(i), e(j), e(k)
            total = b(x, b(y, z)) + b(y, b(z, x)) + b(z, b(x, y))
            _require(not total, f"Jacobi broke at ({i}, {j}, {k})")
        return "antisymmetric on 64 basis pairs, Jacobi on 56 triples, exact"

    def natural_reductivity() -> str:
        for i, j, k in itertools.product(_M_INDICES, repeat=3):
            x, y, z = (FullVec.basis(n) for n in (i, j, k))
            lhs = metric(coeff_bracket(x, y), z)
            rhs = metric(x, coeff_bracket(y, z))
            _require(lhs == rhs, f"<[X,Y],Z> != <X,[Y,Z]> at ({i}, {j}, {k})")
        return "all 216 tangent triples, exact"

    def metric_signature() -> str:
        gram = [[metric(MVec.basis(i), MVec.basis(j)) for j in _M_INDICES]
                for i in _M_INDICES]
        sig = linalg.signature(gram)
        _require(sig == (2, 4, 0), f"tangent signature is {sig}")
        return "tangent metric has signature (2, 4, 0)"

    def decompose_roundtrip() -> str:
        rng = random.Random(spec.seed)
        for _ in range(spec.samples):
            coeffs = FullVec(exactfield.random_element(rng) for _ in range(8))
            _require(decompose(coeffs.to_matrix()) == coeffs,
                     "round trip broke at {}", coeffs)
        return f"{spec.samples} random vectors, seed {spec.seed}, exact"

    def stabilizer_rotation() -> str:
        rng = random.Random(spec.seed)
        worst = 0.0
        for _ in range(spec.samples):
            t = rng.uniform(-1.0, 1.0)
            s = rng.uniform(-3.2, 3.2)
            x = MVec(exactfield.random_element(rng) for _ in range(6))
            coeffs = [c.to_float() for c in x.coeffs]
            closed = [sum(a * c for a, c in zip(row, coeffs))
                      for row in rotation_action_matrix(t, s)]
            for direct, expected in zip(ad_numeric(t, s, x), closed):
                deviation = abs(direct - expected)
                # a NaN is kept, and fails the check; max() would drop it
                if deviation > worst or math.isnan(deviation):
                    worst = deviation
        _require(worst <= spec.tol, f"max deviation {worst:.3e} > tol")
        return (f"{spec.samples} stabilizer samples, seed {spec.seed}, "
                f"max deviation {worst:.3e}")

    def dphi_properties() -> str:
        for i in _M_INDICES:
            _require(dphi(dphi(MVec.basis(i))) == MVec.basis(i),
                     f"dphi not an involution at e{i}")
        for i, j in itertools.product(_M_INDICES, repeat=2):
            x, y = MVec.basis(i), MVec.basis(j)
            _require(metric(dphi(x), dphi(y)) == metric(x, y),
                     f"dphi not an isometry at ({i}, {j})")
        _require(dphi(MVec.basis(3)) == MVec.basis(5)
                 and dphi(MVec.basis(5)) == MVec.basis(3),
                 "dphi does not swap the nilpotent blocks")
        _require(dphi(MVec.basis(1)) == -MVec.basis(1),
                 "dphi(e1) != -e1")
        return "involution, isometry on 36 pairs, swaps e3 <-> e5"

    return [
        ("algebra.bracket_table", "commutators of the traceless basis", bracket_table),
        ("algebra.decompose_roundtrip", "coordinates against the dual basis", decompose_roundtrip),
        ("algebra.dphi", "transpose-inverse symmetry of the tangent space", dphi_properties),
        ("algebra.jacobi", "Jacobi identity for the structure-constant bracket", jacobi),
        ("algebra.metric_signature", "index of the invariant metric", metric_signature),
        ("algebra.natural_reductivity", "associativity of the metric with the bracket", natural_reductivity),
        ("algebra.stabilizer_rotation", "closed-form stabilizer action", stabilizer_rotation),
        ("algebra.traceless", "basis matrices have trace zero", traceless),
    ]


# -------------------------------------------------------------- tensors

def _tensors_checks(spec: SuiteSpec) -> list[Check]:
    def squares() -> str:
        for i in _M_INDICES:
            e = MVec.basis(i)
            _require(J.apply(J.apply(e)) == -e, f"J^2 != -Id at e{i}")
            _require(J1.apply(J1.apply(e)) == -e, f"J1^2 != -Id at e{i}")
            _require(P.apply(P.apply(e)) == e, f"(J1 J)^2 != Id at e{i}")
        return "J^2 = J1^2 = -Id and (J1 J)^2 = Id on the basis"

    def f_operator() -> str:
        for i in _M_INDICES:
            e = MVec.basis(i)
            _require(F.apply(F.apply(F.apply(e))) + F.apply(e) == MVec.zero(),
                     f"F^3 + F != 0 at e{i}")
        _require(F.apply(MVec.basis(1)) == MVec.zero()
                 and F.apply(MVec.basis(2)) == MVec.zero(),
                 "F does not kill the split block")
        return "F^3 + F = 0 and F vanishes on the first block"

    def commutation() -> str:
        pairs = (("J", J, "J1", J1), ("J", J, "F", F), ("J1", J1, "F", F),
                 ("J", J, "J1J", P), ("F", F, "J1J", P))
        for name_a, a, name_b, b, in pairs:
            for i in _M_INDICES:
                e = MVec.basis(i)
                _require(a.apply(b.apply(e)) == b.apply(a.apply(e)),
                         f"[{name_a}, {name_b}] != 0 at e{i}")
        return "J, J1, F and J1J commute pairwise"

    def compatibility() -> str:
        for i, j in itertools.product(_M_INDICES, repeat=2):
            x, y = MVec.basis(i), MVec.basis(j)
            for name, tensor in (("J", J), ("J1", J1), ("J1J", P)):
                _require(metric(tensor.apply(x), tensor.apply(y)) == metric(x, y),
                         f"{name} not metric compatible at ({i}, {j})")
        return "J, J1 and J1J preserve the metric on all 36 pairs"

    def nearly_kaehler() -> str:
        for i, j in itertools.product(_M_INDICES, repeat=2):
            x, y = MVec.basis(i), MVec.basis(j)
            total = nabla_tensor(J, x, y) + nabla_tensor(J, y, x)
            _require(total == MVec.zero(),
                     f"(nabla_X J)Y not skew at ({i}, {j})")
        return "(nabla_X J)Y + (nabla_Y J)X = 0 on all 36 pairs"

    def strictness() -> str:
        value = nabla_tensor(J, MVec.basis(1), MVec.basis(3))
        _require(value == -MVec.basis(4), f"(nabla_e1 J)e3 = {value}")
        return "(nabla_e1 J)e3 = -e4, nonzero"

    def j1_contrast() -> str:
        value = (nabla_tensor(J1, MVec.basis(1), MVec.basis(3))
                 + nabla_tensor(J1, MVec.basis(3), MVec.basis(1)))
        _require(value != MVec.zero(), "J1 also satisfies the skew identity")
        return f"J1 fails the skew identity at (e1, e3): sum {value}"

    return [
        ("tensors.commutation", "pairwise commutation of the invariant operators", commutation),
        ("tensors.f_cube", "cubic relation for the nilpotent operator", f_operator),
        ("tensors.j1_contrast", "the Hermitian structure is not nearly Kaehler", j1_contrast),
        ("tensors.metric_compatibility", "orthogonality of the complex structures", compatibility),
        ("tensors.nearly_kaehler", "skew symmetry of the covariant derivative of J", nearly_kaehler),
        ("tensors.squares", "defining squares of J, J1 and their product", squares),
        ("tensors.strictness", "nonvanishing covariant derivative of J", strictness),
    ]


# ------------------------------------------------------------ curvature

def _curvature_checks(spec: SuiteSpec) -> list[Check]:
    def oracle() -> str:
        # oracle_sign raises unless the routes agree on all 216 triples
        sign = oracle_sign()
        return f"216 triples match the bracket route, sign convention {sign:+d}"

    def symmetries() -> str:
        # the integer basis values D·R(eᵢ, eⱼ)eₖ decide each identity, by multilinearity
        table = {triple: [0] * 6 for triple in itertools.product(_M_INDICES, repeat=3)}
        for i, j, k, l, t in curvature_table()[1]:
            table[i + 1, j + 1, k + 1][l] = t
        for i, j, k in itertools.product(_M_INDICES, repeat=3):
            _require(table[i, j, k] == [-t for t in table[j, i, k]],
                     f"not antisymmetric in the first pair at ({i}, {j}, {k})")
            bianchi = map(sum, zip(table[i, j, k], table[j, k, i], table[k, i, j]))
            _require(not any(bianchi),
                     f"first Bianchi identity fails at ({i}, {j}, {k})")
        paired = {(i, j, k, l): sign * table[i, j, k][source]
                  for i, j, k in itertools.product(_M_INDICES, repeat=3)
                  for l, (source, sign) in enumerate(_metric_rows()[:6], start=1)}
        for i, j, k, l in itertools.product(_M_INDICES, repeat=4):
            _require(paired[i, j, k, l] == -paired[i, j, l, k],
                     f"not antisymmetric in the last pair at ({i}, {j}, {k}, {l})")
            _require(paired[i, j, k, l] == paired[k, l, i, j],
                     f"pair symmetry fails at ({i}, {j}, {k}, {l})")
        return "antisymmetries, pair symmetry and first Bianchi, exhaustive"

    def known_value() -> str:
        value = curvature(MVec.basis(1), MVec.basis(2), MVec.basis(2))
        _require(value == MVec.basis(1) * (-4), f"R(e1,e2)e2 = {value}")
        return "R(e1,e2)e2 = -4 e1"

    def einstein() -> str:
        constant = einstein_constant()
        _require(constant == FieldElem(5), f"Einstein constant is {constant}")
        return f"Ricci tensor equals {constant} times the metric, exactly"

    def sectional_constants() -> str:
        values = []
        for fam in FAMILIES.values():
            if fam.expected_curvature is None:
                try:
                    sectional(*generator(fam.id))
                except DegeneratePlaneError:
                    continue
                raise CheckFailure("degenerate plane was not refused")
            value = sectional(*generator(fam.id))
            _require(value == fam.expected_curvature,
                     f"{fam.id} plane: sectional {value}")
            values.append(str(value))
        return f"plane curvatures {', '.join(values)}; the null plane is refused"

    return [
        ("curvature.einstein", "proportionality of Ricci and the metric", einstein),
        ("curvature.known_value", "curvature of the split plane", known_value),
        ("curvature.oracle_agreement", "closed curvature formula against the bracket route", oracle),
        ("curvature.sectional_constants", "constant plane curvatures of the generators", sectional_constants),
        ("curvature.symmetries", "algebraic curvature symmetries", symmetries),
    ]


# ------------------------------------------------------------- examples

def _examples_checks(spec: SuiteSpec) -> list[Check]:
    def make(fam: SurfaceFamily) -> Callable[[], str]:
        def run() -> str:
            cert = certify(fam.id, samples=spec.samples, tol=spec.tol,
                           seed=spec.seed)
            _require(cert.ok, f"certificate failed: {asdict(cert)}")
            sig = cert.induced_signature
            return (f"signature {sig}, curvature {cert.curvature}, "
                    f"orbit {fam.orbit_group} (dim {cert.orbit_algebra_dim}), "
                    f"exp deviation {cert.exp_check.max_dev:.3e} on "
                    f"{cert.exp_check.samples} samples")
        return run

    return [(f"examples.{fam.id}",
             f"totally geodesic almost complex surface, orbit {fam.orbit_group}",
             make(fam))
            for fam in FAMILIES.values()]


# ------------------------------------------------------------- classify

def _classify_checks(spec: SuiteSpec) -> list[Check]:
    def single_case(case: int, epsilon: int | None) -> Callable[[], str]:
        def run() -> str:
            candidate = CaseCandidate(case, epsilon=epsilon)
            result = tangency_test(candidate)
            _require(result.in_span,
                     f"{candidate.label()} failed: value {result.value}")
            norm = metric(candidate.vector(), candidate.vector())
            _require(norm == candidate.expected_norm(),
                     f"norm {norm}, expected {candidate.expected_norm()}")
            return (f"R(X,JX)JX stays tangent, {result.witness()}, "
                    f"norm {'+' if norm.sign() > 0 else ''}{norm}")
        return run

    def case2() -> str:
        reports = eliminate_case2()
        _require(all(r.eliminated for r in reports),
                 "a mixed-block candidate passed the tangency test")
        parts = [f"eps={r.epsilon:+d} ({r.representative}): "
                 f"R(X,JX)JX = {r.value} leaves span{{X, JX}}"
                 for r in reports]
        return "; ".join(parts)

    def case4() -> str:
        report = pin_case4(spec.grid)
        _require(report.claimed_point_passes,
                 "the claimed parameter point failed the tangency test")
        _require(report.cells > 0,
                 f"grid {report.grid} holds no cells, so the sweep is no evidence")
        _require(not report.unexpected_passes,
                 f"grid points passed: {', '.join(report.unexpected_passes)}")
        point = claimed_case4_point()
        return (f"claimed point ({point.label()}) passes; grid "
                f"{report.grid}: {report.cells} cells, 0 passes; "
                f"{prove_case4()}")

    def mapping() -> str:
        matches = match_survivors()
        _require(None not in matches.values(),
                 "a survivor does not match its surface family")
        table = ", ".join(f"{label} -> {fid}" for label, fid in matches.items())
        return f"{table}; planes agree exactly"

    return [
        ("classify.case1", "the split-block candidate survives", single_case(1, None)),
        ("classify.case2_eliminated", "the mixed two-block candidates fail tangency", case2),
        ("classify.case3_minus", "the noncompact balanced candidate survives", single_case(3, -1)),
        ("classify.case3_plus", "the compact balanced candidate survives", single_case(3, 1)),
        ("classify.case4_pinned", "exact pin of the three-block parameters", case4),
        ("classify.case5", "the null candidate survives", single_case(5, None)),
        ("classify.mapping", "surviving cases match the surface families", mapping),
    ]


_SUITE_BUILDERS: dict[str, Callable[[SuiteSpec], list[Check]]] = {
    "field": _field_checks,
    "algebra": _algebra_checks,
    "tensors": _tensors_checks,
    "curvature": _curvature_checks,
    "examples": _examples_checks,
    "classify": _classify_checks,
}
SUITES = (*_SUITE_BUILDERS, "all")


def build_checks(spec: SuiteSpec) -> list[Check]:
    if spec.suite == "all":
        return [check for builder in _SUITE_BUILDERS.values()
                for check in builder(spec)]
    return _SUITE_BUILDERS[spec.suite](spec)


def run(spec: SuiteSpec) -> Report:
    start = time.perf_counter()
    records = []
    for name, anchor, thunk in build_checks(spec):
        try:
            witness = thunk()
            records.append(CheckRecord(name, "pass", anchor, witness))
        except CheckFailure as exc:
            records.append(CheckRecord(name, "fail", anchor, str(exc)))
        except Exception as exc:
            records.append(CheckRecord(name, "fail", anchor,
                                       f"{type(exc).__name__}: {exc}"))
    records.sort(key=lambda record: record.name)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
    return Report(spec.suite, spec.seed, tuple(records), elapsed_ms)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nksl3",
        description="Verification suites for the nearly Kaehler geometry of "
                    "SL(3,R)/(R x SO(2)).")
    parser.add_argument("suite", choices=SUITES,
                        help="which suite of checks to run")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="numeric tolerance for float sweeps (default 1e-8)")
    parser.add_argument("--samples", type=int, default=100,
                        help="sample count for randomized sweeps (default 100)")
    parser.add_argument("--grid", default=None, metavar="SPEC",
                        help="case 4 grid 'amin:amax:astep,bmin:bmax:bstep' "
                             "(default 0:3:1/20,-3:3:1/20)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sweeps (default 0)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the report to FILE instead of stdout")
    args = parser.parse_args(argv)

    try:
        grid = None if args.grid is None else GridSpec.parse(args.grid)
        spec = SuiteSpec(args.suite, tol=args.tol, samples=args.samples,
                         grid=grid, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    report = run(spec)
    payload = report.to_json() if args.format == "json" else report.to_text()
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            sys.stdout.write(payload)
            sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"nksl3: cannot write {args.out or 'stdout'}: {reason}",
              file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
