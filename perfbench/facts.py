"""Facts the benchmark checks the program's reports against, computed here
and never read from a stored report.

- The paper's constants: Einstein constant 5, plane curvatures 4, 1, 1, 0,
  the induced signatures and orbit dimensions of f1-f5.
- A float recomputation of the curvature from the eight basis matrices of
  sl(3,R), written out below, by the bracket formula of the naturally
  reductive metric: Ric = 5·g and K(e1, e2) = 4.
- The cell count of a case-4 grid, in integer arithmetic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9

EINSTEIN_CONSTANT = "5"
PLANE_CURVATURES = "4, 1, 1, 0"
# family: (induced signature, curvature text, orbit algebra dimension)
FAMILIES = {
    "f1": ("(0, 2, 0)", "4", 3),
    "f2": ("(2, 0, 0)", "1", 3),
    "f3": ("(0, 2, 0)", "1", 3),
    "f4": ("(0, 2, 0)", "0", 2),
    "f5": ("(0, 0, 2)", "degenerate", 2),
}
DEFAULT_GRID = "0:3:1/20,-3:3:1/20"


def _basis() -> np.ndarray:
    s2, s3 = math.sqrt(2.0), math.sqrt(3.0)
    e = np.zeros((8, 3, 3))
    e[0][0, 0], e[0][1, 1] = 1.0, -1.0
    e[1][0, 1] = e[1][1, 0] = 1.0
    e[2][0, 2] = s2
    e[3][1, 2] = s2
    e[4][2, 0] = -s2
    e[5][2, 1] = -s2
    e[6] = np.diag([s3 / 3.0, s3 / 3.0, -2.0 * s3 / 3.0])
    e[7][0, 1], e[7][1, 0] = 1.0, -1.0
    return e


def float_curvature() -> tuple[float, float]:
    """(max |Ric − 5·g| over the tangent basis, K(e1, e2)) in floats.

    ⟨X, Y⟩ = −½·tr(XY); ∇_X Y = ½·[X, Y]_m; and
    R(X, Y)Z = ∇_X∇_Y Z − ∇_Y∇_X Z − ∇_{[X,Y]_m} Z − [[X, Y]_h, Z].
    """
    e = _basis()
    gram = np.array([[-0.5 * np.trace(a @ b) for b in e] for a in e])
    gram_inv = np.linalg.inv(gram)

    def coords(x: np.ndarray) -> np.ndarray:
        return gram_inv @ np.array([-0.5 * np.trace(b @ x) for b in e])

    def matrix(c: np.ndarray) -> np.ndarray:
        return np.tensordot(c, e, axes=1)

    def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return coords(matrix(x) @ matrix(y) - matrix(y) @ matrix(x))

    def m_part(c: np.ndarray) -> np.ndarray:
        return np.concatenate([c[:6], np.zeros(2)])

    def nabla(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 0.5 * m_part(bracket(x, y))

    def curvature(x, y, z):
        xy = bracket(x, y)
        return (nabla(x, nabla(y, z)) - nabla(y, nabla(x, z))
                - nabla(m_part(xy), z)
                - m_part(bracket(xy - m_part(xy), z)))

    unit = np.eye(8)
    g = gram[:6, :6]
    g_inv = np.linalg.inv(g)
    ric = np.array([[sum(g_inv[i, j] * (curvature(unit[i], unit[b], unit[c])
                                        @ gram[:, j])
                         for i in range(6) for j in range(6))
                     for c in range(6)] for b in range(6)])
    r1221 = curvature(unit[0], unit[1], unit[1]) @ gram[:, 0]
    sectional = r1221 / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
    return float(np.max(np.abs(ric - 5.0 * g))), float(sectional)


def grid_cells(grid: str) -> int:
    """Cells of a case-4 grid 'amin:amax:astep,bmin:bmax:bstep' for both ε:
    a = amin + k·astep for k ≥ 1 with 0 < a ≤ amax, b = bmin + k·bstep for
    k ≥ 0 with b ≤ bmax.  Counted over a common integer denominator."""
    values = [Fraction(p) for part in grid.split(",") for p in part.split(":")]
    scale = math.lcm(*(v.denominator for v in values))
    a0, a1, da, b0, b1, db = (int(v * scale) for v in values)
    k_max = (a1 - a0) // da
    k_min = max(1, -a0 // da + 1)
    a_count = max(0, k_max - k_min + 1)
    b_count = (b1 - b0) // db + 1 if b1 >= b0 else 0
    return 2 * a_count * b_count


_SAMPLE_WITNESSES = {
    "field.axioms": r"(\d+) random triples, seed (-?\d+)",
    "field.inverse": r"(\d+) random nonzero pairs, seed (-?\d+)",
    "field.sign": r"(\d+) nonzero draws, seed (-?\d+)",
    "field.parse_roundtrip": r"(\d+) elements, seed (-?\d+)",
    "algebra.decompose_roundtrip": r"(\d+) random vectors, seed (-?\d+)",
    "algebra.stabilizer_rotation": r"(\d+) stabilizer samples, seed (-?\d+)",
}
_EXAMPLE = re.compile(r"signature (\(\d+, \d+, \d+\)), curvature (\S+), "
                      r"orbit \S+ \(dim (\d+)\), exp deviation (\S+) on "
                      r"(\d+) samples")
_CASE4 = re.compile(r"claimed point \(.*\) passes; grid (\S+): (\d+) cells, "
                    r"(\d+) passes")


def witness_problems(name: str, witness: str, *, seed: int, samples: int,
                     tol: float, grid: str) -> list[str]:
    """What a passing check's witness gets wrong against the facts above;
    empty when it carries them.  Checks with no fact to compare return []."""
    def expect(pattern: str) -> re.Match | None:
        match = re.search(pattern, witness)
        if match is None:
            problems.append(f"{name}: witness {witness!r} lacks /{pattern}/")
        return match

    problems: list[str] = []
    if name in _SAMPLE_WITNESSES:
        match = expect(_SAMPLE_WITNESSES[name])
        if match and (int(match[1]), int(match[2])) != (samples, seed):
            problems.append(f"{name}: {match[1]} samples at seed {match[2]}, "
                            f"asked for {samples} at seed {seed}")
    if name == "algebra.stabilizer_rotation":
        match = expect(r"max deviation (\S+)")
        if match and not float(match[1]) <= tol:
            problems.append(f"{name}: deviation {match[1]} above {tol}")
    elif name == "curvature.einstein":
        match = expect(r"equals (\S+) times the metric")
        if match and match[1] != EINSTEIN_CONSTANT:
            problems.append(f"{name}: Einstein constant {match[1]}")
    elif name == "curvature.sectional_constants":
        match = expect(r"plane curvatures ([^;]+);")
        if match and match[1] != PLANE_CURVATURES:
            problems.append(f"{name}: plane curvatures {match[1]}")
    elif name.startswith("examples."):
        family = name.split(".", 1)[1]
        match = expect(_EXAMPLE.pattern)
        if match:
            signature, curvature, dim = FAMILIES[family]
            found = (match[1], match[2], int(match[3]), int(match[5]))
            if found != (signature, curvature, dim, samples):
                problems.append(f"{name}: (signature, curvature, orbit dim, "
                                f"samples) {found}, expected "
                                f"{(signature, curvature, dim, samples)}")
            if not float(match[4]) <= tol:
                problems.append(f"{name}: exp deviation {match[4]} above {tol}")
    elif name == "classify.case4_pinned":
        match = expect(_CASE4.pattern)
        if match:
            cells = grid_cells(grid)
            if (match[1], int(match[2]), int(match[3])) != (grid, cells, 0):
                problems.append(f"{name}: grid {match[1]}, {match[2]} cells, "
                                f"{match[3]} passes; expected {grid}, "
                                f"{cells} cells, 0 passes")
    return problems


def checks_with_facts(suite: str) -> set[str]:
    """The checks of a suite whose witnesses `witness_problems` compares
    with a fact; a report of that suite must hold every one of them."""
    names = {*_SAMPLE_WITNESSES, "curvature.einstein",
             "curvature.sectional_constants", "classify.case4_pinned",
             *(f"examples.{family}" for family in FAMILIES)}
    return {name for name in names
            if suite == "all" or name.startswith(f"{suite}.")}


# The rational survivor generators e1, e3 + e5, e3 − e5, e3 pass the
# tangency test; the case-2 vectors ±e1 + e5 and their transpose-inverse
# images ∓e1 + e3 fail it.
CONTROLS = {
    (1, 0, 0, 0, 0, 0): True,
    (0, 0, 1, 0, 1, 0): True,
    (0, 0, 1, 0, -1, 0): True,
    (0, 0, 1, 0, 0, 0): True,
    (-1, 0, 0, 0, 1, 0): False,
    (1, 0, 0, 0, 1, 0): False,
    (1, 0, 1, 0, 0, 0): False,
    (-1, 0, 1, 0, 0, 0): False,
}
