"""Boltzmann weight tables for the seven vertex families and entry functions
for the six R-matrices.

Vertex labels follow the reading (a, b; c, d) = (left, bottom; right, top),
so conservation is a + b = c + d.  R-matrix entries use the reading
(a, b, c, d) = (in-top, in-bottom, out-top, out-bottom): the line entering
at the top left exits at the bottom right carrying d, the line entering at
the bottom left exits at the top right carrying c.  The first spectral
argument is always attached to the line entering at the top.

The tables are written once over factored fractions (see factored), with
the deformation parameters alpha and beta passed in as values: formal
(variables ``a`` and ``b``), negated formal, or exact constants; j's are
the row dual-g table at (1, 0) and the five-vertex R-matrix at beta = 0.
The public vertex_weight and rmatrix_entry return RationalFunction values.
"""

from __future__ import annotations

from enum import Enum

from .algebra import RationalFunction
from .factored import ONE, ZERO, FFrac, as_ffrac

#: the formal deformation parameters alpha and beta
FORMAL_ALPHA = as_ffrac("a")
FORMAL_BETA = as_ffrac("b")


class LabelOutOfRange(ValueError):
    """A fermionic line was given a label outside {0, 1}, or a negative label."""


class UndefinedAtBetaZero(ZeroDivisionError):
    """The bosonic-row r-matrix has beta in a denominator."""


class WeightModel(Enum):
    ROW_G = "row-G"
    ROW_G_DUAL = "row-G-dual"
    ROW_DUAL_G = "row-dual-g"
    COL_G = "col-G"
    COL_DUAL_G = "col-dual-g"
    J_ROW = "j-row"
    J_ROW_DUAL = "j-row-dual"


class RMatrixFamily(Enum):
    FIVE_VERTEX_R = "five-vertex-R"
    ROW_DUAL_R = "row-dual-r"
    COL_G_R = "col-G-R"
    COL_DUAL_R = "col-dual-r"
    J_R = "j-R"
    MIXED_R = "mixed-R"


#: families whose auxiliary (horizontal) line carries labels in {0, 1}
FERMIONIC_MODELS = frozenset(
    {WeightModel.ROW_G, WeightModel.ROW_G_DUAL, WeightModel.J_ROW, WeightModel.J_ROW_DUAL}
)

#: models whose natural partition encoding is by column multiplicities
COLUMN_ENCODED_MODELS = frozenset(
    {WeightModel.COL_G, WeightModel.COL_DUAL_G, WeightModel.J_ROW, WeightModel.J_ROW_DUAL}
)

#: models acting as dual transfer matrices (right boundary label 1)
DUAL_BOUNDARY_MODELS = frozenset({WeightModel.ROW_G_DUAL, WeightModel.J_ROW_DUAL})


def _check_labels(model: WeightModel, a: int, b: int, c: int, d: int) -> None:
    if min(a, b, c, d) < 0:
        raise LabelOutOfRange(f"negative edge label on {model.value}: {(a, b, c, d)}")
    if model in FERMIONIC_MODELS and not (a in (0, 1) and c in (0, 1)):
        raise LabelOutOfRange(
            f"auxiliary labels of {model.value} must lie in {{0,1}}: a={a}, c={c}"
        )


def vertex_weight(model: WeightModel, a: int, b: int, c: int, d: int, x) -> RationalFunction:
    """Boltzmann weight of one vertex with spectral parameter x and formal
    alpha, beta.

    Total on admissible labels: returns 0 whenever conservation a+b = c+d or
    the family's support condition fails.
    """
    return factored_weight(model, a, b, c, d, as_ffrac(x)).to_rf()


def factored_weight(
    model: WeightModel, a: int, b: int, c: int, d: int, x: FFrac,
    alpha: FFrac = FORMAL_ALPHA, beta: FFrac = FORMAL_BETA,
) -> FFrac:
    """vertex_weight as a reduced factored fraction, with alpha and beta
    passed in as values (formal, negated formal or exact constants)."""
    _check_labels(model, a, b, c, d)
    if a + b != c + d:
        return ZERO
    return _weight(model, a, b, c, d, x, alpha, beta).reduce()


def _weight(model, a, b, c, d, x, alpha, beta) -> FFrac:
    if model is WeightModel.ROW_G:
        if a == b == c == d == 0:
            return ONE
        if a == 1:
            return x / (ONE - alpha * x)
        return (ONE + beta * x) / (ONE - alpha * x)

    if model is WeightModel.ROW_G_DUAL:
        # dual tiles: flip upside down and swap the 0/1 auxiliary labels
        return _weight(WeightModel.ROW_G, 1 - a, d, 1 - c, b, x, alpha, beta)

    if model is WeightModel.ROW_DUAL_G:
        if a == 0:
            return ONE
        if a > d:
            return (alpha + beta) ** (a - d - 1) * (x + alpha) * beta**d
        return beta ** (a - 1) * x

    if model is WeightModel.COL_G:
        if b < c:
            return ZERO
        w = (x / (ONE - alpha * x)) ** a
        if b > c:
            w = w * (ONE + beta * x) / (ONE - alpha * x)
        return w

    if model is WeightModel.COL_DUAL_G:
        if a == 0:
            return ONE
        if a > d:
            return (alpha + beta) ** (a - d - 1) * beta * (x + alpha) ** d
        return x * (x + alpha) ** (a - 1)

    if model is WeightModel.J_ROW:
        # j is g at (alpha, beta) = (1, 0) on the conjugate; a, c lie in {0, 1}
        return _weight(WeightModel.ROW_DUAL_G, a, b, c, d, x, ONE, ZERO)

    if model is WeightModel.J_ROW_DUAL:
        return _weight(WeightModel.J_ROW, 1 - a, d, 1 - c, b, x, alpha, beta)

    raise ValueError(f"unknown weight model {model!r}")


_FERMIONIC_R_LINES = {
    RMatrixFamily.FIVE_VERTEX_R: (True, True),
    RMatrixFamily.ROW_DUAL_R: (False, False),
    RMatrixFamily.COL_G_R: (False, False),
    RMatrixFamily.COL_DUAL_R: (False, False),
    RMatrixFamily.J_R: (True, True),
    RMatrixFamily.MIXED_R: (True, False),  # top line fermionic, bottom bosonic
}


def rmatrix_line_types(family: RMatrixFamily) -> tuple[bool, bool]:
    """(top line fermionic?, bottom line fermionic?)."""
    return _FERMIONIC_R_LINES[family]


def _check_rlabels(family: RMatrixFamily, a, b, c, d) -> None:
    if min(a, b, c, d) < 0:
        raise LabelOutOfRange(f"negative edge label on {family.value}: {(a, b, c, d)}")
    top_f, bot_f = _FERMIONIC_R_LINES[family]
    # the top-entering line exits at the bottom right (d); the bottom one at c
    if top_f and not (a in (0, 1) and d in (0, 1)):
        raise LabelOutOfRange(f"fermionic labels out of range on {family.value}: a={a}, d={d}")
    if bot_f and not (b in (0, 1) and c in (0, 1)):
        raise LabelOutOfRange(f"fermionic labels out of range on {family.value}: b={b}, c={c}")


def rmatrix_entry(
    family: RMatrixFamily, a: int, b: int, c: int, d: int, x, y,
    alpha=None, beta=None,
) -> RationalFunction:
    """Entry of an R-matrix; zero off conservation a+b = c+d.

    alpha and beta stay formal unless given as exact rationals; for the
    bosonic-row r-matrix, beta = 0 is rejected (beta divides entries).
    """
    return factored_entry(
        family, a, b, c, d, as_ffrac(x), as_ffrac(y),
        FORMAL_ALPHA if alpha is None else as_ffrac(alpha),
        FORMAL_BETA if beta is None else as_ffrac(beta),
    ).to_rf()


def factored_entry(
    family: RMatrixFamily, a: int, b: int, c: int, d: int, x: FFrac, y: FFrac,
    alpha: FFrac = FORMAL_ALPHA, beta: FFrac = FORMAL_BETA,
) -> FFrac:
    """rmatrix_entry as a reduced factored fraction, with alpha and beta
    passed in as values."""
    _check_rlabels(family, a, b, c, d)
    if family is RMatrixFamily.ROW_DUAL_R and beta.is_zero():
        raise UndefinedAtBetaZero("the bosonic-row r-matrix is not defined at beta = 0")
    if a + b != c + d:
        return ZERO
    return _entry(family, a, b, c, d, x, y, alpha, beta).reduce()


def _entry(family, a, b, c, d, x, y, alpha, beta) -> FFrac:
    if family is RMatrixFamily.FIVE_VERTEX_R:
        if a == b == c == d == 0 or a == b == c == d == 1:
            return ONE
        cross = ((ONE + beta * x) * y) / ((ONE + beta * y) * x)
        if (a, b, c, d) == (0, 1, 0, 1):
            return cross
        if (a, b, c, d) == (0, 1, 1, 0):
            return ZERO
        if (a, b, c, d) == (1, 0, 1, 0):
            return ONE
        if (a, b, c, d) == (1, 0, 0, 1):
            return ONE - cross
        return ZERO

    if family is RMatrixFamily.J_R:
        return _entry(RMatrixFamily.FIVE_VERTEX_R, a, b, c, d, x, y, alpha, ZERO)

    if family is RMatrixFamily.ROW_DUAL_R:
        # first-match cases on (in-bottom b, out-bottom d):
        if b > d:
            return ZERO
        if b == d == 0:
            return ONE
        if b == d:
            return y / x
        tail = (ONE - y / x) * (ONE - y / beta) ** (a - c - 1)
        if b == 0:
            return tail
        return tail * (y / beta)

    if family is RMatrixFamily.COL_G_R:
        # prefactor uses the in-top label; support condition on (b, d)
        if b < d:
            return ZERO
        X = x / (ONE - alpha * x)
        Y = y / (ONE - alpha * y)
        pref = (X / Y) ** a
        if b == d:
            return pref
        return pref * (ONE - X / Y)

    if family is RMatrixFamily.COL_DUAL_R:
        # first-match order: 0 when in-bottom < out-bottom, then cases on (a, c)
        if b < d:
            return ZERO
        if a == c == 0:
            return ONE
        ratio = (y + alpha) / (x + alpha)
        if a == c:
            return (x / y) * ratio ** (1 - a)
        if a == 0:
            return ONE - x / y
        return (x / y) * (ratio - ONE) * ratio ** (-a)

    if family is RMatrixFamily.MIXED_R:
        # (k, i, l, j) = (a, b, c, d): k, j fermionic; i, l bosonic
        if a == b == c == d == 0:
            return ONE
        if d == 1 and a == 1 and b == 0 and c == 0:
            return ONE - x * y
        if a == 0 and c == 0 and b == 1 and d == 1:
            return x * y
        if a == 1:
            return ONE - x * beta
        return x * beta

    raise ValueError(f"unknown R-matrix family {family!r}")

