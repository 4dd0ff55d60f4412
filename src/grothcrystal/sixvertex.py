"""Six-vertex generalization whose weights carry an anisotropy t and six
coefficients alpha_1..alpha_6 subject to two quadratic constraints.

Setting t = alpha_4 = 0 with (alpha_1, alpha_2, alpha_3, alpha_5, alpha_6) =
(1, 1, 1, -1/beta, -1) reproduces the five-vertex site operator, and the
choice alpha_1 = alpha_2 = alpha_3 = alpha_5 = 1, alpha_6 = -1, alpha_4 = -t
turns the site operator into the t-deformed intertwiner itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, PoleError
from .exactcore import Matrix
from .lattice import rll_holds, site_operator


@dataclass(frozen=True)
class SixVertexParams:
    """Validated weight coefficients (alpha_1..alpha_6, t)."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a5: Fraction
    a6: Fraction
    t: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a5", "a6", "t"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        first = (1 - self.t) * self.a1 * self.a2 + self.a3 * self.a6 - self.a4 * self.a5
        if first != 0:
            raise ParameterError(
                "first weight constraint violated: "
                "(1-t)a1*a2 + a3*a6 - a4*a5 = " + str(first)
            )
        second = (
            (self.t**2 - self.t) * self.a1 * self.a2
            + self.t**2 * self.a3 * self.a6
            - self.a4 * self.a5
        )
        if second != 0:
            raise ParameterError(
                "second weight constraint violated: "
                "(t^2-t)a1*a2 + t^2*a3*a6 - a4*a5 = " + str(second)
            )


def five_vertex_params(beta: Fraction) -> SixVertexParams:
    """The degeneration reproducing the five-vertex site operator."""
    beta = Fraction(beta)
    if beta == 0:
        raise ParameterError("the five-vertex degeneration needs beta != 0")
    return SixVertexParams(1, 1, 1, 0, Fraction(-1) / beta, -1, 0)


def intertwiner_params(t: Fraction) -> SixVertexParams:
    """The choice that turns the site operator into the intertwiner."""
    return SixVertexParams(1, 1, 1, -Fraction(t), 1, -1, t)


def l_six(u: Fraction, p: SixVertexParams) -> Matrix:
    """Site operator on (aux, site), basis |00>, |01>, |10>, |11>."""
    u = Fraction(u)
    if u == 0:
        raise PoleError("u = 0 is a pole of the site weights")
    ui = 1 / u
    w = (
        p.a3 * u + p.a4 * ui,
        p.a3 * p.t * u + p.a4 * ui,
        p.a5 * u + p.a6 * ui,
        p.a5 * u + p.a6 * p.t * ui,
        (1 - p.t) * p.a1,
        (1 - p.t) * p.a2,
    )
    return site_operator(w, 2)


def r_six(u: Fraction, v: Fraction, t: Fraction) -> Matrix:
    """t-deformed intertwiner on two auxiliary spaces; poles at u^2 = v^2."""
    u = Fraction(u)
    v = Fraction(v)
    t = Fraction(t)
    den = u * u - v * v
    if den == 0:
        raise PoleError("r_six has a pole at u^2 = v^2")
    f = (u * u - t * v * v) / den
    g = (1 - t) * u * v / den
    zero = Fraction(0)
    return Matrix(
        [
            [f, zero, zero, zero],
            [zero, t, g, zero],
            [zero, g, Fraction(1), zero],
            [zero, zero, zero, f],
        ]
    )


def check_rll_six(u: Fraction, v: Fraction, p: SixVertexParams) -> bool:
    """Intertwining relation R(t)(L x L) = (L x L)R(t) on aux x aux x site."""
    return rll_holds(l_six(u, p), l_six(v, p), r_six(u, v, p.t), 2)
