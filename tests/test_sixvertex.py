from fractions import Fraction as F

import oracles
import pytest

from grothcrystal.errors import ParameterError, PoleError
from grothcrystal.fivevertex import l_matrix, r_matrix
from grothcrystal.sixvertex import (
    SixVertexParams,
    check_rll_six,
    five_vertex_params,
    intertwiner_params,
    l_six,
    r_six,
)


def test_params_validate_both_constraints():
    p = SixVertexParams(1, 1, 2, 1, F(-1, 2), F(-1, 2), F(1, 2))
    assert p.a1 == F(1) and p.t == F(1, 2)
    with pytest.raises(ParameterError) as err:
        SixVertexParams(1, 1, 2, 1, F(-1, 2), F(-1, 3), F(1, 2))
    assert "constraint" in str(err.value)


def test_five_vertex_reduction():
    for beta in (F(-1), F(2), F(-1, 3)):
        p = five_vertex_params(beta)
        for u in (F(2), F(3), F(1, 2)):
            assert l_six(u, p) == l_matrix(u, beta)


def test_r_reduces_at_t_zero():
    assert r_six(F(2), F(3), F(0)) == r_matrix(F(2), F(3))
    assert r_six(F(1, 2), F(5), F(0)) == r_matrix(F(1, 2), F(5))


def test_intertwiner_params_give_the_r_matrix():
    # L(u) with the self-reduction parameters is R(u, 1) up to (u^2-1)/u
    t = F(1, 2)
    p = intertwiner_params(t)
    for u in (F(2), F(3), F(5, 2)):
        want = r_six(u, F(1), t).scale((u * u - 1) / u)
        assert l_six(u, p) == want


def test_rll_for_constrained_parameters():
    u, v = F(2), F(3)
    assert check_rll_six(u, v, SixVertexParams(1, 1, 2, 1, F(-1, 2), F(-1, 2), F(1, 2)))
    assert check_rll_six(u, v, intertwiner_params(F(1, 3)))
    assert check_rll_six(u, v, five_vertex_params(F(-2)))
    assert check_rll_six(F(7, 2), F(1, 3), intertwiner_params(F(2, 7)))


def test_params_are_frozen_fractions_with_keyword_fields():
    p = SixVertexParams(a1=1, a2=1, a3=2, a4=1, a5=-0.5, a6=F(-1, 2), t=F(1, 2))
    assert all(type(x) is F for x in p) and p.a5 == F(-1, 2)
    assert p == SixVertexParams(1, 1, 2, 1, F(-1, 2), F(-1, 2), F(1, 2))
    assert p != five_vertex_params(F(-1))
    with pytest.raises(AttributeError):
        p.t = F(0)
    assert repr(five_vertex_params(F(-1))) == (
        "SixVertexParams(a1=Fraction(1, 1), a2=Fraction(1, 1), a3=Fraction(1, 1), "
        "a4=Fraction(0, 1), a5=Fraction(1, 1), a6=Fraction(-1, 1), t=Fraction(0, 1))"
    )
    with pytest.raises(ParameterError, match="^second weight constraint violated"):
        SixVertexParams(1, 1, 1, 1, 1, 0, 0)


@pytest.mark.parametrize(
    "route, args, error",
    [
        (five_vertex_params, (0,), (ParameterError, "the five-vertex degeneration needs beta != 0")),
        (r_six, (2, -2, F(1, 2)), (PoleError, "r_six has a pole at u^2 = v^2")),
    ],
)
def test_bad_input_is_refused_with_its_message(route, args, error):
    assert oracles.outcome(route, *args) == error
