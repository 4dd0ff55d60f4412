import math
import random
from fractions import Fraction as F

import pytest
import oracles
from oracles import binomial_qn_series, gen_binomial

from grothcrystal.errors import ParameterError
from grothcrystal.exactcore import (
    LaurentPoly,
    Matrix,
    TruncatedSeries,
    embed_pair,
    parse_rat,
    rat_str,
    rational_sqrt,
)


def test_rat_str_roundtrip():
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(5)) == "5/1"
    assert rat_str(F(-59, 6)) == "-59/6"
    for s in ("0/1", "7/3", "-2/9"):
        assert rat_str(parse_rat(s)) == s
    assert parse_rat("5") == F(5)
    assert parse_rat("-1/2") == F(-1, 2)


def test_parse_rat_names_a_zero_denominator():
    for s in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ParameterError, match=f"^bad rational '{s}': zero denominator$"):
            parse_rat(s)


def test_rational_sqrt():
    assert rational_sqrt(F(4, 9)) == F(2, 3)
    assert rational_sqrt(F(0)) == F(0)
    assert rational_sqrt(F(1, 4)) == F(1, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(4, 7)) is None


def test_gen_binomial_any_sign():
    # (-2 choose 3) = (-2)(-3)(-4)/3! and ordinary values for e >= 0
    assert gen_binomial(-2, 3) == F(-4)
    assert gen_binomial(5, 2) == F(10)
    assert gen_binomial(3, 5) == F(0)
    assert gen_binomial(-1, 4) == F(1)
    assert gen_binomial(4, 0) == F(1)


def test_laurent_arithmetic():
    z = LaurentPoly.var()
    p = z + 2 * z ** 0 + LaurentPoly({-1: 3})
    q = z ** 2 - 1
    prod = p * q
    for t in (F(2), F(-3), F(1, 2), F(7, 3)):
        assert oracles.evaluate(prod, t) == oracles.evaluate(p, t) * oracles.evaluate(q, t)
    assert not (p - p)
    assert sorted(p.coeffs) == [-1, 0, 1]
    assert q.coeff(2) == 1 and q.coeff(0) == -1 and q.coeff(5) == 0


def test_laurent_equality_lifts_scalars():
    z = LaurentPoly.var()
    assert z - z == 0
    assert z * z ** -1 == 1
    assert LaurentPoly.const(F(3, 2)) == F(3, 2)


def test_laurent_exponents_must_be_integers():
    # int() used to truncate: {1.5: 1} read as u^1
    for bad in ({1.5: 1}, {0: 1, F(1, 2): 3}):
        with pytest.raises(ValueError, match="^exponents must be integers"):
            LaurentPoly(bad)
    p = LaurentPoly({2.0: 1, F(-3): 2, True: 5})
    assert p.coeffs == {2: 1, -3: 2, 1: 5}
    assert all(type(e) is int for e in p.coeffs)


def test_vandermonde_determinant():
    xs = [F(1), F(2), F(3), F(5)]
    m = Matrix([[x ** i for x in xs] for i in range(4)])
    want = F(1)
    for j in range(4):
        for k in range(j + 1, 4):
            want *= xs[k] - xs[j]
    assert m.det() == want == 48


def test_det_multiplicative():
    rng = random.Random(5)
    for n in range(1, 6):
        a = Matrix(
            [[F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)]
             for _ in range(n)]
        )
        b = Matrix(
            [[F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)]
             for _ in range(n)]
        )
        assert (a @ b).det() == a.det() * b.det()


def test_matrix_inverse():
    m = Matrix([[F(2), F(1)], [F(7), F(4)]])
    assert m @ m.inverse() == Matrix([[1, 0], [0, 1]])
    assert m.inverse() @ m == Matrix([[1, 0], [0, 1]])
    singular = Matrix([[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(ValueError):
        singular.inverse()


def test_rational_tables_are_in_lowest_terms():
    assert Matrix([[F(1, 2), 2], [0, F(-5, 6)]]).table() == ([[3, 12], [0, -5]], 6)
    assert Matrix([[True, 3], [False, 1]]).table() == ([[1, 3], [0, 1]], 1)
    assert Matrix.from_table([[2, 4], [0, -6]], 6).table() == ([[1, 2], [0, -3]], 3)
    assert Matrix.from_table([[0, 0]], 9).table() == ([[0, 0]], 1)
    assert Matrix.from_table([[0, 0]], 9).data == ((0, 0),)
    assert Matrix([[], []]).table() == ([[], []], 1) != Matrix([[]]).table()
    # equal tables need equal denominators too
    assert Matrix([[1, 2]]) != Matrix([[F(1, 2), 1]]) == Matrix.from_table([[1, 2]], 2)


def test_matrix_takes_rational_entries_only():
    assert Matrix([[1, True], [F(-3, 4), False]]).data == ((1, True), (F(-3, 4), False))
    # the entries are read back from the one integer table, as Fractions
    assert {type(x) for row in Matrix([[1, True], [F(-3, 4), False]]).data for x in row} == {F}
    for x in (0.5, 1.0, 2j, complex(1, 0), LaurentPoly.const(1), TruncatedSeries.one(2)):
        with pytest.raises(TypeError, match="^a Matrix takes int, bool or Fraction entries only$"):
            Matrix([[F(1), 0], [0, x]])


def test_det_takes_rational_entries_only():
    # series determinants go through qadic_det; a Matrix refuses Laurent and series entries
    with pytest.raises(TypeError):
        Matrix([[LaurentPoly.var()]]).det()
    with pytest.raises(TypeError):
        Matrix([[F(1), F(0)], [F(0), TruncatedSeries.one(3)]]).det()
    assert Matrix([[2, 1], [F(1, 2), 3]]).det() == F(11, 2)


def test_series_inverse_geometric():
    one_minus_q = TruncatedSeries((F(1), F(-1)) + (F(0),) * 6)
    inv = one_minus_q.inverse()
    assert inv.coeffs == (F(1),) * 8
    assert one_minus_q * inv == TruncatedSeries.one(7)


def test_series_negative_power():
    q = TruncatedSeries.indeterminate(6)
    s = (1 + q) ** -2
    # 1/(1+q)^2 = sum (-1)^m (m+1) q^m
    assert s.coeffs == tuple(F((-1) ** m * (m + 1)) for m in range(7))
    assert s * (1 + q) ** 2 == TruncatedSeries.one(6)


def test_series_partition_generating_function():
    order = 6
    factors = []
    for k in range(1, order + 1):
        coeffs = [F(0)] * (order + 1)
        coeffs[0] = F(1)
        coeffs[k] = F(-1)
        factors.append(TruncatedSeries(coeffs).inverse())
    euler = math.prod(factors, start=TruncatedSeries.one(order))
    assert euler.coeffs == (F(1), F(1), F(2), F(3), F(5), F(7), F(11))


def test_series_shift_down():
    q = TruncatedSeries.indeterminate(5)
    s = q * q * (1 + q)
    shifted = s.shift_down(2)
    assert shifted.coeff(0) == 1 and shifted.coeff(1) == 1
    with pytest.raises(ValueError):
        (1 + q).shift_down(1)


def test_series_order_mismatch_rejected():
    a = TruncatedSeries.one(3)
    b = TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        a + b


def test_binomial_qn_series():
    order = 9
    c = F(1, 2)
    direct = TruncatedSeries.one(order)
    base = binomial_qn_series(c, 2, 1, order)
    for _ in range(3):
        direct = direct * base
    assert binomial_qn_series(c, 2, 3, order) == direct
    # negative exponent inverts exactly
    neg = binomial_qn_series(c, 3, -2, order)
    pos = binomial_qn_series(c, 3, 2, order)
    assert neg * pos == TruncatedSeries.one(order)


def test_embed_pair_identity_and_swap():
    ident = Matrix([[int(i == j) for j in range(4)] for i in range(4)])
    assert embed_pair(ident, 0, 2, [2, 2, 2]) == Matrix([[int(i == j) for j in range(8)] for i in range(8)])
    swap = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    big = embed_pair(swap, 0, 1, [2, 2])
    # big-endian: basis index 1 = |0,1>, index 2 = |1,0>
    assert big.entry(2, 1) == 1 and big.entry(1, 2) == 1
    assert big.entry(0, 0) == 1 and big.entry(3, 3) == 1
    assert big.entry(1, 1) == 0


def test_embed_pair_matches_the_digit_loop_reference():
    rng = random.Random(5)
    for dims in ((2, 2, 2), (2, 2, 5), (3, 2, 4)):
        for pos1 in range(len(dims)):
            for pos2 in range(pos1 + 1, len(dims)):
                size = dims[pos1] * dims[pos2]
                op = Matrix(
                    [[F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(size)] for _ in range(size)]
                )
                got, want = embed_pair(op, pos1, pos2, dims), oracles.embed_pair(op, pos1, pos2, dims)
                assert got == want and got.data == want.data
                assert [list(map(type, r)) for r in got.data] == [list(map(type, r)) for r in want.data]
