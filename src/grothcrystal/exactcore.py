"""Exact arithmetic: rationals, Laurent polynomials, truncated q-series, matrices.

Scalars are `fractions.Fraction`; floats enter only in the Bethe-root and
entropy numerics elsewhere, and a series, Laurent polynomial or matrix refuses
them.  A Laurent polynomial is sparse {exponent: coefficient} with no zeros
kept.  A truncated series keeps integer numerators of q^0..q^D over one
denominator, multiplied by a convolution over nonzero terms or, when both
factors are dense, by one product of the two packed into integers (the
package's one Kronecker codec, `_pack`/`_unpack`), divided by long division
on the numerators and cut at its fixed order; a matrix is rational and
likewise keeps one integer table over one denominator, so its products and
equality run on integers.
Rationals serialize as canonical "p/q" strings, series as lists of them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParameterError, PrecisionError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat_str(x: Fraction) -> str:
    """Serialize a rational as its canonical "p/q" string."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """The rational a string such as "-3/4" or "0.5" writes; a zero
    denominator is a `ParameterError` naming the string."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ParameterError(f"bad rational {s!r}: zero denominator") from None


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    x = Fraction(x)
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def clear_denominators(xs: Iterable) -> tuple[list[int], int]:
    """(ints, den) with x = ints[i] / den for the i-th int or Fraction x of
    xs, den the lcm of their denominators."""
    pairs = [x.as_integer_ratio() for x in xs]
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


class _Ring:
    """Equality, addition, subtraction, division and integer powers, written
    once on top of a subclass's `_lift` (the element an operand is, None for
    a foreign one), `_key` (what equal elements share), `_plus(other,
    sign)` (self + sign * other for an element other), `_divide(x, d)`, `*`
    and `inverse()`.

    Division is by a unit of the ring (a nonzero scalar lifts to one); a
    negative power goes through `inverse()`.  Each subclass binds `__mul__`,
    `__rmul__`, `__pow__` and `inverse` itself, so they stay attributes of
    its own class.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self._key() == lifted._key()

    def __add__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self._plus(lifted, 1)

    __radd__ = __add__

    def __sub__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self._plus(lifted, -1)

    def __rsub__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return lifted._plus(self, -1)

    def __truediv__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self._divide(self, lifted)

    def __rtruediv__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self._divide(lifted, self)

    @staticmethod
    def _divide(x, d):
        return x * d.inverse()

    def __pow__(self, n: int):
        """Square-and-multiply."""
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self._lift(1) if out is None else out


class LaurentPoly(_Ring):
    """Sparse Laurent polynomial in one variable over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        cleaned: dict[int, Fraction] = {}
        if coeffs:
            if not _rational([coeffs.values()]):
                raise TypeError("a LaurentPoly takes int, bool or Fraction coefficients only")
            for e, c in coeffs.items():
                if e != int(e):
                    raise ValueError(f"exponents must be integers: {e}")
                c = Fraction(c)
                if c:
                    cleaned[int(e)] = c
        self.coeffs = cleaned

    @classmethod
    def _raw(cls, coeffs: dict[int, Fraction]) -> "LaurentPoly":
        # trusted constructor: coeffs already normalized, no zeros
        obj = object.__new__(cls)
        obj.coeffs = coeffs
        return obj

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def var(cls) -> "LaurentPoly":
        return cls({1: _ONE})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, exp: int) -> Fraction:
        return self.coeffs.get(exp, _ZERO)

    def _lift(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return None

    def _key(self) -> dict[int, Fraction]:
        return self.coeffs

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self.coeffs.items()})

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, _ZERO) + sign * c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(out)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            if not c0:
                return LaurentPoly._raw({})
            return LaurentPoly._raw({e: c * c0 for e, c in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, _ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def inverse(self) -> "LaurentPoly":
        # only monomials are units of the Laurent ring
        if len(self.coeffs) != 1:
            raise ValueError("a non-monomial Laurent polynomial has no inverse")
        ((e, c),) = self.coeffs.items()
        return LaurentPoly._raw({-e: 1 / c})

    __pow__ = _Ring.__pow__

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPoly(0)"
        terms = " + ".join(
            f"({c})*u^{e}" for e, c in sorted(self.coeffs.items())
        )
        return f"LaurentPoly({terms})"


# Kronecker substitution (Harvey, "Faster polynomial multiplication via
# multipoint Kronecker substitution", 2009): an integer polynomial is packed
# into one integer at q = 2^(8 slot), each coefficient a slot of `slot` bytes,
# so that one product of two packed integers holds the product polynomial
# whenever each of its coefficients lies in the slot.


def _slot(bound: int) -> int:
    """The bytes per slot whose digits [-2^(8 slot - 1), 2^(8 slot - 1))
    hold every integer of absolute value at most bound."""
    return bound.bit_length() // 8 + 1


def _bias(slot: int, count: int) -> int:
    """Half a slot in each of count slots."""
    return int.from_bytes((1 << 8 * slot - 1).to_bytes(slot, "little") * count, "little")


def _pack(coeffs, slot: int) -> int:
    """The integer polynomial with these coefficients at q = 2^(8 slot): each
    coefficient plus half a slot written as `slot` bytes, the bias taken off
    once.  A coefficient outside the slot raises OverflowError."""
    half = 1 << 8 * slot - 1
    data = b"".join([(c + half).to_bytes(slot, "little") for c in coeffs])
    return int.from_bytes(data, "little") - _bias(slot, len(coeffs))


def _mask(slot: int, count: int) -> int:
    """2^(8 slot count) - 1: x & mask is x mod q^count, for x packed."""
    return (1 << 8 * slot * count) - 1


def _unpack(x: int, slot: int, count: int) -> tuple[int, ...]:
    """The coefficients of q^0..q^(count-1) of a packed polynomial: x plus
    the bias, mod q^count, read slot by slot less half a slot.  Exact when
    each of those coefficients lies in the slot; bits above the top slot are
    ignored."""
    half = 1 << 8 * slot - 1
    size = slot * count
    data = ((x + _bias(slot, count)) & _mask(slot, count)).to_bytes(size, "little")
    return tuple([int.from_bytes(data[i : i + slot], "little") - half for i in range(0, size, slot)])


# a product of two operands with at least this many nonzero terms each is one
# packed multiply, which overtakes the schoolbook between 14 and 20 dense terms
# of 10 to 50 bits; the schoolbook's cost is the number of nonzero pairs, so
# it stays ahead on sparser operands
_PACKED_TERMS = 18


def _dense(a: tuple[int, ...]) -> bool:
    return len(a) - a.count(0) >= _PACKED_TERMS


def _top(polys) -> int:
    """The largest absolute coefficient of the polynomials."""
    return max(max(max(a), -min(a)) for a in polys)


def _convolve(a: tuple[int, ...], b_terms, n: int) -> tuple[int, ...]:
    """The low n coefficients of a times the polynomial with the nonzero
    (index, coefficient) terms b_terms: a schoolbook convolution that skips
    the zero terms of a."""
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                k = i + j
                if k >= n:
                    break
                out[k] += x * y
    return tuple(out)


def _low_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The low n = len(a) coefficients of the product of two integer
    polynomials of that length: one packed multiply when both are dense,
    else the schoolbook.  No coefficient of the product, nor of a dense (so
    nonzero) operand, exceeds n * max|a| * max|b|, which sets the slot."""
    n = len(a)
    if _dense(a) and _dense(b):
        slot = _slot(n * _top((a,)) * _top((b,)))
        return _unpack(_pack(a, slot) * _pack(b, slot), slot, n)
    return _convolve(a, [(j, y) for j, y in enumerate(b) if y], n)


def _low_products(lefts, rights) -> list[list[tuple[int, ...]]]:
    """`_low_product` of each left with each right, every operand prepared
    once: each right's nonzero terms listed and each dense operand packed, at
    one slot for all the pairs set by the largest coefficients of the dense
    operands."""
    n = len(lefts[0]) if lefts else 0
    slot = None
    if any(map(_dense, lefts)) and any(map(_dense, rights)):
        slot = _slot(n * _top(filter(_dense, lefts)) * _top(filter(_dense, rights)))

    def packed(a):
        return _pack(a, slot) if slot is not None and _dense(a) else None

    rights = [([(j, y) for j, y in enumerate(b) if y], packed(b)) for b in rights]
    return [
        [
            _convolve(a, b_terms, n) if x is None or y is None else _unpack(x * y, slot, n)
            for b_terms, y in rights
        ]
        for a, x in zip(lefts, map(packed, lefts))
    ]


def _quotient(x: TruncatedSeries, d: TruncatedSeries) -> TruncatedSeries:
    """x / d by long division on the numerators X of x and N of d.  The
    coefficients Z_n = (X_n - sum_k N_k Z_(n-k)) / N_0 of X / N are kept as
    integers over one running denominator, which takes on only the factor of
    N_0 that each new coefficient needs; x / d = Z * d.den / x.den."""
    nums = d.nums
    c0 = nums[0]
    if not c0:
        raise ValueError("series with zero constant term has no inverse")
    terms = [(k, y) for k, y in enumerate(nums) if k and y]
    out, den = [], 1
    for n, x_n in enumerate(x.nums):
        acc = x_n * den
        for k, y in terms:
            if k > n:
                break
            acc -= y * out[n - k]
        if c0 != 1:
            g = math.gcd(acc, c0)
            c = c0 // g
            if c < 0:
                c, acc = -c, -acc
            if c != 1:
                out = [w * c for w in out]
                den *= c
            acc //= g
        out.append(acc)
    return TruncatedSeries._raw(tuple(w * d.den for w in out), den * x.den)


class TruncatedSeries(_Ring):
    """Power series in q truncated (inclusively) at a fixed order, stored as
    the integer numerators `nums` of q^0..q^D over one positive denominator
    `den` in lowest terms; `coeffs`, the `Fraction` coefficients, is built on
    first use.  Arithmetic is closed at the common order; mixing orders is an
    error rather than a silent truncation.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable, order: int | None = None):
        co = list(coeffs)
        if not _rational([co]):
            raise TypeError("a TruncatedSeries takes int, bool or Fraction coefficients only")
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            co = co[: order + 1] + [_ZERO] * (order + 1 - len(co))
        if not co:
            raise ValueError("a series needs at least its constant coefficient")
        # over the lcm of reduced denominators the numerators share no factor
        nums, self.den = clear_denominators(co)
        self.nums = tuple(nums)
        self._coeffs = None

    @classmethod
    def _raw(cls, nums: tuple[int, ...], den: int) -> "TruncatedSeries":
        # trusted constructor: integer numerators over den > 0; only reduces
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(x // g for x in nums)
            den //= g
        obj = object.__new__(cls)
        obj.nums, obj.den, obj._coeffs = nums, den, None
        return obj

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(x, self.den) for x in self.nums)
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @classmethod
    def indeterminate(cls, order: int) -> "TruncatedSeries":
        return cls([0, 1], order)

    def coeff(self, n: int) -> Fraction:
        return Fraction(self.nums[n], self.den)

    def __bool__(self) -> bool:
        return any(self.nums)

    def valuation(self) -> int:
        """Exponent of the lowest nonzero coefficient; order + 1 for a series
        that vanishes through its order."""
        return next((k for k, x in enumerate(self.nums) if x), len(self.nums))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError("order must be nonnegative")
        return TruncatedSeries._raw(self.nums[: order + 1], self.den)

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by q^k; the k lowest coefficients must vanish."""
        if k == 0:
            return self
        if k < 0 or k > self.order:
            raise ValueError("bad shift")
        if any(self.nums[:k]):
            raise ValueError("series is not divisible by q^%d" % k)
        return TruncatedSeries._raw(self.nums[k:], self.den)

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def _lift(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return TruncatedSeries._raw((c.numerator,) + (0,) * self.order, c.denominator)
        return None

    def _key(self) -> tuple:
        return self.den, self.nums

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._raw(tuple(-x for x in self.nums), self.den)

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        g = math.gcd(self.den, other.den)
        s, t = other.den // g, self.den // g * sign
        return TruncatedSeries._raw(
            tuple(a * s + b * t for a, b in zip(self.nums, other.nums)), self.den * s
        )

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return TruncatedSeries._raw(
                tuple(x * c.numerator for x in self.nums), self.den * c.denominator
            )
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        return TruncatedSeries._raw(_low_product(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    _divide = staticmethod(_quotient)

    def inverse(self) -> "TruncatedSeries":
        return _quotient(self._lift(1), self)

    def __pow__(self, n: int) -> "TruncatedSeries":
        k = self.valuation()
        if n <= 0 or k > self.order or any(self.nums[k + 1 :]):
            return _Ring.__pow__(self, n)
        # a monomial c q^k: c^n q^(kn), cut at the order
        nums = [0] * len(self.nums)
        if k * n <= self.order:
            nums[k * n] = self.nums[k] ** n
        return TruncatedSeries._raw(tuple(nums), self.den**n)

    def to_strings(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"


def _int_det_bareiss(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix; destroys m."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _rational(rows) -> bool:
    return {type(x) for row in rows for x in row} <= {int, bool, Fraction}


def _product(rows, cols) -> list[list[int]]:
    """Each row of an integer table times each column of another; zero
    products add nothing."""
    out = []
    for row in rows:
        terms = [(k, a) for k, a in enumerate(row) if a]
        new_row = []
        for col in cols:
            acc = 0
            for k, a in terms:
                b = col[k]
                if b:
                    acc += a * b
            new_row.append(acc)
        out.append(new_row)
    return out


class Matrix:
    """Dense rational matrix: int, bool or Fraction entries, any other entry a
    TypeError.  It is one integer table over one denominator, `table()`,
    cleared from its rows when built; `data` reads it as `Fraction`s.  Over
    other rings a matrix is a list of rows."""

    __slots__ = ("_table",)

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(r) for r in rows)
        if any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        if not _rational(data):
            raise TypeError("a Matrix takes int, bool or Fraction entries only")
        flat, den = clear_denominators(itertools.chain(*data))
        width = len(data[0]) if data else 0
        self._table = [flat[i * width : (i + 1) * width] for i in range(len(data))], den

    @classmethod
    def from_table(cls, ints: list[list[int]], den: int) -> "Matrix":
        """The matrix ints / den, for an integer table and den > 0, reduced."""
        g = math.gcd(den, *itertools.chain.from_iterable(ints))
        if g != 1:
            ints = [[x // g for x in row] for row in ints]
            den //= g
        obj = object.__new__(cls)
        obj._table = ints, den
        return obj

    def table(self) -> tuple[list[list[int]], int]:
        """(ints, den) with entry (i, j) = ints[i][j] / den, den > 0 sharing no
        factor with all of ints: one form per matrix."""
        return self._table

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        ints, den = self._table
        return tuple(tuple(Fraction(x, den) for x in row) for row in ints)

    @property
    def rows(self) -> int:
        return len(self._table[0])

    @property
    def cols(self) -> int:
        ints = self._table[0]
        return len(ints[0]) if ints else 0

    def entry(self, i: int, j: int) -> Fraction:
        ints, den = self._table
        return Fraction(ints[i][j], den)

    def __eq__(self, other) -> bool:
        """Two matrices are equal iff their tables are."""
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._table == other._table

    __hash__ = None

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product of the two tables, divided by their denominators and
        reduced once."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        (x, dx), (y, dy) = self._table, other._table
        return Matrix.from_table(_product(x, tuple(zip(*y))), dx * dy)

    def scale(self, s) -> "Matrix":
        return Matrix([[x * s for x in row] for row in self.data])

    def det(self) -> Fraction:
        """Exact determinant: fraction-free (Bareiss) elimination on the table
        with each row divided by its gcd with the denominator, which keeps the
        integers smaller than the one-denominator table.  Series matrices go
        through `qadic_det`."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant needs a square matrix")
        if n == 0:
            return _ONE
        ints, den = self._table
        rows, scale = [], 1
        for row in ints:
            g = math.gcd(den, *row)
            rows.append([x // g for x in row])
            scale *= den // g
        return Fraction(_int_det_bareiss(rows), scale)

    def inverse(self) -> "Matrix":
        """Exact inverse over the rationals (Gauss-Jordan)."""
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse needs a square matrix")
        a = [list(row) + [_ONE if i == j else _ZERO for j in range(n)]
             for i, row in enumerate(self.data)]
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if a[r][col]:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise ValueError("matrix is singular")
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv_p = 1 / a[col][col]
            a[col] = [x * inv_p for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return Matrix([row[n:] for row in a])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def qadic_det(rows: Sequence[Sequence[TruncatedSeries]], order: int) -> tuple[int, TruncatedSeries]:
    """Determinant of a square matrix of series known through q^order, by
    Gaussian elimination over Q[[q]] with full pivoting on q-adic valuation
    (precision tracking as in Caruso, Roe and Vaccon, "Tracking p-adic
    precision", 2014).

    Returns (v, unit) with det = q^v * unit and a nonzero constant term in
    unit.  Each step takes an entry q^v_k * u_k of least valuation in the
    trailing block as pivot.  Every entry of that block is divisible by
    q^v_k, so the row factors and their products are formed at order - v_k
    and shifted back up: no update loses absolute precision.  A step's
    products come from one `_low_products` call, which prepares the row
    factors and the pivot row's tail once, and each update is reduced once.
    So v is the sum of the v_k exactly, and unit = +-prod u_k is known through relative order
    order - max v_k, the order it is returned at.  A trailing block that
    vanishes through q^order raises `PrecisionError`; no truncated or zero
    series is returned.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if any(x.order != order for row in a for x in row):
        raise ValueError("series orders differ")
    vals = [[x.valuation() for x in row] for row in a]
    sign = 1
    pivots = []
    for k in range(n):
        v, i, j = min((vals[i][j], i, j) for i in range(k, n) for j in range(k, n))
        if v > order:
            raise PrecisionError(f"a {n - k}x{n - k} block of the matrix vanishes through q^{order}")
        if i != k:
            a[i], a[k], vals[i], vals[k], sign = a[k], a[i], vals[k], vals[i], -sign
        if j != k:
            for row in a[k:] + vals[k:]:
                row[j], row[k] = row[k], row[j]
            sign = -sign
        unit = a[k][k].shift_down(v)
        inv = unit.inverse()
        tail = [(j, x.shift_down(v)) for j, x in enumerate(a[k][k + 1 :], k + 1) if vals[k][j] <= order]
        factors = [(i, a[i][k].shift_down(v) * inv) for i in range(k + 1, n) if vals[i][k] <= order]
        prods = _low_products([factor.nums for _, factor in factors], [x.nums for _, x in tail])
        for (i, factor), row_prods in zip(factors, prods):
            row = a[i]
            for (j, x), prod in zip(tail, row_prods):
                # row[j] - q^v * prod / den over the lcm of the two
                # denominators, reduced once
                old, den = row[j], factor.den * x.den
                g = math.gcd(old.den, den)
                s, t = den // g, old.den // g
                low, high = old.nums[:v], old.nums[v:]
                nums = tuple(y * s for y in low) + tuple(y * s - z * t for y, z in zip(high, prod))
                row[j] = TruncatedSeries._raw(nums, old.den * s)
                vals[i][j] = row[j].valuation()
        pivots.append((v, unit))
    top = max((v for v, _ in pivots), default=0)
    out = TruncatedSeries.one(order - top) * sign
    for _, unit in pivots:
        out = out * unit.truncate(order - top)
    return sum(v for v, _ in pivots), out


def embed_pair(op: Matrix, pos1: int, pos2: int, dims: Sequence[int]) -> Matrix:
    """Embed an operator on tensor factors pos1 < pos2 into the full product.

    Index convention is big-endian: factor 0 is the most significant digit of
    a product-space index, and `op` is indexed by i1*d2 + i2.
    """
    if not 0 <= pos1 < pos2 < len(dims):
        raise ValueError("bad positions")
    d1, d2 = dims[pos1], dims[pos2]
    if op.rows != d1 * d2 or op.cols != d1 * d2:
        raise ValueError("operator size does not match the chosen factors")
    keep = [k for k in range(len(dims)) if k not in (pos1, pos2)]
    # each product-space index as (its digits outside pos1 and pos2, its index into op)
    split = [
        (tuple(ds[k] for k in keep), ds[pos1] * d2 + ds[pos2])
        for ds in itertools.product(*map(range, dims))
    ]
    ints, den = op.table()
    rows = [[ints[r][c] if out_r == out_c else 0 for out_c, c in split] for out_r, r in split]
    return Matrix.from_table(rows, den)
