"""Exact arithmetic: rationals, Laurent polynomials, truncated q-series, matrices.

Scalars are `fractions.Fraction`; floats enter only in the Bethe-root and
entropy numerics elsewhere.  A Laurent polynomial is sparse {exponent:
coefficient} with no zeros kept.  A truncated series keeps integer numerators
of q^0..q^D over one denominator, multiplied by a convolution that skips zero
terms and cut at its fixed order; a matrix is rational and likewise keeps one
integer table over one denominator, so its products and equality run on
integers.
Rationals serialize as canonical "p/q" strings, series as lists of them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PrecisionError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat_str(x: Fraction) -> str:
    """Serialize a rational as its canonical "p/q" string."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    return Fraction(s)


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
    """Subtraction, division and integer powers, written once on top of a
    subclass's `_lift`, `+`, unary `-`, `*` and `inverse()`.

    Division is by a unit of the ring (a nonzero scalar lifts to one); a
    negative power goes through `inverse()`.  Each subclass binds `__pow__`
    itself, so the method stays an attribute of its own class.
    """

    __slots__ = ()

    def __sub__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self + (-lifted)

    def __rsub__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return lifted + (-self)

    def __truediv__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self * lifted.inverse()

    def __rtruediv__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return lifted * self.inverse()

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
        return cls({0: Fraction(c)})

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

    def __eq__(self, other) -> bool:
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self.coeffs == lifted.coeffs

    __hash__ = None  # mutable-dict backed; not hashable

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self.coeffs.items()})

    def __add__(self, other) -> "LaurentPoly":
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in lifted.coeffs.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(out)

    __radd__ = __add__

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


def _low_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The low len(a) coefficients of the product of two integer polynomials
    of that length: a schoolbook convolution over their nonzero terms."""
    n = len(a)
    out = [0] * n
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                k = i + j
                if k >= n:
                    break
                out[k] += x * y
    return tuple(out)


class TruncatedSeries(_Ring):
    """Power series in q truncated (inclusively) at a fixed order, stored as
    the integer numerators `nums` of q^0..q^D over one positive denominator
    `den` in lowest terms; `coeffs`, the `Fraction` coefficients, is built on
    first use.  Arithmetic is closed at the common order; mixing orders is an
    error rather than a silent truncation.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable, order: int | None = None):
        co = [Fraction(c) for c in coeffs]
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

    def __eq__(self, other) -> bool:
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self.den == lifted.den and self.nums == lifted.nums

    __hash__ = None

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._raw(tuple(-x for x in self.nums), self.den)

    def __add__(self, other) -> "TruncatedSeries":
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        g = math.gcd(self.den, lifted.den)
        s, t = lifted.den // g, self.den // g
        return TruncatedSeries._raw(
            tuple(a * s + b * t for a, b in zip(self.nums, lifted.nums)), self.den * s
        )

    __radd__ = __add__

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

    def inverse(self) -> "TruncatedSeries":
        """den / N for the numerators N.  c0^(D+1) / N has the integer
        coefficients U_0 = c0^D, U_n = -(sum_k N_k U_(n-k)) / c0, each
        division exact."""
        nums = self.nums
        c0 = nums[0]
        if not c0:
            raise ValueError("series with zero constant term has no inverse")
        terms = [(k, x) for k, x in enumerate(nums) if k and x]
        out = [c0**self.order]
        for n in range(1, len(nums)):
            out.append(-sum(x * out[n - k] for k, x in terms if k <= n) // c0)
        lead = c0 * out[0]  # c0^(D+1)
        scale = self.den if lead > 0 else -self.den
        return TruncatedSeries._raw(tuple(x * scale for x in out), abs(lead))

    __pow__ = _Ring.__pow__

    def to_strings(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"


def vandermonde(xs: Sequence) -> object:
    """prod_{j<k} (x_j - x_k); the reversed list gives prod_{j<k} (x_k - x_j)."""
    out = _ONE
    for j, x in enumerate(xs):
        for y in xs[j + 1 :]:
            out = out * (x - y)
    return out


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
    TypeError.  Built from rows it keeps its entries as given and is cleared
    to its `table()` once; a product is made as a table, its Fraction `data`
    built when read.  Over other rings a matrix is a list of rows."""

    __slots__ = ("_data", "_table")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(r) for r in rows)
        if any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        if not _rational(data):
            raise TypeError("a Matrix takes int, bool or Fraction entries only")
        self._data, self._table = data, None

    @classmethod
    def from_table(cls, ints: list[list[int]], den: int) -> "Matrix":
        """The matrix ints / den, for an integer table and den > 0, reduced."""
        g = math.gcd(den, *itertools.chain.from_iterable(ints))
        if g != 1:
            ints = [[x // g for x in row] for row in ints]
            den //= g
        obj = object.__new__(cls)
        obj._data, obj._table = None, (ints, den)
        return obj

    def table(self) -> tuple[list[list[int]], int]:
        """(ints, den) with entry (i, j) = ints[i][j] / den, den > 0 sharing no
        factor with all of ints: one form per matrix."""
        if self._table is None:
            flat, den = clear_denominators(itertools.chain(*self._data))
            width = self.cols
            self._table = ([flat[i * width : (i + 1) * width] for i in range(self.rows)], den)
        return self._table

    @property
    def data(self) -> tuple[tuple, ...]:
        if self._data is None:
            ints, den = self._table
            self._data = tuple(tuple(Fraction(x, den) if x else _ZERO for x in row) for row in ints)
        return self._data

    @property
    def rows(self) -> int:
        return len(self._table[0] if self._data is None else self._data)

    @property
    def cols(self) -> int:
        grid = self._table[0] if self._data is None else self._data
        return len(grid[0]) if grid else 0

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        """Two matrices are equal iff their tables are."""
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.table() == other.table()

    __hash__ = None

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product of the two tables, divided by their denominators and
        reduced once."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        (x, dx), (y, dy) = self.table(), other.table()
        return Matrix.from_table(_product(x, tuple(zip(*y))), dx * dy)

    def scale(self, s) -> "Matrix":
        return Matrix([[x * s for x in row] for row in self.data])

    def det(self) -> Fraction:
        """Exact determinant: fraction-free (Bareiss) elimination on the matrix
        with each row cleared of denominators, which keeps the integers smaller
        than the one-denominator table.  Series matrices go through
        `qadic_det`."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant needs a square matrix")
        if n == 0:
            return _ONE
        cleared = [clear_denominators(row) for row in self.data]
        scale = math.prod(den for _, den in cleared)
        return Fraction(_int_det_bareiss([ints for ints, _ in cleared]), scale)

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
    and shifted back up: no update loses absolute precision.  So v is the sum
    of the v_k exactly, and unit = +-prod u_k is known through relative order
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
        pad = (0,) * v
        for i in range(k + 1, n):
            if vals[i][k] > order:
                continue
            factor = a[i][k].shift_down(v) * inv
            row = a[i]
            for j, x in tail:
                prod = factor * x
                row[j] = row[j] - TruncatedSeries._raw(pad + prod.nums, prod.den)
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
