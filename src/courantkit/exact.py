"""Exact scalar arithmetic and exact linear algebra over ℚ and ℚ[x1..xn].

A Scalar is either a rational number or a sparse multivariate polynomial with
rational coefficients.  Both are stored the same way: a dictionary mapping
monomial exponent tuples to rational coefficients,

    x1^2*x2 + 3/2   →   {(2, 1): 1, (): Fraction(3, 2)}

with three normalisation rules that make the representation *unique*:

  * no zero coefficients are stored (zero is the empty dict),
  * exponent tuples carry no trailing zeros, so the same value has the same
    key no matter how many ring variables are nominally around, and
  * an integral coefficient is a Python ``int``; any other is a ``Fraction``
    with denominator > 1.  Most coefficients met in practice are integers,
    and ``int`` arithmetic is several times faster than ``Fraction``
    arithmetic.  Every operation whose result may be integral (a sum of two
    Fractions, a product with a Fraction) normalises it back to ``int``; no
    coefficient is ever a float.  Code that divides raw coefficients wraps
    them in ``Fraction`` first (``1 / 2`` would be a float), or reads them
    through ``as_fraction``.

Equal scalars therefore have identical representations and ``==`` is exact
value equality.  The term dictionary keeps no particular order: hashing is
order-free, and the printed form fixes the order only when it is written,
graded lexicographic (descending).  All arithmetic is closed and exact;
nothing is ever rounded.

Variables are named x1, x2, ... in text form (x1 is exponent position 0).

Rational linear algebra runs on lists of Fraction rows, reduced by the one
Gauss–Jordan elimination ``_eliminate``; Scalars appear only at the API
(``rref``, ``kernel_basis``, ``solve_rational``, the rational inverse).
``Matrix`` keeps what the Gram and anchor matrices need: construction
(``identity`` too), equality, the symmetry test, the determinant and the
inverse.  Products with vectors run on sparse rows where they are used (the
spec's back-solve, a subbundle's block); the dense ``matvec``, ``matmul``
and ``transpose`` live in the test oracles.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

Exponent = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExactError(ValueError):
    """Arithmetic request that has no exact answer in ℚ[x] (e.g. 1/x1)."""


class ParseError(ValueError):
    """Malformed polynomial/form text; carries the offending fragment."""

    def __init__(self, message: str, text: str, position: int = 0):
        super().__init__(f"{message} at position {position} in {text!r}")
        self.message = message
        self.text = text
        self.position = position


def _trim(exp: Iterable[int]) -> Exponent:
    exp = tuple(exp)
    n = len(exp)
    while n and exp[n - 1] == 0:
        n -= 1
    return exp[:n]


def _grlex_key(exp: Exponent) -> tuple:
    return (sum(exp), exp)


def _coefficient(value) -> int | Fraction:
    """The canonical form of a rational coefficient: an int if integral,
    else a Fraction with denominator > 1; any other type is a TypeError."""
    if value.__class__ is not int:
        if value.__class__ is not Fraction:
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"coefficient {value!r} is not an int or a Fraction")
            value = Fraction(value)
        if value.denominator == 1:
            return value.numerator
    return value


class Scalar:
    """Immutable element of ℚ or ℚ[x1..xn] in canonical sparse form."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Exponent, int | Fraction] | None = None):
        merged: dict[Exponent, int | Fraction] = {}
        if terms:
            # keys may arrive untrimmed; same-monomial keys merge additively
            for exp, coeff in terms.items():
                if exp and not exp[-1]:
                    exp = _trim(exp)
                coeff = _coefficient(coeff)
                merged[exp] = merged[exp] + coeff if exp in merged else coeff
        self.terms = {exp: _coefficient(coeff)
                      for exp, coeff in merged.items() if coeff}
        self._hash = None

    @classmethod
    def _canonical(cls, terms: dict[Exponent, int | Fraction]) -> "Scalar":
        """Wrap a dict that is already canonical: trimmed keys, nonzero
        coefficients, integral ones as ints.  Skips the merge of
        ``__init__``."""
        out = object.__new__(cls)
        out.terms = terms
        out._hash = None
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value) -> "Scalar":
        q = _coefficient(value)
        return cls._canonical({(): q} if q else {})

    @classmethod
    def variable(cls, index: int) -> "Scalar":
        """The polynomial x_{index+1} (0-based index)."""
        if index < 0:
            raise ValueError(f"variable index must be >= 0, got {index}")
        return cls._canonical({(0,) * index + (1,): 1})

    @classmethod
    def monomial(cls, exp: Iterable[int], coeff=1) -> "Scalar":
        return cls({tuple(exp): coeff})

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and () in t)

    def as_fraction(self) -> Fraction:
        """The value of a rational constant, always as a Fraction (also when
        it is stored as an int), so that dividing by it stays exact."""
        if not self.terms:
            return _ZERO
        if self.is_rational():
            return Fraction(self.terms[()])
        raise ExactError(f"{self} is not a rational constant")

    @property
    def max_var_index(self) -> int:
        """Largest 0-based variable index occurring, or -1 for constants."""
        return max(map(len, self.terms), default=0) - 1

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Scalar | None":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.rational(other)
        return None

    def __add__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            if exp in out:
                total = out[exp] + coeff
                if not total:
                    del out[exp]
                elif total.__class__ is Fraction and total.denominator == 1:
                    out[exp] = total.numerator
                else:
                    out[exp] = total
            else:
                out[exp] = coeff
        return Scalar._canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._canonical({exp: -coeff for exp, coeff in self.terms.items()})

    def __sub__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other.terms:
            return self
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            if exp in out:
                total = out[exp] - coeff
                if not total:
                    del out[exp]
                elif total.__class__ is Fraction and total.denominator == 1:
                    out[exp] = total.numerator
                else:
                    out[exp] = total
            else:
                out[exp] = -coeff
        return Scalar._canonical(out)

    def __rsub__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        if len(b) == 1 and () in b:
            return self._scaled(b[()])
        if len(a) == 1 and () in a:
            return other._scaled(a[()])
        out: dict[Exponent, int | Fraction] = {}
        for ea, ca in a.items():
            la = len(ea)
            for eb, cb in b.items():
                # map stops at the shorter key; the longer one's tail follows
                lb = len(eb)
                exp = tuple(map(add, ea, eb))
                if la < lb:
                    exp += eb[la:]
                elif lb < la:
                    exp += ea[lb:]
                if exp in out:
                    out[exp] += ca * cb
                else:
                    out[exp] = ca * cb
        # sums of trimmed keys are trimmed; only merged terms can cancel
        return Scalar._canonical({exp: c if c.__class__ is int else _coefficient(c)
                                  for exp, c in out.items() if c})

    __rmul__ = __mul__

    def _scaled(self, q: int | Fraction) -> "Scalar":
        """self·q for a nonzero canonical coefficient q: the keys stay, no
        term cancels."""
        if q.__class__ is int:  # a Fraction coefficient is never ±1
            if q == 1:
                return self
            if q == -1:
                return -self
        return Scalar._canonical({exp: _coefficient(c * q)
                                  for exp, c in self.terms.items()})

    def __truediv__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        q = other.as_fraction()
        if q == 0:
            raise ZeroDivisionError("division of Scalar by zero")
        return self * Scalar.rational(1 / q)

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise ValueError("Scalar powers must be non-negative integers")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            self._hash = h
        return h

    # -- calculus ------------------------------------------------------

    def partial(self, var: int) -> "Scalar":
        """∂/∂x_{var+1}, exact.  Constants (and rationals) differentiate to 0."""
        # lowering one exponent is injective on monomials: nothing merges
        out: dict[Exponent, int | Fraction] = {}
        for exp, coeff in self.terms.items():
            if var < len(exp) and exp[var] > 0:
                new = list(exp)
                new[var] -= 1
                out[_trim(new)] = (coeff if exp[var] == 1
                                   else _coefficient(coeff * exp[var]))
        return Scalar._canonical(out)

    # -- text form -------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form; round-trips through parse_scalar."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exp]
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(exp) if e]
            mag = coeff if coeff > 0 else -coeff
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Scalar({self.to_text()!r})"


ZERO = Scalar()
ONE = Scalar.rational(1)
HALF = Scalar.rational(Fraction(1, 2))


_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"^\d+(/\d+)?$")
_VAR_RE = re.compile(r"^x(\d+)(\^(\d+))?$")


def _split_signed_terms(text: str) -> list[tuple[int, str, int]]:
    """Split ``text`` at top-level +/- into (sign, term, position) triples."""
    if not text.strip():
        raise ParseError("empty expression", text)
    out: list[tuple[int, str, int]] = []
    sign = 1
    current: list[str] = []
    start = 0
    seen_content = False
    for i, ch in enumerate(text):
        if ch in "+-" and seen_content:
            chunk = "".join(current).strip()
            if not chunk:
                raise ParseError("missing term", text, i)
            out.append((sign, chunk, start))
            sign = 1 if ch == "+" else -1
            current = []
            start = i + 1
        elif ch in "+-":
            sign *= 1 if ch == "+" else -1
            start = i + 1
        else:
            current.append(ch)
            if not ch.isspace():
                seen_content = True
    chunk = "".join(current).strip()
    if not chunk:
        raise ParseError("missing term", text, len(text))
    out.append((sign, chunk, start))
    return out


def parse_scalar(text: str) -> Scalar:
    """Parse the polynomial text syntax: terms of ``coef*x<i>^<e>*...``.

    Coefficients are rationals like ``3/2``; variables are ``x1..xn``.
    Examples: ``"x1^2 - 2*x2"``, ``"3/2*x1*x2^3"``, ``"0"``.  An ASCII
    integer literal, most entries of a structure file, is read directly.
    """
    if _INTEGER_RE.fullmatch(text):
        return Scalar.rational(int(text))
    result = ZERO
    for sign, chunk, start in _split_signed_terms(text):
        coeff = Fraction(sign)
        exps: dict[int, int] = {}
        offset = text.index(chunk, start)
        for raw in chunk.split("*"):
            factor = raw.strip()
            at = offset + len(raw) - len(raw.lstrip())
            offset += len(raw) + 1
            if not factor:
                raise ParseError("empty factor", text, at)
            if _RATIONAL_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ParseError("zero denominator", text, at) from None
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ParseError(f"bad factor {factor!r}", text, at)
            idx = int(m.group(1)) - 1
            if idx < 0:
                raise ParseError("variables are named x1, x2, ...", text, at)
            exps[idx] = exps.get(idx, 0) + (int(m.group(3)) if m.group(3) else 1)
        if exps:
            width = max(exps) + 1
            exp = tuple(exps.get(i, 0) for i in range(width))
        else:
            exp = ()
        result = result + Scalar.monomial(exp, coeff)
    return result


# ---------------------------------------------------------------------------
# Matrices


class Matrix:
    """Immutable dense matrix of Scalars with exact operations."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        grid = tuple(tuple(e if isinstance(e, Scalar) else Scalar.rational(e)
                           for e in row) for row in entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(e.to_text() for e in row) for row in self.entries)
        return f"Matrix[{body}]"

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i))

    def is_rational(self) -> bool:
        return all(e.is_rational() for row in self.entries for e in row)

    def fraction_grid(self) -> list[list[Fraction]]:
        """Entries as Fractions; raises ExactError on polynomial entries."""
        return [[e.as_fraction() for e in row] for row in self.entries]

    def det(self) -> Scalar:
        """Determinant by division-free Laplace expansion (memoised on
        column subsets), valid over the polynomial ring."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return ONE
        cache: dict[tuple[int, ...], Scalar] = {(): ONE}

        def minor_det(cols: tuple[int, ...]) -> Scalar:
            if cols in cache:
                return cache[cols]
            row = n - len(cols)
            total = ZERO
            for k, c in enumerate(cols):
                entry = self.entries[row][c]
                if entry.is_zero():
                    continue
                sub = minor_det(cols[:k] + cols[k + 1:])
                term = entry * sub
                total = total + term if k % 2 == 0 else total - term
            cache[cols] = total
            return total

        return minor_det(tuple(range(n)))

    def inverse(self) -> "Matrix":
        """Exact inverse.  Requires the determinant to be a nonzero rational
        (a unit of ℚ[x]); reduces [A | I] to [I | A⁻¹] when all entries are
        rational and uses the adjugate otherwise."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        if self.is_rational():
            rows = [row + [_ONE if i == j else _ZERO for j in range(n)]
                    for i, row in enumerate(self.fraction_grid())]
            if len(_eliminate(rows, n)) < n:
                raise ExactError("matrix is singular")
            return _scalar_matrix(row[n:] for row in rows)
        d = self.det()
        if not d.is_rational() or d.is_zero():
            raise ExactError("polynomial matrix inverse needs a nonzero "
                             f"rational determinant, got {d}")
        inv_d = 1 / d.as_fraction()
        cof = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                sub = Matrix([[self.entries[r][c] for c in range(n) if c != j]
                              for r in range(n) if r != i])
                sign = 1 if (i + j) % 2 == 0 else -1
                cof[j][i] = sub.det() * Fraction(sign) * inv_d
        return Matrix(cof)


def _eliminate(rows: list[list[Fraction]], width: int) -> list[int]:
    """Reduce Fraction rows in place to reduced row-echelon form over their
    first ``width`` columns, later columns riding along; returns the pivot
    columns."""
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        lead = rows[r] = [v * inv if v else v for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [v - f * w if w else v for v, w in zip(row, lead)]
        pivots.append(c)
    return pivots


def _kernel(rows: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """Basis of the right kernel of Fraction rows of the given width, reduced
    in place: one vector per free column, first nonzero entry positive."""
    pivots = _eliminate(rows, width)
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        vec = [_ZERO] * width
        vec[f] = _ONE
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        lead = next(v for v in vec if v)
        basis.append([-v for v in vec] if lead < 0 else vec)
    return basis


def _scalar_matrix(rows: Iterable[Sequence[Fraction]]) -> Matrix:
    return Matrix([[Scalar.rational(v) for v in row] for row in rows])


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row-echelon form of a rational matrix.

    Returns (reduced matrix, rank, pivot columns).  The RREF is unique, so
    the result is canonical.  Polynomial entries raise ExactError.
    """
    grid = m.fraction_grid()
    pivots = _eliminate(grid, m.cols)
    return _scalar_matrix(grid), len(pivots), tuple(pivots)


def kernel_basis(m: Matrix) -> list[tuple[Scalar, ...]]:
    """Basis of the right kernel of a rational matrix.

    The returned vectors are independent, annihilated by m, and span ker m;
    their count is cols − rank.  Each vector is normalised so its first
    nonzero entry is positive.
    """
    return [tuple(Scalar.rational(v) for v in vec)
            for vec in _kernel(m.fraction_grid(), m.cols)]


def solve_rational(m: Matrix, rhs: Sequence[Scalar]) -> tuple[Scalar, ...] | None:
    """One exact solution of m·x = rhs over ℚ (every free variable 0), or
    None if inconsistent."""
    grid = m.fraction_grid()
    b = [s.as_fraction() for s in rhs]
    if len(b) != m.rows:
        raise ValueError("dimension mismatch in solve_rational")
    for row, bv in zip(grid, b):
        row.append(bv)
    pivots = _eliminate(grid, m.cols)
    if any(row[m.cols] for row in grid[len(pivots):]):
        return None
    sol = [ZERO] * m.cols
    for r, p in enumerate(pivots):
        sol[p] = Scalar.rational(grid[r][m.cols])
    return tuple(sol)


def wedge_indices(rank: int, degree: int) -> list[tuple[int, ...]]:
    """Strictly increasing index tuples: the basis wedges of Λ^degree."""
    return list(itertools.combinations(range(rank), degree))
