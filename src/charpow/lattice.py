"""Exact integer-matrix linear algebra specialized to p-local questions.

Matrices are immutable tuples of tuples of Python ints.  Two canonical
Hermite forms are used throughout the package:

* column HNF (``hnf``, ``column_span_basis``): canonical basis of the
  *column span* of a matrix.  Upper triangular, positive pivots, entries to
  the right of each pivot reduced into ``[0, pivot)``.  This is the
  ``LatticeBasis`` form.
* row HNF (``row_hnf``): canonical representative of the *left*
  GL_n(Z)-orbit of a matrix.  Upper triangular, positive pivots, entries
  above each pivot reduced modulo the pivot of their column.  Two matrices
  have the same row HNF iff they define the same kernel on (Q_p/Z_p)^n,
  which is what makes subgroup equality a plain equality test.

Everything comes from one xgcd column echelon, ``rational_span``.  Its
pivot columns are a fraction-free basis of the Q-span (their number is the
rank).  Reduced off the pivots they give the column HNF; the row HNF is
the column HNF of the anti-transpose, flipped back, and the Smith form
(``snf``) alternates the two until the matrix is diagonal.  Back
substitution on a triangular basis (``solve_integer``) solves over Z, so
every entry stays an int: there are no rational inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import LevelMismatchError, NotInLatticeError, SingularMatrixError

Matrix = tuple  # tuple of tuples of int


def freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def scalar_matrix(n: int, c: int) -> Matrix:
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = len(b[0])
    inner = len(b)
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols))
        for row in a
    )


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_det(a: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    m = [list(row) for row in a]
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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_valuation(x: int, p: int) -> int:
    if p < 2:
        raise ValueError(f"p = {p} must be at least 2")
    if x == 0:
        raise SingularMatrixError("valuation of zero")
    v = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        v += 1
    return v


def is_p_power(x: int, p: int) -> bool:
    """Whether x = p^e for some e >= 0."""
    return x == p ** int_valuation(x, p)


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to all _BASES


def is_prime(p: int) -> bool:
    """Whether p is prime, by Miller-Rabin on the first 13 primes as bases, which is exact
    below PRIME_BOUND (Sorenson and Webster, Math. Comp. 86 (2017)); ValueError from it up."""
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} is at least {PRIME_BOUND}; primality is decided below it")
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    for a in _BASES:  # p prime: a^d = 1, or a^(d 2^i) = -1 for some i < s
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and p - 1 not in (pow(x, 1 << i, p) for i in range(s)):
            return False
    return True


@dataclass(frozen=True)
class PAdicMatrix:
    """Integer square matrix viewed in M_n(Z_p); carrier for isogenies and duals."""

    p: int
    entries: Matrix

    def __post_init__(self):
        object.__setattr__(self, "entries", freeze(self.entries))
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("entries must be square")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def det(self) -> int:
        return mat_det(self.entries)

    def is_automorphism(self) -> bool:
        return self.det != 0 and self.det % self.p != 0

    def mul(self, other: "PAdicMatrix") -> "PAdicMatrix":
        if self.p != other.p:
            raise LevelMismatchError("prime mismatch")
        return PAdicMatrix(self.p, mat_mul(self.entries, other.entries))


@dataclass(frozen=True)
class LatticeBasis:
    """Column-HNF basis of a finite-index sublattice of Z^n."""

    p: int
    matrix: Matrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(self.matrix))
        m = self.matrix
        n = len(m)
        for i in range(n):
            if m[i][i] <= 0:
                raise ValueError("pivots must be positive")
            for j in range(n):
                if j < i and m[i][j] != 0:
                    raise ValueError("basis must be upper triangular")
                if j > i and not 0 <= m[i][j] < m[i][i]:
                    raise ValueError("entries right of a pivot must be reduced")

    @property
    def n(self) -> int:
        return len(self.matrix)

    def index(self) -> int:
        """Index [Z^n : L]; equals the product of the diagonal.

        For the annihilator lattice Lambda_H this is |H|, the orbit count
        behind the sum bijections.
        """
        out = 1
        for i in range(self.n):
            out *= self.matrix[i][i]
        return out


def _eliminate_row(cols, active, r):
    """Column ops among ``active`` columns leaving a single nonzero in row r.

    Returns the index (within ``active``) of the surviving pivot column, or
    None if row r vanishes on the active columns.
    """
    acc = None
    for idx in active:
        if cols[idx][r] != 0:
            acc = idx
            break
    if acc is None:
        return None
    for idx in active:
        if idx == acc or cols[idx][r] == 0:
            continue
        a, b = cols[acc][r], cols[idx][r]
        g, x, y = _xgcd(a, b)
        ca, ci = cols[acc], cols[idx]
        new_acc = [x * u + y * v for u, v in zip(ca, ci)]
        new_idx = [(a // g) * v - (b // g) * u for u, v in zip(ca, ci)]
        cols[acc], cols[idx] = new_acc, new_idx
    return acc


def _reduce_hnf_entries(h):
    """In-place reduction: entries right of each pivot into [0, pivot).

    The top square block of h is upper triangular.  The column operations
    act on every row, so rows stacked below that block (a transform
    matrix) follow along; the block itself is zero below each pivot.
    """
    n = len(h[0])
    for i in range(n - 1, -1, -1):
        if h[i][i] < 0:
            for row in h:
                row[i] = -row[i]
        for j in range(i + 1, n):
            q = h[i][j] // h[i][i]
            if q:
                for row in h:
                    row[j] -= q * row[i]


def rational_span(columns, nrows: int) -> dict:
    """Bottom-up xgcd column echelon of the top nrows rows, as {row: pivot column}.

    Row by row, column operations among the columns not yet taken as pivots
    leave one nonzero at that row, in its pivot column; a row that vanishes
    on them gets none.  The pivot column of row r is zero below r, and the
    pivot columns are a fraction-free basis of the Q-span of the columns,
    so their number is the rank over Q.
    """
    cols = [list(col) for col in columns]
    active = list(range(len(cols)))
    pivots = {}
    for r in range(nrows - 1, -1, -1):
        piv = _eliminate_row(cols, active, r)
        if piv is not None:
            pivots[r] = cols[piv]  # no longer active, so final
            active.remove(piv)
    return pivots


def _column_echelon(entries, n: int):
    """Column operations putting the top n rows of a matrix in column HNF.

    Returns every row of the n pivot columns, reduced off the pivots: the
    HNF basis on top, and below it whatever rows were stacked under the
    top block.  Raises SingularMatrixError if the top n rows do not have
    full rank.
    """
    pivots = rational_span(zip(*entries), n)
    if len(pivots) < n:
        raise SingularMatrixError("columns do not have full rank")
    h = [list(row) for row in zip(*(pivots[r] for r in range(n)))]
    _reduce_hnf_entries(h)
    return freeze(h)


def column_span_basis(entries) -> Matrix:
    """Column-HNF basis (n x n, upper triangular) of the span of an n x m matrix.

    Raises SingularMatrixError if the columns do not span a rank-n lattice.
    """
    return _column_echelon(entries, len(entries))


def hnf(entries, p: int):
    """Column Hermite normal form of a nonsingular integer matrix.

    Returns (H, U) with H a LatticeBasis, U unimodular and entries . U = H.matrix:
    the column operations that reduce [A; I] to its HNF carry I to U.
    """
    n = len(entries)
    full = _column_echelon(tuple(entries) + identity_matrix(n), n)
    return LatticeBasis(p, full[:n]), full[n:]


def _flip(entries) -> Matrix:
    """Anti-transpose: _flip(M)[a][b] = M[n-1-b][n-1-a].

    It reverses products, _flip(U . A) = _flip(A) . _flip(U), keeps upper
    triangular matrices upper triangular, and carries the row-HNF
    conditions onto the column-HNF ones.
    """
    return tuple(zip(*entries[::-1]))[::-1]


def row_hnf(entries) -> Matrix:
    """Row Hermite normal form: the canonical element of the left GL_n(Z)-orbit.

    Upper triangular with positive pivots; above-pivot entries lie in
    [0, pivot of their column).  Since the HNF is unique, it is the flip of
    the column HNF of the flipped matrix.  It depends only on the row
    lattice, so entries may be any m x n rows (m >= n) that span a rank-n
    lattice: row_hnf of a stack is row_hnf of a square basis of its rows.
    """
    return _flip(column_span_basis(_flip(entries)))


def snf(m: PAdicMatrix) -> tuple:
    """Elementary divisors of Z^n / M Z^n, returned as their p-parts.

    They give the isomorphism type of the kernel of the isogeny M, a finite
    subgroup of the torus of order p^{v_p(det M)}.

    Column and row Hermite forms alternate until the matrix is diagonal
    (Kannan-Bachem): each round the bottom-right pivot divides the one
    before, and once it divides its row and column the next form clears
    them.  The chain d_1 | d_2 | ... | d_n is preserved.
    """
    if m.det == 0:
        raise SingularMatrixError("snf requires a nonsingular matrix")
    n = m.n
    a = m.entries
    while any(a[i][j] for i in range(n) for j in range(n) if i != j):
        a = mat_transpose(column_span_basis(mat_transpose(column_span_basis(a))))
    d = [abs(a[i][i]) for i in range(n)]
    # enforce d_1 | d_2 | ... | d_n
    for i in range(n - 1):
        for j in range(i + 1, n):
            if d[j] % d[i] != 0:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] * d[j] // g
    d.sort()
    return tuple(m.p ** int_valuation(x, m.p) for x in d)


def _back_substitute(b: Matrix, target) -> Matrix:
    """Solve B . X = T over Z for an upper triangular B, or raise NotInLatticeError."""
    n = len(b)
    xcols = []
    for col in zip(*target):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            r = col[i]
            for j in range(i + 1, n):
                r -= b[i][j] * x[j]
            if r % b[i][i] != 0:
                raise NotInLatticeError("column not in the lattice")
            x[i] = r // b[i][i]
        xcols.append(x)
    return freeze(zip(*xcols))


def solve_integer(basis: LatticeBasis, target) -> Matrix:
    """Solve B . X = T over Z; NotInLatticeError if a column of T is outside B's lattice."""
    return _back_substitute(basis.matrix, target)
