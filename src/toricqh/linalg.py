"""Exact integer and rational linear algebra helpers.

Matrices are lists of rows of ints or Fractions; sizes are small (the
dimension of the polytope, a few dozen facets at most).  Each job has one
kernel:

- `adjugate_times`, fraction-free (Bareiss) Gauss-Jordan over the integers,
  finds the first feasible basis of `validate_delzant`'s pivot walk with
  its inverse, the edge directions of `kernel_line` and, through
  `unimodular_dual`, the dual bases of a polytope built by hand or by
  `dataclasses.replace`;
- `reduce_row`, one fraction-free elimination step, builds the echelons of
  the walk's start and of `kernel_line`, so that a dependent row is found
  before any solve;
- `gauss_jordan` solves every system over the rationals: `solve_rational`,
  `rank` and `in_span` here, and the unit system of `quantum.qinv`.
"""

from fractions import Fraction
from operator import mul

from .errors import NotSmooth


def vec_dot(u, v):
    return sum(map(mul, u, v))


def adjugate_times(m, rhs):
    """(det m, adj(m) * rhs) for a square integer matrix m and an integer
    matrix rhs with as many rows, in integer arithmetic; (0, None) when m
    is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
    on [m | rhs]: every entry stays a minor of the augmented matrix, so each
    division is exact, and the elimination ends at [p*I | p*m^-1*rhs] with
    p = +-det m, the sign of its row permutation."""
    n = len(m)
    a = [list(row) + list(extra) for row, extra in zip(m, rhs)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev
                        for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def reduce_row(v, echelon):
    """(first nonzero column or None, v reduced) of the integer row v
    against the echelon ((pivot column, row), ...), each row 0 on the pivots
    before its own; fraction-free, so the reduced row stays integral and is
    0 on every pivot.  The column is None iff v lies in the rows' span."""
    for p, row in echelon:
        if v[p]:
            v = [row[p] * x - v[p] * y for x, y in zip(v, row)]
    return next((c for c, x in enumerate(v) if x), None), v


def kernel_line(rows):
    """An integer vector spanning the kernel of n - 1 integer n-vectors,
    None when the rows are dependent and the kernel is no line.

    Completed by the unit vector e_k of the one column no pivot of their
    echelon took, the rows form an invertible matrix M; M adj(M) = det M * I
    puts the last column of adj(M) in the kernel, and e_k gives it the
    entry det M != 0."""
    echelon = ()
    for row in rows:
        p, v = reduce_row(row, echelon)
        if p is None:
            return None
        echelon += ((p, v),)
    n = len(rows) + 1
    k = (set(range(n)) - {p for p, _ in echelon}).pop()
    _, adj = adjugate_times([*rows, [int(c == k) for c in range(n)]],
                            [[int(r == n - 1)] for r in range(n)])
    return [x for x, in adj]


def unimodular_dual(cols):
    """The dual basis of n integer n-vectors with |det| = 1: the integer
    rows y_j with <y_j, cols[k]> = [j == k], so that the coordinates of v in
    the basis `cols` are the dot products <y_j, v>.

    The rows are those of the inverse det * adj of the matrix with columns
    `cols`."""
    n = len(cols)
    d, adj = adjugate_times([[c[i] for c in cols] for i in range(n)],
                            [[int(i == j) for j in range(n)]
                             for i in range(n)])
    if abs(d) != 1:
        raise NotSmooth(f"the columns {cols} are not a unimodular basis: "
                        f"|det| = {abs(d)}")
    return tuple(tuple(d * x for x in row) for row in adj)


def gauss_jordan(rows, rhs, columns):
    """Solve the sparse system rows . x = rhs exactly by Gauss-Jordan
    elimination; returns (x, rank).

    Each row is a {column: Fraction} dict whose keys lie in `columns`.
    The columns are eliminated in the given order, each pivoting on the
    first unused row with a nonzero entry there.  x maps every column to
    its value, 0 on the columns without a pivot, so for a fixed column
    order it is the unique solution read off the reduced row echelon form;
    x is None when an unused row keeps a nonzero right-hand side.  The
    caller's rows are not modified."""
    rows = [dict(row) for row in rows]
    rhs = list(rhs)
    unused = list(range(len(rows)))
    pivots = {}
    for j in columns:
        piv = next((r for r in unused if rows[r].get(j)), None)
        if piv is None:
            continue
        unused.remove(piv)
        pivots[j] = piv
        prow, pv = rows[piv], rows[piv][j]
        for r, row in enumerate(rows):
            if r == piv or not row.get(j):
                continue
            f = row[j] / pv
            for jj, v in prow.items():
                cur = row.get(jj, 0) - f * v
                if cur:
                    row[jj] = cur
                else:
                    row.pop(jj, None)
            rhs[r] -= f * rhs[piv]
    if any(rhs[r] for r in unused):
        return None, len(pivots)
    return {j: rhs[pivots[j]] / rows[pivots[j]][j] if j in pivots
            else Fraction(0) for j in columns}, len(pivots)


def _sparse_rows(m):
    return [{j: Fraction(x) for j, x in enumerate(row) if x} for row in m]


def solve_rational(m, target):
    """Solve m x = target exactly; raises ValueError if singular.

    `m` is square over ints/Fractions, `target` a vector.
    """
    n = len(m)
    x, r = gauss_jordan(_sparse_rows(m), target, range(n))
    if r < n:
        raise ValueError("singular matrix")
    return tuple(x[j] for j in range(n))


def rank(m):
    """Rank of a matrix over the rationals."""
    if not m:
        return 0
    return gauss_jordan(_sparse_rows(m), [0] * len(m), range(len(m[0])))[1]


def in_span(vectors, v):
    """True if v lies in the rational span of `vectors`."""
    base = [list(u) for u in vectors]
    return rank(base + [list(v)]) == rank(base)
