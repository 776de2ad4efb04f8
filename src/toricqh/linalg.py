"""Exact integer and rational linear algebra helpers.

Matrices are lists of rows of ints or Fractions; sizes are tiny (dimension
<= 4, a handful of facets).  Each job has one kernel:

- `adjugate_times`, fraction-free (Bareiss) Gauss-Jordan over the integers,
  finds the vertices when a polytope is loaded (`validate_delzant`) and the
  integer dual bases of its vertices (`unimodular_dual`);
- `gauss_jordan` solves every system over the rationals: `solve_rational`,
  `rank` and `in_span` here, and the unit system of `quantum.qinv`;
- `kernel_basis_int`, a Hermite reduction, answers every lattice question:
  the H2 lattice and edge directions of a polytope, and
  `in_rational_lattice`;
- `det`, a cofactor expansion, sizes simplices in `polytope.centroid` and
  stays the independent reference that the tests hold the Bareiss path to.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import NotSmooth


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_content(u):
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for a in u:
        g = gcd(g, abs(a))
    return g


def det(m):
    """Exact determinant by fraction-free expansion (small n)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def solve_unimodular(cols, target):
    """Solve sum_j a_j * cols[j] = target for an integer square system.

    `cols` is a list of n integer n-vectors with |det| = 1; the solution is
    integral.  Returns a tuple of ints.
    """
    n = len(cols)
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    sol = solve_rational(m, target)
    if any(x.denominator != 1 for x in sol):
        raise NotSmooth(f"the columns {cols} are not a unimodular basis: "
                        f"{target} has coordinates {sol}")
    return tuple(int(x) for x in sol)


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


def kernel_basis_int(m):
    """Basis of the integer kernel lattice {x : m x = 0} of an int matrix.

    Column-style Hermite reduction: apply unimodular column operations to
    [m; I] until the top block has pivot columns followed by zero columns;
    the bottom parts of the zero columns form a lattice basis of the kernel.
    """
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    work = [list(r) for r in m] + [[1 if i == j else 0 for j in range(cols)]
                                   for i in range(cols)]
    top = rows

    def col(j):
        return [work[i][j] for i in range(len(work))]

    def swap(j, k):
        for i in range(len(work)):
            work[i][j], work[i][k] = work[i][k], work[i][j]

    def addmul(j, k, c):
        # col_j += c * col_k
        for i in range(len(work)):
            work[i][j] += c * work[i][k]

    pivot_row = 0
    pivot_col = 0
    while pivot_row < top and pivot_col < cols:
        # gcd-reduce entries of this row across columns >= pivot_col
        while True:
            nz = [j for j in range(pivot_col, cols) if work[pivot_row][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(work[pivot_row][j]))
            swap(pivot_col, jmin)
            done = True
            for j in range(pivot_col + 1, cols):
                if work[pivot_row][j] != 0:
                    q = work[pivot_row][j] // work[pivot_row][pivot_col]
                    addmul(j, pivot_col, -q)
                    if work[pivot_row][j] != 0:
                        done = False
            if done:
                break
        if any(work[pivot_row][j] != 0 for j in range(pivot_col, cols)):
            pivot_col += 1
        pivot_row += 1

    basis = []
    for j in range(pivot_col, cols):
        if all(work[i][j] == 0 for i in range(top)):
            basis.append(tuple(work[i][j] for i in range(top, top + cols)))
    return basis


def in_rational_lattice(rows, v):
    """Membership of a rational vector v in the lattice spanned by rational
    rows (integer combinations).

    With denominators cleared, v is an integer combination of the rows iff
    some integer kernel vector of the columns (rows..., v) ends in -1, that
    is iff the last entries of a kernel lattice basis have gcd 1."""
    den = lcm(*(Fraction(x).denominator for row in (*rows, v) for x in row))
    cols = [[int(Fraction(x) * den) for x in row] for row in (*rows, v)]
    if not cols[0]:  # no coordinates: v is the empty vector
        return True
    kernel = kernel_basis_int(list(zip(*cols)))
    return gcd(*(x[-1] for x in kernel)) == 1
