"""Exact integer and rational linear algebra helpers.

Everything operates on plain tuples/lists of ints or Fractions.  Matrices are
lists of rows.  Sizes here are tiny (dimensions <= 4, a handful of facets),
so clarity beats asymptotics throughout.
"""

from fractions import Fraction
from math import gcd

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


def solve_rational(m, target):
    """Solve m x = target exactly; raises ValueError if singular.

    `m` is square over ints/Fractions, `target` a vector.
    """
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(target[i])]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def rank(m):
    """Rank of a matrix over the rationals."""
    if not m:
        return 0
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0])
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


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


def lattice_membership_basis(vectors):
    """Hermite basis (row form) of the lattice generated by integer vectors."""
    work = [list(v) for v in vectors if any(x != 0 for x in v)]
    if not work:
        return []
    cols = len(work[0])
    basis = []
    row = 0
    for col in range(cols):
        cand = [i for i in range(row, len(work)) if work[i][col] != 0]
        if not cand:
            continue
        while True:
            cand = [i for i in range(row, len(work)) if work[i][col] != 0]
            if len(cand) <= 1:
                break
            imin = min(cand, key=lambda i: abs(work[i][col]))
            work[row], work[imin] = work[imin], work[row]
            for i in range(row + 1, len(work)):
                if work[i][col] != 0:
                    q = work[i][col] // work[row][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[row])]
        cand = [i for i in range(row, len(work)) if work[i][col] != 0]
        if cand:
            work[row], work[cand[0]] = work[cand[0]], work[row]
            if work[row][col] < 0:
                work[row] = [-a for a in work[row]]
            basis.append(tuple(work[row]))
            row += 1
    return basis


def in_lattice(hermite_rows, v):
    """Membership of integer vector v in the lattice with the given Hermite
    row basis (as produced by lattice_membership_basis)."""
    v = list(v)
    for row in hermite_rows:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        if v[lead] % row[lead] == 0:
            q = v[lead] // row[lead]
            v = [a - q * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def in_rational_lattice(rows, v):
    """Membership of a rational vector v in the lattice spanned by rational
    rows (integer combinations).  Clears denominators and defers to the
    integer test."""
    den = 1
    for row in rows:
        for x in row:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    for x in v:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    int_rows = [tuple(int(Fraction(x) * den) for x in row) for row in rows]
    int_v = tuple(int(Fraction(x) * den) for x in v)
    return in_lattice(lattice_membership_basis(int_rows), int_v)
