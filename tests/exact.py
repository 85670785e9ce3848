"""Exact decisions on small matrices of doubles, by the standard library only:
a double is exactly Fraction(float(v)), and integer and Fraction arithmetic
never round, so these references share no rounding with the code they check."""
import math
from fractions import Fraction


def gram(A):
    """A^T A, exactly, for a matrix A of doubles; summed as integers over the
    entries' common power-of-two denominator, which is faster than Fractions."""
    den = max(float(v).as_integer_ratio()[1] for row in A for v in row)
    cols = list(zip(*([int(Fraction(float(v)) * den) for v in row] for row in A)))
    return [[Fraction(sum(a * b for a, b in zip(ci, cj)), den * den) for cj in cols]
            for ci in cols]


def shifted(A, t):
    """A - t I, exactly, for a square matrix A of Fractions and a number t."""
    return [[a - Fraction(t) if i == j else a for j, a in enumerate(row)]
            for i, row in enumerate(A)]


def is_psd(A, strict=False):
    """Whether the symmetric matrix A of Fractions is positive semidefinite
    (definite with strict), by fraction-free (Bareiss) LDL^T on its lower
    triangle times the common denominator. A negative pivot decides no; so
    does a zero pivot with strict or a nonzero entry below it (a 2 x 2
    principal minor below zero); else that pivot's column is skipped."""
    den = math.lcm(*(a.denominator for row in A for a in row))
    A = [[int(a * den) for a in row] for row in A]
    n, prev = len(A), 1
    for k in range(n):
        d = A[k][k]
        if d < 0 or d == 0 and (strict or any(A[i][k] for i in range(k + 1, n))):
            return False
        if d == 0:
            continue
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):  # Sylvester's identity: the division is exact
                A[i][j] = (d * A[i][j] - A[i][k] * A[j][k]) // prev
        prev = d
    return True
