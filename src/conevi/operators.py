"""Affine operators and their monotonicity / Lipschitz / contraction constants.

The monotone modulus beta is the smallest eigenvalue of the symmetric part
of M; the Lipschitz constant L is the spectral norm. With the step size
alpha = beta/L**2 the map I - alpha*F contracts with factor
gamma = sqrt(1 - beta**2/L**2) < 1, which every solver in this library
leans on.

L is a certified upper bound on ||M||_2: an estimate of the top eigenvalue
of fl(M^T M) (Lanczos, or the dense eigensolver for small n), padded for
every rounding error and proved by one floating-point Cholesky
factorization (Rump, "Verification of positive definiteness", BIT 46,
2006). It exceeds ||M||_2 by at most about n**2 * eps relative. beta is
LAPACK's dense symmetric eigenvalue, accurate to its backward error, a
small multiple of n*eps*||M||, in either direction. A coordinate that
(M + M^T)/2 does not couple to any other (no off-diagonal nonzero in its
row) contributes its diagonal entry exactly, and only the remaining
coordinates go to the eigensolver, so a symmetric part that is diagonal
(a skew-dominated saddle, beta*I plus a skew part) costs no eigensolve and
one that is diag(0, sym M, 0) (the polyhedral reductions) costs one the
size of M. When every coordinate is coupled, as for a dense M, the one
dense eigensolve runs on all of it.

Entries with a magnitude outside 2**(+-256) are scaled by a power of two
for both constants, so neither overflows on entries near the largest
double.

Each AffineOperator class also chooses the Newton system that
conevi.projective.solve_ipm factors on it (_newton_factor): this module's
is the dense n x n one, and IpmBreakdown, the solver's error, lives here
with the LU factorization that raises it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsymv, dsyrk
from scipy.linalg.lapack import dpotrf

from .cones import _finite, _max_abs, _positive_int, _vector

__all__ = [
    "NotStronglyMonotone",
    "ContractionParams",
    "Operator",
    "AffineOperator",
    "CallableOperator",
    "monotone_modulus",
    "lipschitz_constant",
    "iteration_bound",
]


class NotStronglyMonotone(Exception):
    """Contraction parameters were requested for an operator with beta <= 0."""

    def __init__(self, beta: float):
        super().__init__(f"operator is not strongly monotone (beta={beta:.6g})")
        self.beta = beta


class IpmBreakdown(Exception):
    """The interior-point Newton system lost positivity or finiteness, or
    became singular."""


@dataclass(frozen=True)
class ContractionParams:
    beta: float
    lipschitz: float
    alpha: float
    gamma: float


def _check_square(M) -> tuple[np.ndarray, float]:
    """(M as a float array, its largest entry magnitude); ValueError unless
    M is square, nonempty and with finite entries."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {M.shape}")
    amax = _max_abs(M)
    if not math.isfinite(amax):
        raise ValueError("matrix has non-finite entries")
    return M, amax


_U = 2.0**-53  # unit roundoff of binary64
_ETA = math.ulp(0.0)  # smallest subnormal, the error floor under underflow
# M is rescaled only when its largest entry lies outside 2**(+-_SAFE_EXP);
# inside, n * max**2 cannot overflow and the norm is far above the underflow floor
_SAFE_EXP = 256
_GROWTH = 4.0  # factor on the shift's headroom after a failed Cholesky
# where Lanczos overtakes the dense eigensolver (about 3 ms each on a 2-core
# x86 with OpenBLAS 0.3.31, one or two threads)
_LANCZOS_MIN_N = 300
_TILE = 256  # side of the square tiles _transpose_sum adds, 512 KB of doubles


def _scaled(M: np.ndarray, amax: float) -> tuple[np.ndarray, int]:
    """(M * 2**shift, shift) for the largest entry magnitude amax of M.

    shift is 0, and M is returned itself, unless amax lies outside
    2**(+-_SAFE_EXP); then the scaled largest entry lies in [1/2, 1). The
    scaling is exact, except for entries that underflow.
    """
    _, exp = math.frexp(amax)
    shift = 0 if abs(exp) <= _SAFE_EXP else -exp
    return (np.ldexp(M, shift) if shift else M), shift


def _lowest_eigenvalue(A: np.ndarray) -> float:
    """Smallest eigenvalue of the finite symmetric A, which LAPACK may
    overwrite; a Fortran-ordered A is used without a copy."""
    return float(scipy.linalg.eigvalsh(A, subset_by_index=[0, 0], overwrite_a=True,
                                       check_finite=False)[0])


def _smallest_eigenvalue(S: np.ndarray) -> float:
    """Smallest eigenvalue of the finite, exactly symmetric S, which it may
    overwrite.

    A coordinate with no off-diagonal nonzero in S is an eigenvector, so it
    contributes its diagonal entry, exactly. The other coordinates form a
    diagonal block of S up to a permutation, and get one dense eigensolve,
    accurate to a small multiple of its size times eps times its norm, which
    is at most ||S||. When every coordinate is coupled, as for a dense M,
    the eigensolve runs on S itself.
    """
    pattern = S != 0.0
    np.fill_diagonal(pattern, False)
    coupled = pattern.any(axis=1)
    del pattern  # held across the eigensolve, it left about 0.5 MB more resident
    if coupled.all():
        # S is symmetric, so S.T is the same matrix in Fortran order
        return _lowest_eigenvalue(S.T)
    smallest = float(S.diagonal()[~coupled].min())
    if coupled.any():
        smallest = min(smallest, _lowest_eigenvalue(S[np.ix_(coupled, coupled)].T))
    return smallest


def _transpose_sum(A: np.ndarray) -> np.ndarray:
    """A + A^T for a square A, bit for bit, added one tile at a time so that
    the transposed operand is read from cache, not column by column across
    A. Floating-point addition commutes, so the result is exactly symmetric.
    """
    S = np.empty_like(A)
    for i in range(0, A.shape[0], _TILE):
        for j in range(0, A.shape[0], _TILE):
            np.add(A[i:i + _TILE, j:j + _TILE], A[j:j + _TILE, i:i + _TILE].T,
                   out=S[i:i + _TILE, j:j + _TILE])
    return S


def monotone_modulus(M) -> float:
    """beta = smallest eigenvalue of (M + M^T)/2; negative means not monotone.

    The diagonal entry of each coordinate that the symmetric part does not
    couple, and LAPACK's dense symmetric eigensolver on the block of the
    coordinates it does couple. Accurate to the eigensolver's backward
    error, a small multiple of n*eps*||M||, in either direction; bit for bit
    the dense eigenvalue when every coordinate is coupled. M is scaled by a
    power of two when its entries lie outside 2**(+-256), so entries near
    the largest double do not overflow; a beta below minus the largest
    double is -inf.
    """
    M, amax = _check_square(M)
    A, shift = _scaled(M, amax)
    S = _transpose_sum(A)  # finite: every entry of A is below 2**_SAFE_EXP
    S *= 0.5
    beta = _smallest_eigenvalue(S)
    try:
        return math.ldexp(beta, -shift)
    except OverflowError:  # only a negative beta can exceed the largest double
        return -math.inf


def _higham_gamma(k: int) -> float:
    """k*u/(1 - k*u): relative error bound of a k-term floating-point dot product."""
    return k * _U / (1.0 - k * _U)


def _neg_gram(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """-fl(A^T A) in the lower triangle of a Fortran-ordered array, by SYRK.

    The upper triangle is not referenced. `out`, if given, is overwritten.
    """
    # A.T of a C-ordered A is Fortran-ordered, so SYRK reads A without a copy
    return dsyrk(-1.0, A.T, lower=1, c=out, overwrite_c=out is not None)


def _top_eigenvalue(N: np.ndarray) -> float:
    """Estimate of the top eigenvalue of -N, reading the lower triangle.

    Lanczos (ARPACK) from a fixed start vector; below _LANCZOS_MIN_N the
    dense eigensolver is faster than ARPACK's per-step overhead. ARPACK's
    module is imported at the first Lanczos estimate, so a process that
    never needs one does not load it.
    """
    n = N.shape[0]
    if n < _LANCZOS_MIN_N:
        return -float(scipy.linalg.eigvalsh(N, lower=True, subset_by_index=[0, 0])[0])
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    op = LinearOperator((n, n), matvec=lambda x: dsymv(-1.0, N, x, lower=1), dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)  # fixed, so equal M give equal L
    try:
        return float(eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])
    except ArpackNoConvergence as exc:
        # any estimate is sound: the certificate moves the shift up until it holds
        return float(max(exc.eigenvalues, default=0.0))


def _certified_norm(A: np.ndarray, N: np.ndarray, theta: float) -> float:
    """Upper bound on ||A||_2 from an estimate theta of ||A||_2**2.

    N holds -fl(A^T A) in its lower triangle (`_neg_gram`) and is overwritten.
    With G = fl(A^T A) and s = theta + headroom, the Cholesky factorization of
    H = fl(s*I - G) runs in place. If it completes, H + dH is positive
    semidefinite with ||dH||_2 <= gamma_{n+1}/(1 - gamma_{n+1}) * trace(H)
    (Rump 2006), so ||A||_2**2 <= s plus that margin, the rounding of the
    diagonal shift (u*s) and the Gram error ||G - A^T A||_2 <= gamma_n *
    ||A||_F**2. Terms in eta bound what underflow adds to either error. If
    it fails, the headroom grows geometrically; once s reaches the Frobenius
    bound ||A||_F**2, that bound is returned instead, so the loop ends for
    every theta. A must be nonzero.
    """
    n = A.shape[0]
    # fl(sum of squares) of each column loses at most gamma_n relative, so
    # 1.01 covers the Frobenius norm's rounding for n < 10**13; it also covers
    # the floating-point evaluation of the pads below (a few u relative each)
    frob_up = 1.01 * (math.fsum(-N.diagonal()) + n * n * _ETA)
    gram_pad = _higham_gamma(n) * frob_up + n * n * _ETA
    rump = _higham_gamma(n + 1) / (1.0 - _higham_gamma(n + 1))
    theta, room = max(theta, 0.0), gram_pad
    while True:
        s = theta + room
        if s >= frob_up:
            t2 = frob_up
            break
        N.reshape(-1, order="F")[:: n + 1] += s  # H = fl(s*I - G): diagonal shift
        trace_h = math.fsum(N.diagonal())
        _, info = dpotrf(N, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            underflow = 4.0 * (n + 1) * (2.0 * (n + 2) + s) * _ETA
            t2 = s + 1.01 * (rump * trace_h + _U * s + gram_pad + underflow)
            break
        room *= _GROWTH
        _neg_gram(A, out=N)
    # each nextafter rounds up past a round-to-nearest result; the last one
    # also covers the entries of A that underflowed when M was scaled (at most
    # n*eta in norm, far below half an ulp of ||A||_2 >= max|a_ij|)
    return math.nextafter(math.sqrt(math.nextafter(t2, math.inf)), math.inf)


def lipschitz_constant(M) -> float:
    """Certified upper bound on the spectral norm ||M||_2.

    M is scaled by a power of two when its entries are too large or too
    small for the Gram matrix, which SYRK then forms in one triangle.
    Lanczos (ARPACK, fixed start vector; the dense eigensolver below
    n = 300) estimates its top eigenvalue, and one in-place Cholesky
    factorization proves the padded estimate (`_certified_norm`). The bound
    is above ||M||_2 by at most about n**2 * eps relative and deterministic
    for a given M. Raises OverflowError if ||M||_2 may exceed the largest
    double.
    """
    M, amax = _check_square(M)
    if amax == 0.0:
        return 0.0
    A, shift = _scaled(M, amax)
    N = _neg_gram(A)
    lip = _certified_norm(A, N, _top_eigenvalue(N))
    if not shift:
        return lip
    back = math.ldexp(lip, -shift)
    # scaling back is exact unless it lands among the subnormals; round up there
    return back if math.ldexp(back, shift) >= lip else math.nextafter(back, math.inf)


def _gamma(alpha: float, beta: float, lip: float) -> float:
    """Lipschitz constant of I - alpha*F, sqrt(1 - 2*alpha*beta + alpha**2 * L**2);
    with alpha = beta/L**2 it is sqrt(1 - beta**2/L**2). inf, never NaN,
    once alpha*L reaches 2**511, where (alpha*L)**2 nears the largest double."""
    if alpha * lip >= 2.0**511:  # 1 - 2*alpha*beta + inf could be inf - inf
        return math.inf
    return math.sqrt(max(1.0 - 2.0 * alpha * beta + (alpha * lip) ** 2, 0.0))


def iteration_bound(gamma: float, eps: float) -> int:
    """Steps guaranteeing ||x_t - x*|| <= eps * ||x_0 - x*|| for a gamma-contraction."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return int(math.ceil(math.log(eps) / math.log(gamma)))


class Operator:
    """Evaluation x -> F(x) together with declared (beta, lipschitz) parameters."""

    dim: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def beta(self) -> float:
        raise NotImplementedError

    @property
    def lipschitz(self) -> float:
        raise NotImplementedError

    def contraction(self) -> ContractionParams:
        """(beta, L, alpha, gamma) with alpha = beta/L**2.

        Raises NotStronglyMonotone when beta <= 0, before L is read; callers
        that only need monotonicity (the interior-point path) should catch
        it. Where L lies outside [2**-511, 2**511), where L**2 could
        overflow or turn subnormal, beta and L are first scaled by the one
        power of two that brings L into [1/2, 1), and alpha is scaled back;
        inside, alpha is beta/L**2 bit for bit. ValueError naming beta and L
        when alpha exceeds the largest double.
        """
        beta = self.beta
        if beta <= 0.0:
            raise NotStronglyMonotone(beta)
        lip = self.lipschitz
        if lip <= 0.0:
            raise ValueError("Lipschitz constant must be positive")
        _, e = math.frexp(lip)
        shift = 0 if -510 <= e <= 511 else e
        try:
            alpha = math.ldexp(math.ldexp(beta, -shift) / math.ldexp(lip, -shift) ** 2, -shift)
        except OverflowError:
            raise ValueError(f"step size alpha = beta/L**2 overflows a double: beta = {beta!r}, "
                             f"L = {lip!r}") from None
        return ContractionParams(beta=beta, lipschitz=lip, alpha=alpha,
                                 gamma=_gamma(alpha, beta, lip))


def _lu(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """LU-factor the square A once and return its solve; IpmBreakdown when A
    is exactly singular.

    A is overwritten by the factors: every caller passes a matrix it has
    just built and never reads again. A C-ordered A is factored as its
    Fortran-ordered transpose, A^T = P L U, so LAPACK gets it without a
    copy, and the solve applies the factors transposed.
    """
    lu, piv, info = scipy.linalg.lapack.dgetrf(A.T, overwrite_a=True)
    if info > 0:
        raise IpmBreakdown(f"singular {A.shape[0]}x{A.shape[0]} Newton system")
    return lambda c: scipy.linalg.lapack.dgetrs(lu, piv, c, trans=1)[0]


class AffineOperator(Operator):
    """F(x) = M x + q with derived monotonicity and Lipschitz parameters."""

    def __init__(self, M, q):
        M, _ = _check_square(M)
        q = _finite(_vector(q, M.shape[0], "q"), "q")
        self.M = M
        self.q = q

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.M @ x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self @ _vector(x, self.dim, "x") + self.q

    @cached_property
    def beta(self) -> float:
        return monotone_modulus(self.M)

    @cached_property
    def lipschitz(self) -> float:
        return lipschitz_constant(self.M)

    def _newton_factor(self, D: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The solve of the interior-point Newton system (N + diag(D - 1)) y = b,
        N = self.M, for a positive D, factored once. D_i = inf pins y_i = 0.

        The system is G(D) = (N + diag(D - 1)) D^-1 = I + (N - I) D^-1, so
        y = G(D)^-1 b / D: n x n, formed from M in O(n^2) as
        N diag(1/D) + diag(1 - 1/D), with N - I never formed, and factored in
        O(n^3). Subclasses with a smaller system override it
        (conevi.projective._newton checks D > 0 and calls it once per Newton
        step and per finish attempt). IpmBreakdown when G(D) is exactly
        singular.
        """
        w = 1.0 / D
        G = self.M * w
        G[np.diag_indices(D.size)] += 1.0 - w
        solve_small = _lu(G)
        return lambda b: solve_small(b) / D

    def __repr__(self) -> str:
        return f"AffineOperator(dim={self.dim})"


class CallableOperator(Operator):
    """Nonlinear operator with caller-declared (beta, lipschitz).

    The library does not estimate parameters for nonlinear maps; the caller
    vouches for 0 <= beta <= lipschitz. ValueError when dim is not a
    positive integer, or when F(x) does not have shape (dim,).
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int,
                 beta: float, lipschitz: float):
        if not 0 <= beta < math.inf:
            raise ValueError("declared beta must be finite and >= 0")
        if not 0 < lipschitz < math.inf or lipschitz < beta:
            raise ValueError("declared lipschitz must be finite, positive and >= beta")
        self._fn = fn
        self.dim = _positive_int(dim, "dim")
        self._beta = float(beta)
        self._lipschitz = float(lipschitz)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _vector(self._fn(_vector(x, self.dim, "x")), self.dim, "F(x)")

    @property
    def beta(self) -> float:
        return self._beta

    @property
    def lipschitz(self) -> float:
        return self._lipschitz
