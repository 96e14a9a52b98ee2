"""Exact Gaussian simulation on a time grid.

Covariance matrices come from either the stationary-increment model
R(s,t) = (g2(s) + g2(t) - g2(|t-s|)) / 2 (the canonical model attaining
commensurability with l = 1) or the Volterra representation
R(s,t) = int_0^{s^t} sqrt(g2'(t-u)) sqrt(g2'(s-u)) du, where g2 = gamma^2.
A lag's g2(|t-s|) is delta*(s, t)^2, read from metrics.delta; gamma2 is
taken only of grid times, as variances.

Two exact samplers draw the paths; the covariance builder picks one and
nothing else selects it:

- circulant embedding, for the stationary-increment model on a uniform
  grid (every step within 1e-9 relative of h = (b - a)/(n - 1), n >= 3).
  The increments X_k = B(t_{k+1}) - B(t_k) are stationary with
  autocovariance c_k = (g2((k+1)h) - 2 g2(kh) + g2(|k-1|h)) / 2 and are
  drawn in O(n log n) from the minimal circulant embedding of size
  2(n - 2) (Davies & Harte 1987; Dietrich & Newsam 1997).  B(a) is then
  drawn from its law given X, whose mean weights come from one Levinson
  solve, and B = B(a) + cumsum(X).  The dense R is never formed.
- Cholesky factor times i.i.d. standard normals, for everything else:
  the Volterra model, non-uniform grids, and any stationary grid whose
  embedding has an eigenvalue below -1e-10 lambda_max or whose increment
  Toeplitz matrix is numerically singular.

A dense covariance lives only as its lower triangle, packed in block
rows (``_Packed``): block row [r0, r1) of ``_row_cuts(0, n)`` holds
columns 0:r1, so the store is about n (n + _CHOL_BLOCK) / 2 floats, 71 MB
at n = 4096 where an n x n array takes 134 MB.  The builds write only
entries on or below the diagonal tiles, and no step reads above the
diagonal.  The Cholesky factor is taken in place: ``CovMatrix.cholesky``
runs a left-looking blocked Cholesky (Golub & Van Loan, Matrix
Computations, Sec. 4.2) on the store the covariance build returns, so
the Cholesky path holds that store and temporaries of O(_CHOL_BLOCK^2)
per worker.  Each block column is solved by a blocked triangular solve,
GEMMs against the inverses of its diagonal block's _TRSM_LEAF x
_TRSM_LEAF blocks (Sec. 3.1), with no LU.  R stays bit-identical to an
unblocked build, and L to the same factor run on a dense n x n array;
L equals np.linalg.cholesky(R) bit for bit for n <= _CHOL_BLOCK and
differs from it by round-off above.  The factor is one attempt on R as
built: no jitter is added, so a covariance that does not factor raises
PSDError instead of being sampled with a changed law at its finest
scales.

The embedding is PSD-certified by its eigenvalues (its Toeplitz block is
the covariance T of X) and the conditional variance g2(a) - s^T T^-1 s of
B(a) by its sign; R is PSD exactly when both hold (Schur complement), so
a negative conditional variance raises PSDError as a failed Cholesky
does.  Normals come from one counter-based substream per (path,
component), so results are bit-stable regardless of worker count or
chunking.

``threads`` (the CLI's ``--threads``, which must lie in [1, _PATH_CHUNK]
or is a config error) sets the worker count of the three stages split
into disjoint jobs run by ``_run_jobs``: the columns of the Volterra build,
the row chunks of each step of the Cholesky factor, and path sampling,
one job per worker over its share of the path chunks; a stationary R is
built on the calling thread (_stationary_R).  ``threads`` is the only
parallelism: importing the package pins BLAS to one thread, so no byte
depends on the BLAS thread count either.  A sampling job
allocates one chunk's buffers and reuses them for each chunk it draws,
for every component, and hands each chunk to ``consume(p0, block)`` on
its worker, so the per-path minima of ``hitting.PathMinima``, the
per-path box counts of ``dims`` and the records of ``simulate``'s binary
file are made in the same jobs.  consume is called once per chunk,
possibly on a worker and in any order, and the block is reused once it
returns, so consume keeps nothing of it.  At most ``threads`` sets of
buffers exist, so no command holds an (n_paths, n, d) array on either
sampler: a circulant worker holds 8 (n d + 3 m + 3) floats, with
m = 2(n - 2), and a Cholesky worker 64 n d + (2 * 64 + _CHOL_BLOCK) n
floats, its panel included.  The capacity and content terms and the
condition integrals stay serial.
"""

from __future__ import annotations

import bisect
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import metrics
from .metrics import AtomRows, delta

__all__ = [
    "PSDError",
    "QuadratureError",
    "CovMatrix",
    "PathBatch",
    "cov_stationary_increments",
    "cov_volterra",
    "sample_paths",
]

_MAX_N = 8192  # dense Cholesky cap; estimators upstream never need more
_CHOL_BLOCK = 256  # diagonal block of the in-place factor
_TRSM_LEAF = 16  # inverted diagonal block of the factor's panel solve
_MAX_D = 65535  # the substream key (path << 16) ^ comp needs comp < 2^16
_UNIFORM_RTOL = 1e-9  # a grid step this close to h counts as h
_EIG_RTOL = 1e-10  # eigenvalues / prediction errors below this are not positive
_COND_VAR_RTOL = 1e-8  # Var(B(a) | increments) above -this * g2(a) is round-off
_PATH_CHUNK = 64  # GEMM columns of a Cholesky path block; also the cap on threads
_CIRC_CHUNK = 8  # paths of a circulant chunk, drawn into its worker's reused buffers
_QUAD_BLOCK = 64  # pairs (s, t > s) of one row per Volterra quadrature block
_VOLTERRA_ORDER = 16  # Gauss-Legendre nodes per Volterra panel, checked against half as many


def _run_jobs(jobs, threads: int) -> list:
    """Call every job in ``jobs`` and return the results in job order.

    With threads > 1 the calls run on at most that many worker threads,
    so each job must write only outputs no other job touches.  Every
    result is read, so a job's exception is raised here.
    """
    if threads <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
        return list(pool.map(lambda job: job(), jobs))


class PSDError(RuntimeError):
    """Covariance failed the positive-semidefiniteness certificate."""


class QuadratureError(RuntimeError):
    """Volterra quadrature failed to converge."""


class CovMatrix:
    """Grid covariance with a lazy packed R and a lazy Cholesky factor.

    ``build()`` returns R as a ``_Packed`` lower triangle, or as a dense
    symmetric matrix, which is packed; it runs on first need (reading
    ``.R``, calling ``.cholesky()``, or
    ``metrics.covariance_delta_matrix``), and its store is kept.  A
    covariance that carries a circulant sampler never needs it.
    ``cholesky()`` factors that store in place on ``threads`` workers,
    with no jitter (a failure raises PSDError), and drops it, so the
    factor is the only store left.  ``.R`` is the dense symmetric matrix,
    expanded from the store on each read, for diagnostics; a read after
    the factor runs ``build()`` again and returns the same bytes, never
    L.  A store passed as ``R`` is that build's first result and is
    overwritten by the factor.  A build is symmetric by construction and
    is not checked.  ``build`` is required: a fixed matrix R is passed as
    ``build=R.copy``.
    """

    def __init__(self, grid, R=None, label: str = "cov", *, build, circulant=None,
                 threads: int = 1):
        self.grid = np.asarray(grid, dtype=float)
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid times must be strictly increasing")
        self.label = label
        self.jitter_used = 0.0  # the factor adds no jitter; kept for reports
        self.quad_rel_change = None  # Volterra: relative change on doubling the order
        self._chol = None
        self._R = R
        self._build = build
        self._circulant = circulant
        self.threads = threads

    def _store(self) -> _Packed:
        if self._R is None:
            R = self._build()
            self._R = R if isinstance(R, _Packed) else _Packed.from_dense(np.asarray(R, float))
        return self._R

    @property
    def R(self) -> np.ndarray:
        return self._store().symmetric()

    @property
    def n(self) -> int:
        return self.grid.size

    @property
    def sampler(self) -> str:
        """``"circulant"`` or ``"cholesky"``: how ``sample_paths`` draws."""
        return "cholesky" if self._circulant is None else "circulant"

    def certificate(self) -> dict:
        """The sampler and the certificate that admitted it, for reports.

        Circulant: the smallest embedding eigenvalue relative to the
        largest, and the conditional variance of B(a) given the
        increments.  Cholesky: ``jitter_used``, always 0.0 since the
        factor adds no jitter, and for a checked Volterra build the
        relative change of R on doubling the quadrature order.
        """
        if self._circulant is not None:
            return {
                "sampler": "circulant",
                "min_embedding_eig": self._circulant.min_eig,
                "start_cond_var": self._circulant.cond_var,
            }
        self.cholesky()
        cert = {"sampler": "cholesky", "jitter_used": self.jitter_used}
        if self.quad_rel_change is not None:
            cert["quad_rel_change"] = self.quad_rel_change
        return cert

    def cholesky(self) -> _Packed:
        """Lower factor L with L L^T = R, in one attempt on R as built.

        The factor overwrites R's own store with L, which reads zero above
        the diagonal (``_factor_in_place``); ``.dense()`` expands it.  A
        diagonal block that is not positive definite rejects the (family,
        grid) pair with PSDError naming that block column's rows and grid
        times; nothing is added to the diagonal, since any jitter would
        change B's law at the finest scales of the grid.
        """
        if self._chol is not None:
            return self._chol
        A = self._store()
        self._R = None
        try:
            _factor_in_place(A, self.threads)
        except _BlockError as err:
            j0, j1 = err.args
            raise PSDError(
                f"{self.label}: R is not positive definite (n={self.n}) in the block "
                f"column of rows {j0}..{j1 - 1}, t in [{self.grid[j0]:.6g}, "
                f"{self.grid[j1 - 1]:.6g}]; rejecting this family/grid combination"
            ) from None
        self._chol = A
        return A


def _row_cuts(r0: int, n: int) -> list:
    """Boundaries r0, r0 + _CHOL_BLOCK, ..., n of the block rows from r0 on.

    A one-row remainder joins the block row before it, since a one-row
    product takes NumPy's gemv path and rounds apart from the same row in
    a longer one.  Both the store's block rows (r0 = 0) and the factor's
    row chunks below a block column (r0 = its end) are cut here, so a
    chunk is always a block row, or the rows of one below its diagonal
    block.
    """
    cuts = [*range(r0, n, _CHOL_BLOCK), n]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return cuts


class _Packed:
    """A lower triangle of an n x n matrix held as block rows.

    Block row [r0, r1) of ``_row_cuts(0, n)`` is a C-ordered (r1 - r0, r1)
    view of one flat buffer, columns 0:r1 of those rows; ``blocks`` lists
    (r0, r1, view).  Entries right of a block row are zero by definition,
    and the entries above the diagonal inside it start at zero; a build
    may write some of those in its diagonal tiles, and the factor zeroes
    them, but nothing reads them as R.
    """

    def __init__(self, n: int):
        self.n = n
        self.cuts = _row_cuts(0, n)
        self.data = np.zeros(sum((r1 - r0) * r1 for r0, r1 in zip(self.cuts, self.cuts[1:])))
        self.blocks, off = [], 0
        for r0, r1 in zip(self.cuts, self.cuts[1:]):
            self.blocks.append((r0, r1, self.data[off : off + (r1 - r0) * r1].reshape(r1 - r0, r1)))
            off += (r1 - r0) * r1

    @classmethod
    def from_dense(cls, R: np.ndarray) -> _Packed:
        """The lower triangle of the square R."""
        out = cls(R.shape[0])
        for r0, r1, rows in out.blocks:
            rows[:] = np.tril(R[r0:r1, :r1], r0)
        return out

    def rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0:r1, which lie in one block row, over that block row's columns."""
        b0, b1, rows = self.blocks[bisect.bisect_right(self.cuts, r0) - 1]
        assert r1 <= b1
        return rows[r0 - b0 : r1 - b0]

    def dense(self) -> np.ndarray:
        """The n x n array of the stored entries, zero right of each block row."""
        A = np.zeros((self.n, self.n))
        for r0, r1, rows in self.blocks:
            A[r0:r1, :r1] = rows
        return A

    def symmetric(self) -> np.ndarray:
        """The symmetric n x n matrix whose lower triangle is stored."""
        A = self.dense()
        for r0, r1, rows in self.blocks:
            A[:r0, r0:r1] = rows[:, :r0].T
            tile = A[r0:r1, r0:r1]
            tile[:] = np.where(np.tri(r1 - r0, dtype=bool), tile, tile.T)
        return A


class _BlockError(np.linalg.LinAlgError):
    """The diagonal block of rows args[0]..args[1] - 1 is not positive definite."""


def _factor_in_place(A: _Packed, threads: int = 1):
    """Overwrite the packed lower triangle A of R with R's Cholesky factor.

    Left-looking blocked Cholesky (Golub & Van Loan, Matrix Computations,
    Sec. 4.2): at each step the next _CHOL_BLOCK block column takes one
    GEMM update from the columns of L to its left, its diagonal block is
    factored by np.linalg.cholesky, and the rows below are solved against
    that block's factor (``_solve_panel``, GEMMs against the inverses of
    its _TRSM_LEAF diagonal blocks, inverted once per step).  The rows
    below run as jobs on ``threads`` workers, the chunks ``_row_cuts``
    gives, each taking its update and its solve and writing only its own
    rows; every boundary comes from _CHOL_BLOCK, so no byte depends on
    ``threads``.  Every operand is a view of A's block rows with the shape
    it has in a dense n x n array, so L is that array's factor bit for
    bit.  Each job's temporaries are O(_CHOL_BLOCK^2), at most
    ``threads`` of them at once.  Each step writes its diagonal block's
    factor whole, zeros above its diagonal included; no step writes right
    of a diagonal block, so A ends as L with a zero strict upper triangle.
    For n <= _CHOL_BLOCK this is one np.linalg.cholesky call, so L equals
    NumPy's bit for bit.  Raises _BlockError, a np.linalg.LinAlgError,
    when a diagonal block is not positive definite.
    """
    n, b = A.n, _CHOL_BLOCK
    lower = np.tri(min(n, b), dtype=bool)
    for j0 in range(0, n, b):
        j1 = min(j0 + b, n)
        diag = A.rows(j0, j1)
        blk, low, left = diag[:, j0:j1], lower[: j1 - j0, : j1 - j0], diag[:, :j0]
        np.subtract(blk, left @ left.T, out=blk, where=low)
        # the updated lower triangle, mirrored: the block of R - L L^T so far
        try:
            L11 = np.linalg.cholesky(np.where(low, blk, blk.T))
        except np.linalg.LinAlgError:
            raise _BlockError(j0, j1) from None
        blk[:] = L11
        if j1 == n:
            return
        inv = [np.linalg.inv(L11[c : c + _TRSM_LEAF, c : c + _TRSM_LEAF])
               for c in range(0, j1 - j0, _TRSM_LEAF)]

        def solve(r0, r1):
            P = A.rows(r0, r1)
            rows = P[:, j0:j1] - P[:, :j0] @ left.T
            _solve_panel(rows, L11, inv, 0, j1 - j0)
            P[:, j0:j1] = rows

        cuts = _row_cuts(j1, n)
        _run_jobs([partial(solve, r0, r1) for r0, r1 in zip(cuts, cuts[1:])], threads)


def _solve_panel(P, L, inv, c0: int, c1: int):
    """Overwrite P[:, c0:c1] with X solving X L[c0:c1, c0:c1]^T = P[:, c0:c1].

    Columns c0:c1 of the lower triangular L are halved at a multiple of
    _TRSM_LEAF: the left half is solved, one GEMM takes it out of the right
    half, and the right half is solved (Golub & Van Loan, Sec. 3.1).  A
    leaf, at most _TRSM_LEAF wide, is one GEMM against ``inv[c0 //
    _TRSM_LEAF]``, the inverse of its diagonal block of L.
    """
    if c1 - c0 <= _TRSM_LEAF:
        P[:, c0:c1] = P[:, c0:c1] @ inv[c0 // _TRSM_LEAF].T
        return
    mid = c0 + _TRSM_LEAF * -(-(c1 - c0) // (2 * _TRSM_LEAF))
    _solve_panel(P, L, inv, c0, mid)
    P[:, mid:c1] -= P[:, c0:mid] @ L[mid:c1, c0:mid].T
    _solve_panel(P, L, inv, mid, c1)


def _check_grid(scale, grid, threads: int = 1):
    if not 1 <= threads <= _PATH_CHUNK:
        raise ValueError(f"threads = {threads} is outside [1, {_PATH_CHUNK}]")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a non-empty 1-d array")
    if grid[0] <= 0:
        raise ValueError("grids exclude t = 0 (gamma(0) = 0 makes R singular)")
    if grid[-1] > scale.x_max * (1 + 1e-12):
        raise ValueError("grid exceeds the scale's domain")
    if grid.size > _MAX_N:
        raise ValueError(f"grid larger than the dense-Cholesky cap {_MAX_N}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid times must be strictly increasing")
    return grid


def _levinson(col, rhs):
    """Solve T x = rhs for the symmetric Toeplitz T with first column ``col``.

    Levinson's algorithm (Golub & Van Loan, Matrix Computations, Alg.
    4.7.2) in O(N^2) time and O(N) memory, for N >= 2.  Returns None when a
    prediction error, relative to col[0], falls to _EIG_RTOL or below:
    T is then numerically singular and the recursion would amplify
    round-off without bound.
    """
    N = col.size
    r = col[1:] / col[0]
    b = rhs / col[0]
    x = np.empty(N)
    y = np.empty(N - 1)
    x[0] = b[0]
    y[0] = alpha = -r[0]
    beta = 1.0
    for k in range(1, N):
        beta *= 1.0 - alpha * alpha
        if not beta > _EIG_RTOL:
            return None
        mu = (b[k] - r[:k] @ x[k - 1 :: -1]) / beta
        x[:k] += mu * y[k - 1 :: -1]
        x[k] = mu
        if k < N - 1:
            alpha = (-r[k] - r[:k] @ y[k - 1 :: -1]) / beta
            y[:k] += alpha * y[k - 1 :: -1]
            y[k] = alpha
    return x


@dataclass(frozen=True)
class _Circulant:
    """Exact sampler of B on a uniform grid from its stationary increments.

    weights[j] scales the j-th rfft coefficient of the size-m embedding
    (m = 2(n - 2)); mu gives E[B(a) | X] = mu . X and start_sd the
    conditional standard deviation.
    """

    weights: np.ndarray
    mu: np.ndarray
    start_sd: float
    min_eig: float
    cond_var: float

    @property
    def m(self) -> int:
        return 2 * (self.weights.size - 1)

    def paths(self, z: np.ndarray, out: np.ndarray, coef: np.ndarray, X: np.ndarray):
        """Write the paths of normals z (k, m + 1) into out (k, n).

        z[:, 0] drives B(a) given the increments; z[:, 1:] fill the
        Hermitian rfft coefficients: the real parts at j = 0 and m/2 and
        the real and imaginary parts in between, m normals in all.  out
        may be a strided view, such as one component of a path block.
        coef (k, m/2 + 1) complex and X (k, m) are the caller's buffers,
        reused from chunk to chunk, so the call allocates no array of m
        floats: coef is zeroed once, its imaginary parts at j = 0 and m/2
        stay zero, and every other entry read here is written here first.
        """
        half = self.weights.size - 1
        coef.real[:, 0] = z[:, 1]
        coef.real[:, half] = z[:, 2]
        coef.real[:, 1:half] = z[:, 3 : half + 2]
        coef.imag[:, 1:half] = z[:, half + 2 :]
        coef *= self.weights
        X = np.fft.irfft(coef, n=self.m, norm="forward", out=X)[:, : self.mu.size]
        np.einsum("ij,j->i", X, self.mu, out=out[:, 0])
        out[:, 0] += self.start_sd * z[:, 0]
        np.cumsum(X, axis=1, out=out[:, 1:])
        out[:, 1:] += out[:, :1]


def _circulant_sampler(scale, grid):
    """The circulant sampler for the stationary model on ``grid``, or None.

    None when the grid is not uniform or has fewer than 3 points, when
    the embedding has an eigenvalue below -_EIG_RTOL * lambda_max, or when
    the increments' Toeplitz matrix is numerically singular; the caller
    then falls back to Cholesky.  A negative conditional variance of
    B(a) beyond round-off means R itself is not PSD: PSDError.
    """
    n = grid.size
    if n < 3:
        return None
    h = (grid[-1] - grid[0]) / (n - 1)
    if np.max(np.abs(np.diff(grid) - h)) > _UNIFORM_RTOL * h:
        return None
    N = n - 1  # increments
    g2 = np.square(delta(scale, 0.0, h * np.arange(N + 1)))  # the lag variogram
    c = np.empty(N)
    c[0] = g2[1]
    c[1:] = 0.5 * (g2[2:] - 2.0 * g2[1:-1] + g2[:-2])
    row = np.concatenate([c, c[N - 2 : 0 : -1]])
    lam = np.fft.rfft(row).real
    lam_max = float(np.max(lam))
    min_eig = float(np.min(lam)) / lam_max
    if min_eig < -_EIG_RTOL:
        return None
    # Cov(B(a), X_k) = R(a, t_{k+1}) - R(a, t_k)
    g2_t = scale.gamma2(grid)
    s = 0.5 * (np.diff(g2_t) - np.diff(g2))
    mu = _levinson(c, s)
    if mu is None:
        return None
    g2_a = float(g2_t[0])
    cond_var = g2_a - float(s @ mu)
    if cond_var < -_COND_VAR_RTOL * g2_a:
        raise PSDError(
            f"stationary[{scale.name}]: Var(B(a) | increments) = {cond_var:.3e} < 0 "
            f"on the uniform grid [{grid[0]:g}, {grid[-1]:g}], n={n}; "
            "rejecting this family/grid combination"
        )
    m = row.size
    weights = np.sqrt(np.maximum(lam, 0.0) / (2.0 * m))
    weights[[0, -1]] *= np.sqrt(2.0)
    return _Circulant(
        weights=weights,
        mu=mu,
        start_sd=float(np.sqrt(max(cond_var, 0.0))),
        min_eig=min_eig,
        cond_var=cond_var,
    )


def _stationary_R(scale, grid) -> _Packed:
    """Packed R on the calling thread, one _BLOCK_ROWS-row strip at a time.

    Each strip of a block row takes the delta* of metrics.AtomRows up to
    its diagonal tile (``lower_rows``) and turns it into R in place:
    (g2(s) + g2(t) - delta*(s, t)^2) / 2 in that order of operations, so
    temporaries stay those of a strip beside the store, and each entry
    has the bits of the dense, symmetric R.
    """
    g2 = scale.gamma2(grid)
    atoms, R = AtomRows(scale, grid), _Packed(grid.size)
    for r0, r1, rows in R.blocks:
        for a in range(r0, r1, metrics._BLOCK_ROWS):
            b = min(a + metrics._BLOCK_ROWS, r1)
            strip = atoms.lower_rows(a, b, rows[a - r0 : b - r0, :b])
            np.square(strip, out=strip)
            np.subtract(np.add.outer(g2[a:b], g2[:b]), strip, out=strip)
            strip *= 0.5
    return R


def cov_stationary_increments(scale, grid, threads: int = 1) -> CovMatrix:
    """R(s,t) = (g2(s) + g2(t) - g2(|t-s|)) / 2 for g2 = gamma^2.

    On a uniform grid the covariance carries the circulant sampler and R
    stays unbuilt until read; otherwise R is built on the calling thread
    (_stationary_R) and factored on ``threads`` workers, which certifies
    PSD a posteriori.
    """
    grid = _check_grid(scale, grid, threads)
    circulant = _circulant_sampler(scale, grid)
    cov = CovMatrix(
        grid=grid,
        # R is built here, so a profile times the build in this call and
        # the factor alone in cholesky(), which overwrites this store
        R=None if circulant else _stationary_R(scale, grid),
        label=f"stationary[{scale.name}]",
        build=lambda: _stationary_R(scale, grid),
        circulant=circulant,
        threads=threads,
    )
    if circulant is None:
        cov.cholesky()
    return cov


def _volterra_pattern(order: int, levels: int):
    """Unit-interval quadrature pattern refined geometrically toward 0.

    Returns positions p in (0, 1) and weights w with sum(w f(p)) ~
    int_0^1 f: dyadic subintervals [2^-(j+1), 2^-j] carry plain
    Gauss-Legendre panels, and the core [0, 2^-levels] is handled with
    the substitution x = w q^2, which resolves integrable endpoint
    singularities x^a, a > -1, and keeps every node strictly positive.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    pos, wts = [], []
    for j in range(levels):
        lo, hi = 2.0 ** -(j + 1), 2.0**-j
        pos.append(lo + 0.5 * (hi - lo) * (x + 1.0))
        wts.append(0.5 * (hi - lo) * w)
    core = 2.0**-levels
    q = 0.5 * (x + 1.0)
    pos.append(core * q**2)
    wts.append(0.5 * w * core * 2.0 * q)
    return np.concatenate(pos), np.concatenate(wts)


def cov_volterra(scale, grid, threads: int = 1) -> CovMatrix:
    """Covariance of the Volterra model driven by sqrt((gamma^2)') kernels.

    Entries are computed in the offset variable x = min(s,t) - u, so the
    endpoint singularity sits at x = 0 and nodes never cancel against
    the grid times.  Diagonal entries use the exact identity
    int_0^t g2'(t-u) du = g2(t).  One pass builds R with _VOLTERRA_ORDER
    Gauss-Legendre nodes per subinterval and, in the same block loop, the
    same entries with half as many, keeping only the running max
    |R8 - R16| and max |R16|, so the checked build holds one packed store
    and writes only the pairs below its diagonal;
    a relative disagreement above 1e-6 raises QuadratureError, and the
    relative change is kept as the covariance's ``quad_rel_change``
    certificate; at this fixed order every built-in family is far below
    1e-6.  The columns are strided over ``threads`` jobs, each with its own
    maxima, combined exactly by max.  The quadrature runs over _QUAD_BLOCK
    pairs at a time, so its temporaries stay O(_QUAD_BLOCK * nodes) per
    job whatever the grid.
    """
    grid = _check_grid(scale, grid, threads)
    levels = 40
    patterns = [_volterra_pattern(k, levels) for k in (_VOLTERRA_ORDER, _VOLTERRA_ORDER // 2)]

    def build():
        """R and the relative change max |R8 - R16| / max |R16| of halving the order."""
        n = grid.size
        diag = scale.gamma2(grid)
        R = _Packed(n)
        def columns(k):
            change, top = 0.0, np.max(np.abs(diag))
            for i in range(k, n - 1, threads):
                # grid[i] = min(s, t) for s = grid[i] and every later t, so the
                # first kernel factors and m * w serve the whole column below it
                m = grid[i]
                heads = [(m * p, np.sqrt(scale.dgamma2(m * p)), m * w) for p, w in patterns]
                for r0, r1, rows in R.blocks:
                    for j0 in range(max(i + 1, r0), r1, _QUAD_BLOCK):
                        j1 = min(j0 + _QUAD_BLOCK, r1)
                        gap = np.abs(m - grid[j0:j1])
                        # each pair's sum depends on that pair alone
                        col, half = ((np.sqrt(scale.dgamma2(gap[:, None] + X)) * head * mw)
                                     .sum(axis=1) for X, head, mw in heads)
                        change = np.maximum(change, np.max(np.abs(half - col)))
                        top = np.maximum(top, np.max(np.abs(col)))
                        rows[j0 - r0 : j1 - r0, i] = col
            return change, top

        change, top = np.max(_run_jobs([partial(columns, k) for k in range(threads)], threads), 0)
        for r0, r1, rows in R.blocks:
            np.fill_diagonal(rows[:, r0:], diag[r0:r1])
        return R, float(change / (top or 1.0))

    R, rel = build()
    if rel > 1e-6:
        raise QuadratureError(
            f"Volterra quadrature not converged: relative change {rel:.3e} "
            f"after doubling the order (order {_VOLTERRA_ORDER // 2} -> {_VOLTERRA_ORDER}, "
            f"levels {levels}, n={grid.size})"
        )
    cov = CovMatrix(grid=grid, R=R, label=f"volterra[{scale.name}]",
                    build=lambda: build()[0], threads=threads)
    cov.quad_rel_change = rel
    cov.cholesky()
    return cov


# ---------------------------------------------------------------------------


@dataclass
class PathBatch:
    """n_paths paths of d components on ``grid`` from the substreams of
    ``seed``.  A batch holds no path: ``to_binary`` draws them into a file
    chunk by chunk, and ``to_csv`` renders that file."""

    grid: np.ndarray
    d: int
    n_paths: int
    seed: int

    def to_binary(self, path, cov: CovMatrix, threads: int = 1):
        """Draw the paths with ``cov``'s sampler on ``threads`` workers into the
        GPFB layout: b"GPFB", the header struct "<IQQQq" (version 1, n, d,
        n_paths, seed), then the grid and values[p, i, c] in C order, all
        little-endian float64.  Each chunk is written at its own offset by one
        seek and write under a lock, so no byte depends on the chunks' order.
        """
        if not np.array_equal(cov.grid, self.grid):
            raise ValueError("the covariance's grid is not the batch's grid")
        n, d = self.grid.size, self.d
        lock = threading.Lock()
        with open(path, "wb") as fh:
            fh.write(b"GPFB" + struct.pack("<IQQQq", 1, n, d, self.n_paths, self.seed))
            fh.write(self.grid.astype("<f8").tobytes())
            records = fh.tell()

            def write(p0, block):
                data = np.ascontiguousarray(block, dtype="<f8")
                with lock:
                    fh.seek(records + 8 * p0 * n * d)
                    fh.write(data)

            sample_paths(cov, d, self.n_paths, self.seed, threads, consume=write)

    def to_csv(self, path, source):
        """Long format: path, component, t, value, rendered from ``source``,
        the GPFB file ``to_binary`` wrote for this batch.

        The records are read _PATH_CHUNK paths at a time.  Each (path,
        component) run is one join over Python floats, whose repr is that
        of the float64 values; the grid's reprs are made once.
        """
        n, d = self.grid.size, self.d
        times = [f",{t!r}," for t in self.grid.tolist()]
        with open(source, "rb") as src, open(path, "w", newline="") as fh:
            src.seek(4 + struct.calcsize("<IQQQq") + 8 * n)  # past the header and the grid
            fh.write("path,component,t,value\n")
            for p0 in range(0, self.n_paths, _PATH_CHUNK):
                block = np.frombuffer(src.read(8 * _PATH_CHUNK * n * d), "<f8").reshape(-1, n, d)
                for p, values in enumerate(block, start=p0):
                    for c in range(d):
                        head = f"{p},{c}"
                        fh.write("".join([f"{head}{t}{v!r}\n"
                                          for t, v in zip(times, values[:, c].tolist())]))


def _substream(seed: int, path: int, comp: int) -> np.random.Generator:
    # Philox is counter-based: the key fixes the stream, so any worker can
    # draw (path, comp) independently and identically.
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((path << 16) ^ comp)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def sample_paths(cov: CovMatrix, d: int, n_paths: int, seed: int, threads: int = 1,
                 *, consume) -> PathBatch:
    """Draw exact Gaussian paths with the sampler ``cov`` carries and hand
    each chunk of them to ``consume(p0, block)``.

    Components are independent copies of the scalar process; the normals
    for (path p, component c) come from the Philox substream keyed by
    (seed, p, c), so d is limited to _MAX_D.  The chunks have a fixed size
    at every worker count: _CIRC_CHUNK paths for _Circulant.paths, or
    _PATH_CHUNK for L @ Z, Z being the normals C-ordered (n, _PATH_CHUNK),
    since a GEMM's rounding can depend on its column count; the last
    block's Z is padded with zero columns, so a path's bytes do not depend
    on n_paths either.  L @ Z is taken one block row of the packed L at a
    time; every block row but the last is copied into a zero-padded
    (_CHOL_BLOCK, n) panel first, so each product has the n columns of L
    that a product with the dense L has, and the same bits.
    min(threads, chunks) jobs run on ``threads`` workers (at most
    _PATH_CHUNK); job w draws chunks w, w + jobs, ... in order into
    buffers of min(chunk, n_paths) rows it allocates once (Z and L @ Z
    keep their _PATH_CHUNK columns, and the panel is the job's own).
    block[i, j, c] is component c of path p0 + i at grid[j], and the
    block is reused once consume returns.  consume is called once per
    chunk, possibly on a worker thread and in any order, must write only
    outputs of its own paths and keep no reference to the block; no byte
    depends on the worker count.  Returns the PathBatch the paths belong to.
    """
    if d < 1 or n_paths < 1 or threads < 1:
        raise ValueError("d, n_paths and threads must be positive")
    if threads > _PATH_CHUNK:
        raise ValueError(f"threads = {threads} exceeds {_PATH_CHUNK}")
    if d > _MAX_D:
        raise ValueError(
            f"d = {d} exceeds {_MAX_D}: the (path, component) substreams would collide"
        )
    n, circ = cov.n, cov._circulant
    if circ is None:
        L = cov.cholesky()
    size = _PATH_CHUNK if circ is None else _CIRC_CHUNK
    chunks = range(0, n_paths, size)
    workers = min(threads, len(chunks))
    rows = min(size, n_paths)

    def job(w):
        # one worker's buffers, reused for each of its chunks w, w + workers, ...
        block = np.empty((rows, n, d))
        if circ:
            z = np.empty((rows, circ.m + 1))
            coef, X = np.zeros((rows, circ.weights.size), dtype=complex), np.empty((rows, circ.m))
        else:
            Z, LZ = np.empty((n, size)), np.empty((n, size))
            panel = np.zeros((_CHOL_BLOCK, n)) if len(L.blocks) > 1 else None
        for p0 in chunks[w::workers]:
            k = min(size, n_paths - p0)
            for c in range(d):
                if circ:
                    for i in range(k):
                        _substream(seed, p0 + i, c).standard_normal(out=z[i])
                    circ.paths(z[:k], block[:k, :, c], coef[:k], X[:k])
                else:
                    for i in range(k):
                        Z[:, i] = _substream(seed, p0 + i, c).standard_normal(n)
                    Z[:, k:] = 0.0  # a tail block keeps all _PATH_CHUNK GEMM columns
                    # widest block row first: the panel starts zero, and each narrower
                    # one zeroes only the _CHOL_BLOCK columns the wider one wrote right of r1
                    for r0, r1, L_rows in reversed(L.blocks[:-1]):
                        panel[:, :r1] = L_rows
                        panel[:, r1 : r1 + _CHOL_BLOCK] = 0.0
                        np.matmul(panel, Z, out=LZ[r0:r1])
                    r0, _, L_rows = L.blocks[-1]
                    np.matmul(L_rows, Z, out=LZ[r0:])
                    block[:k, :, c] = LZ.T[:k]
            consume(p0, block[:k])

    _run_jobs([partial(job, w) for w in range(workers)], threads)
    return PathBatch(grid=cov.grid, d=d, n_paths=n_paths, seed=seed)
