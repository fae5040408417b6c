"""Exact-in-distribution sampling of the CUE log-characteristic-polynomial
field, its Fourier truncations and power traces.

No dense eigensolver anywhere: a Haar CUE spectrum is parametrized by random
Verblunsky coefficients, whose Szego polynomial is synthesized once per
sample as a coefficient vector by a product tree of transfer matrices.  The
field on a uniform grid is one FFT of that vector, at arbitrary angles the
Szego recursion runs per point in O(n), and power traces come from Newton's
identities on the synthesized coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class VerblunskyCoeffs:
    """Verblunsky parametrization of a CUE spectrum.

    |alpha_k| < 1 for k < n-1 and |alpha_{n-1}| = 1; the zeros of the induced
    degree-n Szego polynomial follow the CUE eigenvalue law.
    """

    alphas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=np.complex128)
        object.__setattr__(self, "alphas", a)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("alphas must be a non-empty vector")
        mod = np.abs(a)
        if a.size > 1 and np.any(mod[:-1] >= 1.0):
            raise ValueError("interior Verblunsky coefficients must satisfy |alpha| < 1")
        if abs(mod[-1] - 1.0) > 1e-12:
            raise ValueError("final Verblunsky coefficient must be unimodular")

    @property
    def n(self) -> int:
        return self.alphas.size

    @functools.cached_property
    def phi_coefficients(self) -> np.ndarray:
        """Ascending monomial coefficients of the degree-n Szego polynomial,
        synthesized on first use and shared read-only afterwards."""
        c = _phi_coefficient_vector(self.alphas)
        c.flags.writeable = False
        return c


@dataclass(frozen=True)
class FieldSample:
    """Field values on the uniform angular grid theta_i = 2 pi i / M.

    Values are on the theorem scale: X_N = sqrt(2) log|p_N|.  A grid point
    falling on an eigenvalue to machine precision yields a -inf sentinel and
    sets has_singular_points.
    """

    n: int
    values: np.ndarray
    has_singular_points: bool = False

    @property
    def grid_size(self) -> int:
        return self.values.size

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.grid_size) / self.grid_size


@dataclass(frozen=True)
class TraceVector:
    """Tr U^k for k = 1..kmax."""

    n: int
    traces: np.ndarray

    @property
    def kmax(self) -> int:
        return self.traces.size


def sample_verblunsky(n: int, stream: np.random.Generator) -> VerblunskyCoeffs:
    """Draw Verblunsky coefficients whose Szego polynomial zeros are CUE.

    |alpha_k|^2 = 1 - U^{1/(n-k-1)} (Beta(1, n-k-1) by inverse CDF) with an
    independent uniform phase; the last coefficient is uniform on the circle.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    u = stream.random(n)
    phase = np.exp(2j * np.pi * stream.random(n))
    radii = np.empty(n)
    if n > 1:
        b = n - 1 - np.arange(n - 1, dtype=np.float64)
        radii[:-1] = np.sqrt(1.0 - u[:-1] ** (1.0 / b))
    radii[-1] = 1.0
    return VerblunskyCoeffs(radii * phase)


def _szego_numpy(alphas: np.ndarray, z: np.ndarray, cadence: int) -> np.ndarray:
    phi = np.ones_like(z)
    phistar = np.ones_like(z)
    logscale = np.zeros(z.size)
    for k, a in enumerate(alphas):
        zphi = z * phi
        phi = zphi - np.conj(a) * phistar
        phistar = phistar - a * zphi
        if (k + 1) % cadence == 0:
            s = np.maximum(np.abs(phi), np.abs(phistar))
            s[s == 0.0] = 1.0
            phi = phi / s
            phistar = phistar / s
            logscale += np.log(s)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(phi)) + logscale


SZEGO_LEAF = 64
# Degree at or below which the plain recursion beats the product tree; a lone
# leaf carries four polynomials where the plain recursion carries two.  On a
# 2-core Xeon VM the plain recursion won at n = 96 (0.86 ms against 0.97 ms)
# and the tree from n = 112 on (0.97 ms against 1.05 ms).
SZEGO_CROSSOVER = 100


def _szego_steps(alphas: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient-vector Szego recursion, batched over blocks and start columns.

    alphas has shape (B, m) and start shape (C, 2); each start column
    (Phi_0, Phi*_0) is run through the m steps of each block.  Returns the
    ascending monomial coefficients of Phi_m and Phi*_m, each (m+1, B, C).
    O(m^2) per block and column.
    """
    blocks, m = alphas.shape
    # coefficients on the first axis keep every step's slices one-dimensional
    phi = np.zeros((m + 1, blocks, start.shape[0]), dtype=np.complex128)
    star = np.zeros_like(phi)
    # Phi_k lives in phi[m-k:], so z Phi_k is phi[m-k-1:] for free
    phi[m] = start[:, 0]
    star[0] = start[:, 1]
    steps = alphas.T[:, :, None]
    for k, (a, a_conj) in enumerate(zip(steps, steps.conj())):
        a_z_phi = a * phi[m - k :]
        # Phi_{k+1} = z Phi_k - conj(a) Phi*_k, then Phi*_{k+1} = Phi*_k - a z Phi_k
        phi[m - k - 1 :] -= a_conj * star[: k + 2]
        star[1 : k + 2] -= a_z_phi
    return phi, star


def _phi_coefficient_vector(alphas: np.ndarray) -> np.ndarray:
    """Monomial coefficients (ascending) of the degree-n Szego polynomial.

    One recursion step is the polynomial transfer matrix
    T_k = [[z, -conj(alpha_k)], [-alpha_k z, 1]] acting on (Phi_k, Phi*_k), so
    Phi_n is row 0 of T_{n-1} ... T_0 applied to (1, 1).  For
    n <= SZEGO_CROSSOVER the recursion runs on that start vector directly,
    O(n^2).  Above it the alphas are split into leaves of SZEGO_LEAF steps;
    every leaf's 2x2 product comes from the recursion on the start columns
    (1, 0) and (0, 1), batched over leaves, and adjacent products are merged
    level by level with batched FFT polynomial products, an odd block being
    carried up unchanged.  That costs O(n log^2 n) (von zur Gathen-Gerhard,
    Modern Computer Algebra ch. 10).  The last leaf is completed with
    alpha = 0 steps, each of which only multiplies Phi by z, so the root's
    row 0 is z^pad times the true one.
    """
    n = alphas.size
    if n <= SZEGO_CROSSOVER:
        phi, _ = _szego_steps(alphas[None, :], np.array([[1.0, 1.0]]))
        return phi[:, 0, 0]
    pad = -n % SZEGO_LEAF
    leaves = np.concatenate([alphas, np.zeros(pad, dtype=np.complex128)])
    phi, star = _szego_steps(leaves.reshape(-1, SZEGO_LEAF), np.eye(2))
    # level[b, r, c] holds row r, column c of block b's product
    level = np.stack([phi, star]).transpose(2, 0, 3, 1)
    while level.shape[0] > 1:
        pairs = level.shape[0] // 2
        degree = level.shape[-1] - 1  # SZEGO_LEAF times a power of two
        later, earlier = level[1 : 2 * pairs : 2], level[0 : 2 * pairs : 2]
        # The later block multiplies from the left.  A cyclic product of the
        # power-of-two length 2 * degree folds the top coefficient onto the
        # constant one, so it is computed directly and moved back.  At n = 4096
        # this stayed within 4e-15 of an 80-bit recursion; 5-smooth lengths
        # of at least 2 * degree + 1 drifted to 2e-14.
        cyclic = np.fft.ifft(
            np.einsum(
                "pabf,pbcf->pacf",
                np.fft.fft(later, n=2 * degree, axis=-1),
                np.fft.fft(earlier, n=2 * degree, axis=-1),
            ),
            axis=-1,
        )
        top = np.einsum("pab,pbc->pac", later[..., degree], earlier[..., degree])
        cyclic[..., 0] -= top
        merged = np.concatenate([cyclic, top[..., None]], axis=-1)
        if level.shape[0] % 2:
            carried = np.zeros((1, 2, 2, 2 * degree + 1), dtype=np.complex128)
            carried[..., : degree + 1] = level[-1]
            merged = np.concatenate([merged, carried])
        level = merged
    return level[0, 0, 0, pad : pad + n + 1] + level[0, 0, 1, pad : pad + n + 1]


def eval_field(
    coeffs: VerblunskyCoeffs, grid_size: int, rescale_cadence: int = 64
) -> FieldSample:
    """Evaluate X_N on the uniform grid.

    When the grid resolves the polynomial (grid_size > n) the field is one FFT
    of the Szego coefficient vector, which is computed once per
    VerblunskyCoeffs and shared with trace_powers; otherwise the Szego
    recursion runs per point, renormalized every rescale_cadence steps so it
    survives n >= 10^4 without overflow.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    if rescale_cadence < 1:
        raise ValueError(f"rescale_cadence must be >= 1, got {rescale_cadence}")
    n = coeffs.n
    if grid_size > n:
        c = coeffs.phi_coefficients
        if np.all(np.isfinite(c)):
            vals = np.fft.ifft(c, n=grid_size) * grid_size
            with np.errstate(divide="ignore"):
                logabs = np.log(np.abs(vals))
            values = SQRT2 * logabs
            return FieldSample(n, values, bool(np.any(np.isneginf(values))))
    z = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    values = SQRT2 * _szego_numpy(coeffs.alphas, z, rescale_cadence)
    return FieldSample(n, values, bool(np.any(np.isneginf(values))))


def eval_field_at(coeffs: VerblunskyCoeffs, theta: np.ndarray, rescale_cadence: int = 64) -> np.ndarray:
    """X_N at arbitrary angles (same recursion, explicit grid)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    z = np.exp(1j * theta)
    return SQRT2 * _szego_numpy(coeffs.alphas, z.astype(np.complex128), rescale_cadence)


# ---------------------------------------------------------------------------
# dense oracle path (tests only): hand-rolled linear algebra, n <= 8
# ---------------------------------------------------------------------------

_ORACLE_MAX_N = 8


def _gram_schmidt_unitary(z: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt orthonormalization of a complex matrix.

    The induced R has positive real diagonal, which is exactly the coset
    convention under which Q of a Ginibre matrix is Haar distributed.
    """
    n = z.shape[0]
    q = z.astype(np.complex128).copy()
    for j in range(n):
        for i in range(j):
            q[:, j] -= (q[:, i].conj() @ q[:, j]) * q[:, i]
        q[:, j] /= math.sqrt(float(np.sum(np.abs(q[:, j]) ** 2)))
    return q


def _lu_logabsdet(a: np.ndarray) -> float:
    """log|det A| by LU with partial pivoting; -inf for singular A."""
    a = a.astype(np.complex128).copy()
    n = a.shape[0]
    acc = 0.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return -math.inf
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        acc += math.log(abs(a[col, col]))
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
    return acc


def sample_haar_unitary_dense(n: int, stream: np.random.Generator) -> np.ndarray:
    """Haar random unitary by orthonormalizing a Ginibre matrix (n <= 8)."""
    if n > _ORACLE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {_ORACLE_MAX_N}, got {n}")
    g = stream.standard_normal((n, n)) + 1j * stream.standard_normal((n, n))
    return _gram_schmidt_unitary(g)


def det_log_field(u: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sqrt(2) log|det(I - e^{-i theta} U)| by dense LU; oracle path."""
    n = u.shape[0]
    if n > _ORACLE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {_ORACLE_MAX_N}, got {n}")
    eye = np.eye(n, dtype=np.complex128)
    out = np.empty(len(theta))
    for i, t in enumerate(np.asarray(theta, dtype=float)):
        out[i] = SQRT2 * _lu_logabsdet(eye - np.exp(-1j * t) * u)
    return out


def det_field_oracle(n: int, stream: np.random.Generator, grid_size: int) -> FieldSample:
    """Independent sampler for tests: Haar unitary via Gram-Schmidt plus dense
    LU determinants.  Matches eval_field in distribution."""
    u = sample_haar_unitary_dense(n, stream)
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    values = det_log_field(u, theta)
    return FieldSample(n, values, bool(np.any(np.isneginf(values))))


# ---------------------------------------------------------------------------
# CMV operator and power traces
# ---------------------------------------------------------------------------

TRACE_COST_GUARD = 64


def _cmv_factors(coeffs: VerblunskyCoeffs):
    """Block structure of C = L M.

    L carries the 2x2 blocks Theta_j at even j, M the odd ones plus the 1x1
    identity cap in the corner; whichever factor runs out of room holds the
    truncated unimodular cap alpha_{n-1} conjugate.
    """
    a = coeffs.alphas
    n = coeffs.n
    rho = np.sqrt(np.clip(1.0 - np.abs(a) ** 2, 0.0, None))

    def theta_blocks(indices):
        blocks = np.empty((len(indices), 2, 2), dtype=np.complex128)
        for m, j in enumerate(indices):
            blocks[m, 0, 0] = np.conj(a[j])
            blocks[m, 0, 1] = rho[j]
            blocks[m, 1, 0] = rho[j]
            blocks[m, 1, 1] = -a[j]
        return blocks

    cap = np.conj(a[n - 1])
    if n % 2 == 0:
        l_blocks = theta_blocks(range(0, n - 1, 2))
        l_cap = None
        m_blocks = theta_blocks(range(1, n - 2, 2))
        m_cap = cap
    else:
        l_blocks = theta_blocks(range(0, n - 2, 2))
        l_cap = cap
        m_blocks = theta_blocks(range(1, n - 1, 2))
        m_cap = None
    return l_blocks, l_cap, m_blocks, m_cap


def _apply_blockdiag(v, blocks, start, cap_back):
    """Apply (1-cap?) + 2x2 block-diagonal + (cap?) operator to matrix v."""
    out = v.copy()
    m = blocks.shape[0]
    if m:
        seg = v[start : start + 2 * m].reshape(m, 2, -1)
        out[start : start + 2 * m] = np.matmul(blocks, seg).reshape(2 * m, -1)
    if cap_back is not None:
        out[-1] = cap_back * v[-1]
    return out


def cmv_matrix(coeffs: VerblunskyCoeffs) -> np.ndarray:
    """Dense CMV operator; its characteristic polynomial is the Szego Phi_n."""
    n = coeffs.n
    l_blocks, l_cap, m_blocks, m_cap = _cmv_factors(coeffs)
    lmat = _apply_blockdiag(np.eye(n, dtype=np.complex128), l_blocks, 0, l_cap)
    mmat = _apply_blockdiag(np.eye(n, dtype=np.complex128), m_blocks, 1, m_cap)
    return lmat @ mmat


def trace_powers(coeffs: VerblunskyCoeffs, kmax: int) -> TraceVector:
    """Tr U^k for k = 1..kmax as power sums of the characteristic polynomial
    roots, via Newton's identities on the Szego coefficients; O(kmax^2) on top
    of the coefficient vector, which is computed once per VerblunskyCoeffs and
    shared with eval_field.  Cross-checked against trace_powers_cmv."""
    n = coeffs.n
    if not 1 <= kmax <= TRACE_COST_GUARD * n:
        raise ValueError(f"kmax must lie in [1, {TRACE_COST_GUARD * n}], got {kmax}")
    a = coeffs.phi_coefficients[::-1]  # a[i] multiplies z^{n-i}
    p = np.empty(kmax, dtype=np.complex128)
    for k in range(1, kmax + 1):
        m = min(k - 1, n)
        s = np.complex128(-k * a[k]) if k <= n else np.complex128(0.0)
        if m:
            s -= np.dot(a[1 : m + 1], p[k - 2 :: -1][:m])
        p[k - 1] = s
    return TraceVector(n, p)


def trace_powers_cmv(coeffs: VerblunskyCoeffs, kmax: int) -> TraceVector:
    """Tr U^k by repeated application of the CMV factors to the full basis;
    O(n^2) per power.  Slow reference implementation."""
    n = coeffs.n
    if not 1 <= kmax <= TRACE_COST_GUARD * n:
        raise ValueError(f"kmax must lie in [1, {TRACE_COST_GUARD * n}], got {kmax}")
    l_blocks, l_cap, m_blocks, m_cap = _cmv_factors(coeffs)
    v = np.eye(n, dtype=np.complex128)
    traces = np.empty(kmax, dtype=np.complex128)
    for k in range(kmax):
        v = _apply_blockdiag(v, m_blocks, 1, m_cap)
        v = _apply_blockdiag(v, l_blocks, 0, l_cap)
        traces[k] = np.trace(v)
    return TraceVector(n, traces)


def truncated_field(traces: TraceVector, n: int, delta: float, grid_size: int) -> FieldSample:
    """Fourier-truncated field X_{N,delta} on the uniform grid:
    -sqrt(2) Re sum_{k <= 1/delta} (Tr U^k / k) e^{-ik theta}.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0,1], got {delta}")
    kmax = int(math.floor(1.0 / delta))
    if kmax > traces.kmax:
        raise ValueError(f"need {kmax} traces for delta={delta}, have {traces.kmax}")
    if grid_size <= kmax:
        raise ValueError(f"grid_size must exceed 1/delta={kmax}, got {grid_size}")
    coeff = np.zeros(grid_size, dtype=np.complex128)
    k = np.arange(1, kmax + 1)
    coeff[1 : kmax + 1] = traces.traces[:kmax] / k
    values = -SQRT2 * np.real(np.fft.fft(coeff))
    return FieldSample(n, values)


def truncated_field_variance(n: int, delta: float) -> float:
    """Analytic Var X_{N,delta}(x) = sum_{k <= 1/delta} min(k, n)/k^2."""
    kmax = int(math.floor(1.0 / delta))
    k = np.arange(1, kmax + 1, dtype=np.float64)
    return float(np.sum(np.minimum(k, float(n)) / k**2))
