"""Exact-in-distribution sampling of the CUE log-characteristic-polynomial
field, its Fourier truncations and power traces.

No dense eigensolver anywhere: a Haar CUE spectrum is parametrized by random
Verblunsky coefficients, whose Szego polynomial is synthesized once per
sample as a coefficient row by one product tree of transfer matrices over
every row of a block (szego_coefficients).  Each block of the tree carries
only row 0 of its product, since row 1 is its reflection (Simon, Orthogonal
Polynomials on the Unit Circle, sec. 1.5): a merge takes 4 forward FFTs and
2 inverse, the root 3 and 1.  The field on a uniform grid of g n points is
g inverse FFTs of length n of that row, twiddled once per coset (input
pruning of the zero-padded FFT, kernels.fourier_grid); a grid that is no
multiple of n takes its shortest divisor above n as the length.  Power
traces come from Newton's identities on the same coefficients, and their
Fourier truncations on the grid are pruned the same way when that leaves
kernels.MIN_COSETS cosets.  At arbitrary angles one per-point Szego recursion
(szego_log_abs), batched over replicas, evaluates the field in O(n) per
point.  The dense determinant and CMV-operator references live with the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import fourier_grid, real_fourier_grid
from .special_fn import SQRT2


@dataclass(frozen=True)
class FieldSample:
    """eval_field's result: the field values, the plain (M,) array on the
    uniform grid theta_i = 2 pi i / M that everything downstream takes.

    Values are on the theorem scale: X_N = sqrt(2) log|p_N|.  A grid point
    falling on an eigenvalue to machine precision yields a -inf sentinel,
    which has_singular_points reports.  The wrapper survives only because the
    benchmark's tracer reads has_singular_points from eval_field's result.
    """

    values: np.ndarray

    @property
    def has_singular_points(self) -> bool:
        return bool(np.any(np.isneginf(self.values)))


def _check_alphas(alphas: np.ndarray) -> None:
    """Reject coefficients, Verblunsky along the last axis, that do not
    give a CUE spectrum: |alpha_k| < 1 for k < n-1 and |alpha_{n-1}| = 1."""
    mod = np.abs(alphas)
    if np.any(mod[..., :-1] >= 1.0):
        raise ValueError("interior Verblunsky coefficients must satisfy |alpha| < 1")
    if np.any(np.abs(mod[..., -1] - 1.0) > 1e-12):
        raise ValueError("final Verblunsky coefficient must be unimodular")


def _alphas_from_uniforms(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|alpha_k|^2 = 1 - u^{1/(n-k-1)} (Beta(1, n-k-1) by inverse CDF) with
    phase 2 pi v, and the last coefficient e^{2 pi i v}; n is the last axis."""
    n = u.shape[-1]
    radii = np.ones(u.shape)
    b = n - 1 - np.arange(n - 1, dtype=np.float64)
    radii[..., :-1] = np.sqrt(1.0 - u[..., :-1] ** (1.0 / b))
    return radii * np.exp(2j * np.pi * v)


def sample_alphas(n: int, streams) -> np.ndarray:
    """One CUE spectrum's Verblunsky coefficients per stream (the transform
    of _alphas_from_uniforms), stacked to shape (R, n) and checked.  Each
    stream yields its n U draws first, then its n phases.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    uniforms = np.array([stream.random(2 * n) for stream in streams])
    alphas = _alphas_from_uniforms(uniforms[:, :n], uniforms[:, n:])
    _check_alphas(alphas)
    return alphas


def sample_verblunsky(n: int, stream: np.random.Generator) -> np.ndarray:
    """Draw one CUE spectrum's Verblunsky coefficients, shape (n,) (see
    sample_alphas)."""
    return sample_alphas(n, [stream])[0]


# Steps between renormalizations of the per-point recursion; 64 steps grow
# |Phi| by at most 2^64, far inside the double range.
RESCALE_CADENCE = 64


def szego_log_abs(alphas: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log|Phi_n(z)| by the Szego recursion run per point, batched over replicas.

    alphas has shape (R, n) and z shape (m,); returns shape (R, m).  The pair
    (Phi_k, Phi*_k) is renormalized every RESCALE_CADENCE steps and the scale
    kept as a logarithm, so any n works without overflow.  O(R m n).
    """
    shape = (alphas.shape[0], z.size)
    # z spelled out per replica keeps every product elementwise on equal
    # shapes, so a row comes out bit for bit the same whatever R is
    z = np.broadcast_to(z, shape).copy()
    phi = np.ones(shape, dtype=np.complex128)
    star = np.ones_like(phi)
    logscale = np.zeros(shape)
    steps = alphas.T[:, :, None]
    for k, (a, a_conj) in enumerate(zip(steps, steps.conj())):
        zphi = z * phi
        phi = zphi - a_conj * star
        star = star - a * zphi
        if (k + 1) % RESCALE_CADENCE == 0:
            s = np.maximum(np.abs(phi), np.abs(star))
            s[s == 0.0] = 1.0
            phi = phi / s
            star = star / s
            logscale += np.log(s)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(phi)) + logscale


# Steps per leaf of the product tree.  On a 2-core Xeon VM (best of 9),
# leaves of 32 beat leaves of 64 at n = 1024 (0.72 ms against 1.03 ms) and at
# n = 16384 (16.9 ms against 18.3 ms), and matched them at n = 4096.
SZEGO_LEAF = 32


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


def szego_coefficients(alphas: np.ndarray) -> np.ndarray:
    """Monomial coefficients (ascending) of the degree-n Szego polynomial of
    each row of alphas: shape (R, n) gives (R, n + 1).  Each row comes out
    bit for bit as it does alone.

    One recursion step is the polynomial transfer matrix
    T_k = [[z, -conj(alpha_k)], [-alpha_k z, 1]] acting on (Phi_k, Phi*_k), so
    Phi_n is row 0 of T_{n-1} ... T_0 applied to (1, 1).  Up to one leaf
    (n <= SZEGO_LEAF) the recursion runs on that start vector directly,
    O(n^2).  Above it every row goes through one product tree: the alphas are
    split into leaves of SZEGO_LEAF steps and the leaf products are merged
    level by level with batched FFT polynomial products, an odd block being
    carried up unchanged, until two blocks are left.  That costs
    O(n log^2 n) (von zur Gathen-Gerhard, Modern Computer Algebra ch. 10).

    Every product of d steps has the form [[A, B], [B#, A#]] with
    P#(z) = z^d conj(P(1/conj(z))), the coefficients of P reversed and
    conjugated (Simon, Orthogonal Polynomials on the Unit Circle, AMS 2005,
    sec. 1.5), so each block carries only its row 0, (A, B).  A leaf runs the
    recursion on the one start column (1, 0), which yields A and B#, batched
    over the leaves of every row.  Merging a later block (A2, B2) with an
    earlier (A1, B1) gives A = A2 A1 + B2 B1# and B = A2 B1 + B2 A1#, and the
    root gives Phi_n = A2 S + B2 S# with S = A1 + B1 (_row0_product).  A
    merge takes 4 forward transforms and 2 inverse, the root 3 and 1.  The
    last leaf is completed with alpha = 0 steps, each of which only
    multiplies Phi by z, so the root's row 0 is z^pad times the true one.

    Where the coefficients overflow the double range the rows are non-finite,
    which eval_field and trace_powers check for, so the overflow is not
    warned about.
    """
    rows, n = alphas.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= SZEGO_LEAF:
            phi, _ = _szego_steps(alphas, np.array([[1.0, 1.0]]))
            return phi[:, :, 0].T
        pad = -n % SZEGO_LEAF
        leaves = np.concatenate([alphas, np.zeros((rows, pad), dtype=np.complex128)], axis=1)
        a, b_star = _szego_steps(leaves.reshape(-1, SZEGO_LEAF), np.array([[1.0, 0.0]]))
        # level[r, b, 0] and level[r, b, 1] hold A and B of row r's block b
        level = np.stack([a[:, :, 0], np.conj(b_star[::-1, :, 0])]).transpose(2, 0, 1)
        level = level.reshape(rows, -1, *level.shape[1:])
        while level.shape[1] > 2:
            pairs = level.shape[1] // 2
            # the later block multiplies from the left; only the earlier one is
            # reflected, and it always fills its storage degree, since only the
            # last block can have been carried up
            merged = _row0_product(level[:, 1 : 2 * pairs : 2], level[:, 0 : 2 * pairs : 2])
            if level.shape[1] % 2:
                carried = np.zeros((rows, 1, *merged.shape[2:]), dtype=np.complex128)
                carried[..., : level.shape[-1]] = level[:, -1:]
                merged = np.concatenate([merged, carried], axis=1)
            level = merged
        root = _row0_product(level[:, 1], level[:, 0, :1] + level[:, 0, 1:])[:, 0]
        return root[:, pad : pad + n + 1]


def _row0_product(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """A2 E_c + B2 (E_{C-1-c})# for each c, the coefficients on the last axis.

    later (..., 2, d + 1) holds (A2, B2), earlier (..., C, d + 1) the degree-d
    polynomials E_c, and # reflects at degree d.  C = 2 with E = (A1, B1)
    merges two blocks; C = 1 with E = S gives the root's A2 S + B2 S#.
    Returns the 2d + 1 coefficients of each result, shape (..., C, 2d + 1).

    Zero-padded to length 2d, fft(P#)[k] = (-1)^k conj(fft(P)[k]), so the
    reflections cost no transform.  A cyclic product of the power-of-two
    length 2d folds the top coefficient onto the constant one, so it is
    computed directly and moved back.  At n = 4096 this stayed within 4e-15
    of an 80-bit recursion; 5-smooth lengths of at least 2d + 1 drifted to
    2e-14.
    """
    degree = later.shape[-1] - 1  # SZEGO_LEAF times a power of two
    f_later = np.fft.fft(later, n=2 * degree, axis=-1)
    f_earlier = np.fft.fft(earlier, n=2 * degree, axis=-1)
    f_star = np.conj(f_earlier[..., ::-1, :])
    f_star[..., 1::2] *= -1.0
    cyclic = np.fft.ifft(f_later[..., :1, :] * f_earlier + f_later[..., 1:, :] * f_star, axis=-1)
    # B2 has degree below d, so only A2 E_c reaches the top coefficient
    top = later[..., :1, degree] * earlier[..., degree]
    cyclic[..., 0] -= top
    return np.concatenate([cyclic, top[..., None]], axis=-1)


def eval_field(coefficients: np.ndarray, grid_size: int) -> FieldSample:
    """X_N on the uniform grid from a characteristic polynomial's ascending
    coefficients, shape (n + 1,), as in a row of szego_coefficients.  The
    polynomial's values are kernels.fourier_grid: on a grid of M = g n
    points, g inverse FFTs of length n of the twiddled coefficients.  Raises ValueError when the grid does not resolve the polynomial
    (grid_size <= n) or the coefficients have overflowed; the per-point
    recursion (eval_field_at) evaluates the field there.
    """
    n = coefficients.size - 1
    if grid_size <= n:
        raise ValueError(f"grid_size must exceed n={n}, got {grid_size}")
    if not np.all(np.isfinite(coefficients)):
        raise ValueError(
            f"characteristic polynomial coefficients overflow the double range at n={n}; "
            "the grid transform cannot give the field"
        )
    values = np.abs(fourier_grid(coefficients, grid_size))
    with np.errstate(divide="ignore"):
        np.log(values, out=values)
    values *= SQRT2
    return FieldSample(values)


def eval_field_at(alphas: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """X_N at arbitrary angles by the per-point Szego recursion, given one
    spectrum's Verblunsky coefficients, shape (n,)."""
    z = np.exp(1j * np.atleast_1d(np.asarray(theta, dtype=float)))
    return SQRT2 * szego_log_abs(alphas[None, :], z)[0]


# ---------------------------------------------------------------------------
# power traces
# ---------------------------------------------------------------------------

TRACE_COST_GUARD = 64


def trace_powers(coefficients: np.ndarray, kmax: int) -> np.ndarray:
    """p with p[r, k-1] = Tr U^k for k = 1..kmax, the power sums of the roots
    of the characteristic polynomial whose ascending monomial coefficients
    are coefficients[r] (shape (R, n + 1), as szego_coefficients gives
    them), via Newton's identities;
    O(kmax min(kmax, n)) per row.  The tests cross-check it against powers of
    the dense CMV operator (tests/conftest.py: trace_powers_cmv).  Raises
    ValueError when a coefficient vector has overflowed.

    The traces are built reversed in one buffer, so the earlier traces that
    step k reads are contiguous: one np.dot per step for one row, one stacked
    np.matmul (a dot per row) for several.  Each row comes out bit for bit as
    it does alone.
    """
    rows, n = coefficients.shape[0], coefficients.shape[1] - 1
    if not 1 <= kmax <= TRACE_COST_GUARD * n:
        raise ValueError(f"kmax must lie in [1, {TRACE_COST_GUARD * n}], got {kmax}")
    if not np.all(np.isfinite(coefficients)):
        raise ValueError(
            f"characteristic polynomial coefficients overflow the double range at n={n}; "
            "Newton's identities cannot give its power traces"
        )
    a = np.ascontiguousarray(coefficients[:, ::-1])  # a[:, i] multiplies z^{n-i}
    top = min(kmax, n)
    # s[:, k-1] = -k a_k, the term of step k that reads no earlier trace
    s = np.zeros((rows, kmax), dtype=np.complex128)
    s[:, :top] = -np.arange(1, top + 1) * a[:, 1 : top + 1]
    rev = np.empty((rows, kmax), dtype=np.complex128)  # rev[:, kmax-k] = Tr U^k
    rev[:, kmax - 1] = s[:, 0]
    # step k sums a_j Tr U^{k-j} over j = 1..min(k - 1, n).  One row takes
    # the np.dot loop: at n = 1024, kmax = 148 (a barrier nu-mu replica) it
    # ran in 0.37-0.39 ms against 0.78-0.81 ms for the matmul loop on one
    # row (2-core Xeon VM, best 5 of 7 runs of 50 calls), with the same bits.
    if rows == 1:
        a0, s0, rev0 = a[0], s[0], rev[0]
        for k in range(2, kmax + 1):
            m, at = min(k - 1, n), kmax - k
            rev0[at] = s0[k - 1] - np.dot(a0[1 : m + 1], rev0[at + 1 : at + 1 + m])
    else:
        for k in range(2, kmax + 1):
            m, at = min(k - 1, n), kmax - k
            dots = np.matmul(a[:, None, 1 : m + 1], rev[:, at + 1 : at + 1 + m, None])
            rev[:, at] = s[:, k - 1] - dots[:, 0, 0]
    return rev[:, ::-1]


def truncated_fields(traces: np.ndarray, deltas, grid_size: int) -> np.ndarray:
    """Fourier-truncated fields X_{N,delta} on the uniform grid, one row per delta:
    -sqrt(2) Re sum_{k <= 1/delta} (Tr U^k / k) e^{-ik theta}.

    All rows come from one batched grid transform of -sqrt(2) conj(Tr U^k)/k
    (kernels.real_fourier_grid).  Every row spans the traces given, below
    the grid size, with zeros past its own floor(1/delta), so the transform
    does not depend on which deltas share the call, and each row is bit for
    bit the one its delta gives alone.  traces[k-1] is Tr U^k, as in a row
    of trace_powers.  Each delta must lie in (0, 1], with at least
    floor(1/delta) traces and a grid finer than that.
    """
    kmaxes = []
    for delta in deltas:
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must lie in (0,1], got {delta}")
        kmax = int(math.floor(1.0 / delta))
        if kmax > traces.size:
            raise ValueError(f"need {kmax} traces for delta={delta}, have {traces.size}")
        if grid_size <= kmax:
            raise ValueError(f"grid_size must exceed 1/delta={kmax}, got {grid_size}")
        kmaxes.append(kmax)
    k = np.arange(1, min(traces.size, grid_size - 1) + 1)
    # row j keeps the modes k <= kmaxes[j]; -Tr U^k e^{-ik theta} has the real
    # part of -conj(Tr U^k) e^{ik theta}
    modes = np.conj(traces[: k.size]) * (-SQRT2 / k)
    return real_fourier_grid(np.where(k <= np.array(kmaxes)[:, None], modes, 0.0), grid_size)


def truncated_field(traces: np.ndarray, delta: float, grid_size: int) -> np.ndarray:
    """Fourier-truncated field X_{N,delta} on the uniform grid:
    -sqrt(2) Re sum_{k <= 1/delta} (Tr U^k / k) e^{-ik theta}; the one row of
    truncated_fields for this delta.
    """
    return truncated_fields(traces, [delta], grid_size)[0]
