"""Shared test oracles.

Independent references used to pin the analytic code: a Weierstrass-product
Barnes G, a fresh generator on a replica's stream, a one-stream batched
Verblunsky sampler and a Monte Carlo field sampler over it and the library's
batched Szego routine, an mpmath Szego recursion, mpmath power traces by the
Szego coefficient recursion and Newton's identities, a long-double Szego
coefficient recursion, the truncated circle kernel by one correctly rounded
sum and from a direct table of complex exponentials, the circle chord and
log kernel, a brute-force Simpson convolution density, a bump sampler, the
looped dyadic panel edges, the singly mollified kernel and the diagonal
constant kappa, the grid transforms before coset pruning (one zero-padded
inverse FFT, complex or real, of the grid's length), the truncated field
by one complex FFT per scale and its analytic variance, the nu-mu barrier columns from one barrier mask per start
level, small-n dense oracles (a Gram-Schmidt Haar unitary, LU determinants,
the CMV operator and its power traces), the Bourgade-Hughes-Nikeghbali-Yor
product law of the field at one point, Kolmogorov-Smirnov statistics with
their asymptotic critical values, the exact finite-N thick-point
probability by Gil-Pelaez inversion, and the large-N laws the Monte Carlo
checks compare with: log Gamma and Psi as values, the Frechet limit law and
the two-point and joint moment asymptotics.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import zeta

from thickpoints.cue import (
    TRACE_COST_GUARD,
    _alphas_from_uniforms,
    eval_field_at,
    szego_coefficients,
    trace_powers,
    truncated_field,
)
from thickpoints.kernels import (
    END_RUNGS,
    _log_integral,
    bump_density,
    circle_truncated_kernel_grid,
    doubly_mollified_kernel,
    to_grid_order,
)
from thickpoints.montecarlo import ExperimentConfig, derive_seed, sample_field
from thickpoints.special_fn import (
    _loggamma,
    log_cue_abs_moment_exact,
    log_psi,
    thickpoint_prob_asymptotic,
)

EULER_GAMMA = 0.57721566490153286060651209008240

SQRT2 = math.sqrt(2.0)


def weierstrass_log_barnes_g1p(w: float, terms: int = 100_000) -> float:
    """log G(1+w) from the Weierstrass product, with an analytic tail.

    log G(1+w) = (w/2) log 2pi - w(w+1)/2 - gamma w^2/2
                 + sum_k [w^2/(2k) - w + k log(1+w/k)],
    the truncated sum completed with the series
    sum_{k>K} = sum_{m>=3} (-1)^{m+1} w^m/m zeta(m-1, K+1).

    The three terms of a summand cancel to about w x^2 / 3, x = w/k, so
    past k = 4|w|, where |x| <= 1/4, a summand is taken from its series
    w x^2 sum_{m>=3} (-1)^{m+1} x^(m-3) / m, cut after m = 32, where the
    next term is below 1e-19 of the first.
    """
    k = np.arange(1, terms + 1, dtype=np.float64)
    near = k[k <= 4.0 * abs(w)]
    x = w / k[k > 4.0 * abs(w)]
    series = np.zeros_like(x)
    for m in range(32, 2, -1):
        series = series * x + (-1.0) ** (m + 1) / m
    partial = math.fsum(
        (w * w / (2.0 * near) - w + near * np.log1p(w / near)).tolist() + (w * x * x * series).tolist()
    )
    tail = 0.0
    for m in range(3, 30):
        term = (-1.0) ** (m + 1) * w**m / m * float(zeta(m - 1, terms + 1))
        tail += term
        if abs(term) < 1e-18:
            break
    return (
        0.5 * w * math.log(2.0 * math.pi)
        - 0.5 * w * (w + 1.0)
        - 0.5 * EULER_GAMMA * w * w
        + partial
        + tail
    )


def weierstrass_log_psi(z: float) -> float:
    """log Psi(z) = 2 log G(1 + z/sqrt 2) - log G(1 + sqrt 2 z), product oracle."""
    return 2.0 * weierstrass_log_barnes_g1p(z / SQRT2) - weierstrass_log_barnes_g1p(SQRT2 * z)


def replica_stream(master_seed: int, replica_index: int) -> np.random.Generator:
    """A fresh generator on the replica's stream, as the README defines it:
    the reference for the generators the library seeds from each replica's
    hashed seed words."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, replica_index)))


def sample_alphas_block(n: int, stream: np.random.Generator, batch: tuple[int, ...]) -> np.ndarray:
    """Verblunsky coefficients of shape (*batch, n) from one stream, which
    yields the whole U block first, then the whole phase block; CUE along the
    last axis, as cue.sample_alphas draws them one row per stream."""
    shape = (*batch, n)
    u = stream.random(shape)
    return _alphas_from_uniforms(u, stream.random(shape))


def phi_coefficients(alphas: np.ndarray) -> np.ndarray:
    """The ascending Szego coefficients of one spectrum's Verblunsky
    coefficients, shape (n,) to (n + 1,)."""
    return szego_coefficients(alphas[None])[0]


def mc_field_at(
    n: int, thetas, reps: int, rng: np.random.Generator, chunk: int = 5000
) -> np.ndarray:
    """X_N at the given angles over many replicas, shape (reps, len(thetas)),
    chunked to bound memory."""
    parts = []
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        parts.append(eval_field_at(sample_alphas_block(n, rng, (m,)), thetas))
        done += m
    return np.concatenate(parts, axis=0)


def mp_field_on_grid(alphas: np.ndarray, grid_size: int, indices, dps: int = 40) -> np.ndarray:
    """X_N at theta = 2 pi j / grid_size for j in indices, by the Szego
    recursion in mpmath at dps digits."""
    out = []
    with mpmath.workdps(dps):
        steps = [mpmath.mpc(complex(a)) for a in alphas]
        for j in indices:
            z = mpmath.expjpi(mpmath.mpf(2 * j) / grid_size)
            phi = star = mpmath.mpc(1)
            for a in steps:
                zphi = z * phi
                phi, star = zphi - mpmath.conj(a) * star, star - a * zphi
            out.append(float(mpmath.sqrt(2) * mpmath.log(abs(phi))))
    return np.array(out)


def mp_trace_powers(alphas: np.ndarray, kmax: int, dps: int = 60) -> np.ndarray:
    """Tr U^k for k = 1..kmax: the Szego recursion on coefficient vectors,
    then Newton's identities on the monic Phi_n, both in mpmath at dps
    digits.  O(n^2 + kmax n)."""
    n = alphas.size
    with mpmath.workdps(dps):
        phi = [mpmath.mpc(1)] + [mpmath.mpc(0)] * n
        star = list(phi)
        for a in alphas:
            a = mpmath.mpc(complex(a))
            zphi = [mpmath.mpc(0)] + phi[:n]
            phi = [zp - mpmath.conj(a) * s for zp, s in zip(zphi, star)]
            star = [s - a * zp for zp, s in zip(zphi, star)]
        c = phi[::-1]  # c[i] multiplies z^{n-i}
        p = []
        for k in range(1, kmax + 1):
            m = min(k - 1, n)
            s = -k * c[k] if k <= n else mpmath.mpc(0)
            if m:
                s -= mpmath.fdot(c[1 : m + 1], p[k - 2 :: -1][:m])
            p.append(s)
        return np.array([complex(x) for x in p])


def ld_phi_coefficients(alphas: np.ndarray) -> np.ndarray:
    """Ascending coefficients of Phi_n by the plain Szego recursion on
    coefficient vectors in long double (80-bit on x86); O(n^2)."""
    n = alphas.size
    phi = np.zeros(n + 1, dtype=np.clongdouble)
    star = np.zeros_like(phi)
    phi[0] = star[0] = 1
    for k, a in enumerate(alphas.astype(np.clongdouble)):
        zphi = np.zeros_like(phi)
        zphi[1 : k + 2] = phi[: k + 1]
        phi, star = zphi - np.conj(a) * star, star - a * zphi
    return phi


def one_transform_grid(coefficients: np.ndarray, grid_size: int) -> np.ndarray:
    """sum_m coefficients[..., m] e^{im theta} at theta = 2 pi j / grid_size by
    one zero-padded inverse FFT of length grid_size: kernels.fourier_grid
    before coset pruning."""
    return np.fft.ifft(coefficients, n=grid_size) * grid_size


def one_transform_real_grid(modes: np.ndarray, grid_size: int) -> np.ndarray:
    """kernels.real_fourier_grid before coset pruning: one real inverse FFT of
    length grid_size per row, scaled by grid_size / 2, with modes above
    grid_size / 2 moved to the conjugate mode grid_size - k and the Nyquist
    mode doubled."""
    kmax = modes.shape[-1]
    half = grid_size // 2
    spec = np.zeros(modes.shape[:-1] + (half + 1,), dtype=np.complex128)
    spec[..., 1 : min(kmax, half) + 1] = modes[..., :half]
    if kmax > half:
        spec[..., grid_size - kmax : grid_size - half] += np.conj(modes[..., : half - 1 : -1])
    if grid_size % 2 == 0:
        spec[..., half] *= 2.0
    values = np.fft.irfft(spec, grid_size)
    values *= 0.5 * grid_size
    return values


def truncated_field_fft(traces: np.ndarray, delta: float, grid_size: int) -> np.ndarray:
    """-sqrt(2) Re sum_{k <= 1/delta} (Tr U^k / k) e^{-ik theta} on the grid by
    one complex FFT of length grid_size."""
    kmax = int(math.floor(1.0 / delta))
    coeff = np.zeros(grid_size, dtype=np.complex128)
    coeff[1 : kmax + 1] = traces[:kmax] / np.arange(1, kmax + 1)
    return -SQRT2 * np.real(np.fft.fft(coeff))


def mp_fourier_sum(modes: np.ndarray, weight, grid_size: int, indices, dps: int = 30) -> np.ndarray:
    """Re sum_k weight(k) modes[k-1] e^{ik theta} at theta = 2 pi j / grid_size
    for j in indices, summed directly in mpmath at dps digits.  weight(k) is
    evaluated at that precision, and each angle is reduced exactly, to
    2 pi (k j mod grid_size) / grid_size."""
    out = []
    with mpmath.workdps(dps):
        terms = [(weight(k), mpmath.mpc(complex(m))) for k, m in enumerate(modes, start=1)]
        unit = {}
        for j in indices:
            total = mpmath.mpf(0)
            for k, (w, m) in enumerate(terms, start=1):
                r = k * j % grid_size
                if r not in unit:
                    unit[r] = mpmath.expjpi(mpmath.mpf(2 * r) / grid_size)
                total += w * (m * unit[r]).real
            out.append(float(total))
    return np.array(out)


def nu_mu_barrier_oracle(config: ExperimentConfig, replica_index: int) -> dict[str, float]:
    """The nu_barrier_violation_l* columns of one nu-mu replica, each start
    level's mask built afresh by its own conjunction over the per-scale
    truncated fields in grid order, and its complement integrated against
    the thick points X >= gamma log N as a float mean over the grid."""
    coefficients, field = sample_field(config, replica_stream(config.master_seed, replica_index))
    gamma = config.gamma_theorem
    levels = list(range(config.ell, config.barrier_depth + 1))
    if not levels:
        return {f"nu_barrier_violation_l{config.ell}": 0.0}
    kmax = int(math.floor(math.exp(levels[-1])))
    traces = trace_powers(coefficients, kmax)[0]
    truncated = {
        k: to_grid_order(truncated_field(traces, [math.exp(-k)], field.size))[0] for k in levels
    }
    thick = (field >= gamma * math.log(config.n)).astype(float)
    denominator = thickpoint_prob_asymptotic(config.n, gamma)
    out = {}
    for start in levels:
        mask = np.ones(field.size, dtype=bool)
        for k in range(start, levels[-1] + 1):
            mask &= truncated[k] <= (gamma + config.eta) * k
        complement = (~mask).astype(float)
        out[f"nu_barrier_violation_l{start}"] = float(np.mean(complement * thick)) / denominator
    return out


def direct_truncated_kernel_grid(deltas: np.ndarray, kmaxes: list[int]) -> np.ndarray:
    """circle_truncated_kernel_grid from one direct table np.exp(1j * k * x),
    k = 1..max(kmaxes), with Re e^{ikx} / k summed over k in long double."""
    k = np.arange(1, max(kmaxes) + 1)
    terms = np.exp(1j * np.outer(k, deltas)).real / k[:, None]
    partial = np.cumsum(terms.astype(np.longdouble), axis=0)
    return np.array([partial[kmax - 1] for kmax in kmaxes], dtype=float)


def circle_truncated_kernel(theta: float, x: float, kmax: int) -> float:
    """Fourier-truncated circle kernel sum_{k=1}^{kmax} cos(k(theta-x))/k."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    delta = theta - x
    k = np.arange(1, kmax + 1, dtype=np.float64)
    return float(math.fsum((np.cos(k * delta) / k).tolist()))


def scaled_bump(u, delta: float, center: float) -> np.ndarray:
    """rho_{delta,center}(u) = delta^-1 rho((u - center)/delta) for the bump rho."""
    return bump_density((np.asarray(u, dtype=float) - center) / delta) / delta


def simpson_conv_density(delta: float, epsilon: float):
    """Cubic spline of q(w) = int rho_delta(w + v) rho_epsilon(v) dv for the
    bump rho and its half-width delta + epsilon, by Simpson over v at every
    one of 4097 points w.
    """
    v = np.linspace(-epsilon, epsilon, 2049)
    rv = scaled_bump(v, epsilon, 0.0)
    half = delta + epsilon
    w = np.linspace(-half, half, 4097)
    vals = scaled_bump(w[:, None] + v[None, :], delta, 0.0) * rv[None, :]
    return CubicSpline(w, simpson(vals, x=v, axis=1)), half


def sample_profile(stream: np.random.Generator, size: int) -> np.ndarray:
    """Draw from the bump by rejection."""
    out = np.empty(0)
    peak = bump_density(np.array([0.0]))[0]
    while out.size < size:
        cand = stream.uniform(-1, 1, 2 * (size - out.size) + 16)
        acc = stream.uniform(0, peak, cand.size) < bump_density(cand)
        out = np.concatenate([out, cand[acc]])
    return out[:size]


def looped_refined_edges(lo: float, hi: float, special: float, knots=()) -> np.ndarray:
    """Panel edges on [lo, hi], refined dyadically toward both ends, toward
    the knots and toward the special point if it lies inside, one halving
    at a time into a set: the reference for kernels._refined_edges.  The
    special point's ladders halve down to 1e-13 (hi - lo), those of the ends
    and the knots to (hi - lo) 2^-END_RUNGS."""
    edges = {lo, hi}
    scale = hi - lo
    coarse = scale * 2.0**-END_RUNGS
    ladders = [(p, coarse) for p in (lo, hi, *knots)]
    if lo < special < hi:
        ladders.append((special, 1e-13 * scale))
    for p, floor in ladders:
        for side in (lo, hi):
            gap = abs(side - p)
            while gap > floor:
                gap *= 0.5
                e = p + gap if side > p else p - gap
                if lo < e < hi:
                    edges.add(e)
        if lo < p < hi:
            edges.add(p)
    return np.array(sorted(edges))


def mollified_kernel(
    x: float,
    z: float,
    delta: float,
    domain: tuple[float, float] | None = None,
) -> float:
    """Kernel of the field smoothed at x with scale delta against the point z:
    int -log|u - z| rho_{delta,x}(u) du for the bump rho, the panel integral
    of -log|c + w| against rho_delta (c = x - z)."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0,1], got {delta}")
    if domain is not None and (x - delta < domain[0] or x + delta > domain[1]):
        raise ValueError("mollifier support escapes the working domain")
    return float(_log_integral(np.array([x - z]), lambda w: scaled_bump(w, delta, 0.0), delta)[0])


def kappa() -> float:
    """Diagonal constant of the doubly smoothed kernel,
    -int int log|v - u| rho(du) rho(dv) for the bump rho: the doubly
    mollified kernel at unit scales."""
    return doubly_mollified_kernel(0.0, 0.0, 1.0, 1.0)


def circle_chord(x1: float, x2: float) -> float:
    """|e^{ix1} - e^{ix2}| computed as 2|sin((x1-x2)/2)| to avoid cancellation."""
    return 2.0 * abs(math.sin(0.5 * (x1 - x2)))


def circle_log_kernel(theta: float, x: float) -> float:
    """-log|e^{i theta} - e^{ix}| = -log(2|sin((theta-x)/2)|).

    Returns +inf at coincident angles.
    """
    chord = circle_chord(theta, x)
    if chord == 0.0:
        return math.inf
    return -math.log(chord)


# ---------------------------------------------------------------------------
# dense oracles: hand-rolled linear algebra, n <= 8
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


def det_field_oracle(n: int, stream: np.random.Generator, grid_size: int) -> np.ndarray:
    """Independent sampler for tests: Haar unitary via Gram-Schmidt plus dense
    LU determinants, giving the field values on the uniform grid.  Matches
    eval_field in distribution."""
    u = sample_haar_unitary_dense(n, stream)
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return det_log_field(u, theta)


def product_law_field_at_one(n: int, reps: int, rng: np.random.Generator, chunk: int = 2000) -> np.ndarray:
    """reps draws of X_N(0) = sqrt(2) log|det(I - U)| by the product law of
    Bourgade, Hughes, Nikeghbali and Yor (Duke Math. J. 145, 2008):
    det(I - U) has the law of prod_{k<n} (1 - gamma_k), with independent
    gamma_k of uniform phase, |gamma_0| = 1 and |gamma_k|^2 ~ Beta(1, k).
    O(n) per draw and no code shared with the Szego path; chunked to bound
    memory."""
    k = np.arange(n)
    parts = []
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        # Beta(1, k) by inversion: 1 - U^{1/k}, and 1 at k = 0
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random((m, n)))
        radius_sq = -np.expm1(log_u / np.maximum(k, 1))
        radius_sq[:, 0] = 1.0
        gammas = np.sqrt(radius_sq) * np.exp(2j * np.pi * rng.random((m, n)))
        parts.append(SQRT2 * np.log(np.abs(1.0 - gammas)).sum(axis=1))
        done += m
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# CMV operator: a dense unitary whose characteristic polynomial is Phi_n
# ---------------------------------------------------------------------------

def _cmv_factors(alphas: np.ndarray):
    """Block structure of C = L M.

    L carries the 2x2 blocks Theta_j at even j, M the odd ones plus the 1x1
    identity cap in the corner; whichever factor runs out of room holds the
    truncated unimodular cap alpha_{n-1} conjugate.
    """
    a = alphas
    n = alphas.size
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


def cmv_matrix(alphas: np.ndarray) -> np.ndarray:
    """Dense CMV operator; its characteristic polynomial is the Szego Phi_n."""
    n = alphas.size
    l_blocks, l_cap, m_blocks, m_cap = _cmv_factors(alphas)
    lmat = _apply_blockdiag(np.eye(n, dtype=np.complex128), l_blocks, 0, l_cap)
    mmat = _apply_blockdiag(np.eye(n, dtype=np.complex128), m_blocks, 1, m_cap)
    return lmat @ mmat


def trace_powers_cmv(alphas: np.ndarray, kmax: int) -> np.ndarray:
    """traces[k-1] = Tr U^k by repeated application of the CMV factors to the full basis;
    O(n^2) per power.  Slow reference implementation."""
    n = alphas.size
    if not 1 <= kmax <= TRACE_COST_GUARD * n:
        raise ValueError(f"kmax must lie in [1, {TRACE_COST_GUARD * n}], got {kmax}")
    l_blocks, l_cap, m_blocks, m_cap = _cmv_factors(alphas)
    v = np.eye(n, dtype=np.complex128)
    traces = np.empty(kmax, dtype=np.complex128)
    for k in range(kmax):
        v = _apply_blockdiag(v, m_blocks, 1, m_cap)
        v = _apply_blockdiag(v, l_blocks, 0, l_cap)
        traces[k] = np.trace(v)
    return traces


def truncated_field_variance(n: int, delta: float) -> float:
    """Analytic Var X_{N,delta}(x) = sum_{k <= 1/delta} min(k, n)/k^2."""
    kmax = int(math.floor(1.0 / delta))
    k = np.arange(1, kmax + 1, dtype=np.float64)
    return float(np.sum(np.minimum(k, float(n)) / k**2))


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics and their asymptotic critical values
# ---------------------------------------------------------------------------

def ks_statistic(samples, cdf) -> float:
    """sup_i max(|i/n - F(x_i)|, |(i-1)/n - F(x_i)|) over the sorted sample."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n == 0:
        raise ValueError("ks_statistic needs at least one sample")
    f = np.array([cdf(x) for x in samples])
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(i / n - f), np.abs((i - 1) / n - f))))


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample needs non-empty samples")
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / a.size
    fb = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample critical value c(alpha)/sqrt(n)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ks_two_sample_critical_value(n: int, m: int, alpha: float = 0.01) -> float:
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n + m) / (n * m))


def exact_thickpoint_prob(n: int, gamma: float) -> float:
    """P(X_N >= gamma log N) at finite N and theorem-scale gamma.

    Gil-Pelaez inversion P(X >= x) = 1/2 + (1/pi) int_0^inf
    Im(e^{-itx} phi(t)) / t dt of the exact characteristic function
    phi(t) = E|p_N|^{i sqrt(2) t} (log_cue_abs_moment_exact), on t in (0, 8]
    with 16 panels of 64-point Gauss-Legendre.  |phi(8)| is below 1e-17
    from N = 16 on, so the cut tail is negligible there; smaller N need a
    longer range.  The moments go through the uncached function, so the
    1024 exponents of a call stay out of the process-wide moment cache.
    """
    x = gamma * math.log(n)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    half = 0.25  # half a panel
    t = np.arange(half, 8.0, 2.0 * half)[:, None] + half * nodes
    moment = log_cue_abs_moment_exact.__wrapped__
    log_phi = [moment(n, 1j * SQRT2 * s) for s in t.ravel().tolist()]
    phi = np.exp(log_phi).reshape(t.shape)
    integrand = (np.exp(-1j * t * x) * phi).imag / t
    return 0.5 + half * math.fsum((integrand @ weights).tolist()) / math.pi


# ---------------------------------------------------------------------------
# large-N laws: log Gamma and Psi values, the Frechet limit law and the
# two-point and joint moment asymptotics
# ---------------------------------------------------------------------------

def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z) for Re z > 0; rejects the rest."""
    z = complex(z)
    if z.real <= 0.0:
        raise ValueError(f"log_gamma requires Re z > 0, got z={z}")
    return complex(_loggamma(z)[()])


def psi(zeta: complex) -> complex:
    """Microscopic-structure factor of the CUE exponential moments.

    Real and strictly positive for real zeta >= 0.
    """
    value = np.exp(log_psi(zeta))
    if complex(zeta).imag == 0.0 and complex(zeta).real >= 0.0:
        return complex(value.real, 0.0)
    return complex(value)


def frechet_pdf(x: float, gamma: float) -> float:
    """Density of the limiting thick-point mass: gamma^-2 x^(-1-1/gamma^2) e^(-x^(-1/gamma^2))."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    if x <= 0.0:
        return 0.0
    a = 1.0 / (gamma * gamma)
    return a * x ** (-1.0 - a) * math.exp(-(x ** (-a)))


def frechet_cdf(x: float, gamma: float) -> float:
    """CDF exp(-x^(-1/gamma^2)) for x > 0; equivalently Xi^(-1/gamma^2) ~ Exp(1)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    if x <= 0.0:
        return 0.0
    return math.exp(-(x ** (-1.0 / (gamma * gamma))))


def frechet_ppf(u: float, gamma: float) -> float:
    """Inverse CDF; u in (0,1)."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0,1), got {u}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    return (-math.log(u)) ** (-gamma * gamma)


def two_point_moment_asymptotic(
    n: int, zeta1: complex, zeta2: complex, x1: float, x2: float
) -> complex:
    """Predicted E[e^{zeta1 X_N(x1) + zeta2 X_N(x2)}] for distinct angles:

    Psi(zeta1) Psi(zeta2) N^{(zeta1^2+zeta2^2)/2} |e^{ix1}-e^{ix2}|^{-zeta1 zeta2},
    the joint moment with no smoothed values.
    """
    return joint_moment_asymptotic(n, zeta1, zeta2, x1, x2, [], [], [])


def joint_moment_asymptotic(
    n: int,
    zeta1: complex,
    zeta2: complex,
    x1: float,
    x2: float,
    xi,
    delta,
    z,
) -> complex:
    """Predicted joint exponential moment of the field at two points together
    with Fourier-truncated values at scales delta_j and angles z_j.

    The circle covariance integrals reduce to finite cosine sums: smoothing at
    scale delta keeps Fourier modes k <= 1/delta, and the coarser scale wins
    when two smoothed values are paired.  All of them come from one call of
    circle_truncated_kernel_grid.
    """
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    chord = circle_chord(x1, x2)
    if chord == 0.0:
        raise ValueError("the moment asymptotics require x1 != x2 mod 2 pi")
    xi = np.asarray(xi, dtype=float)
    delta = np.asarray(delta, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (xi.shape == delta.shape == z.shape):
        raise ValueError("xi, delta, z must have matching shapes")
    if np.any((delta <= 0.0) | (delta > 1.0)):
        raise ValueError("all scales must lie in (0,1]")
    zeta1 = complex(zeta1)
    zeta2 = complex(zeta2)

    logval = (
        log_psi(zeta1)
        + log_psi(zeta2)
        + 0.5 * (zeta1 * zeta1 + zeta2 * zeta2) * math.log(n)
        - zeta1 * zeta2 * math.log(chord)
    )
    if xi.size:
        # ker[r, i, l]: the kernel at order orders[r] between the angle
        # (x1, x2, z_0, z_1, ...)[i] and z_l; orders ascend, so the coarser of
        # two scales has the smaller row
        kmaxes = np.floor(1.0 / delta).astype(int)
        orders = sorted(set(kmaxes.tolist()))
        rows = np.searchsorted(orders, kmaxes)
        seps = np.concatenate([[x1, x2], z])[:, None] - z
        ker = circle_truncated_kernel_grid(seps.ravel(), orders).reshape(len(orders), *seps.shape)
        # cross terms zeta_i * int C_X(x_i, .) f
        for j, (xj, rj) in enumerate(zip(xi, rows)):
            logval += zeta1 * xj * ker[rj, 0, j] + zeta2 * xj * ker[rj, 1, j]
        # (1/2) E<X, f>^2, pairwise truncated kernels at the coarser scale
        quad = 0.0
        for j in range(len(xi)):
            for l in range(len(xi)):
                quad += xi[j] * xi[l] * ker[min(rows[j], rows[l]), 2 + j, l]
        logval += 0.5 * quad
    return complex(np.exp(logval))
