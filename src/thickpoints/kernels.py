"""Deterministic covariance-kernel evaluations.

Truncated Fourier kernels on the circle, real Fourier series on the uniform
circle grid, and the doubly bump-mollified log kernel on an interval by
Gauss-Legendre panel quadrature, together with a numeric check of the
bounded-deviation estimate it is supposed to satisfy.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

# modes per block in circle_truncated_kernel_grid
TRUNCATED_BLOCK = 64
# separations per slice in circle_truncated_kernel_grid.  On a 2-core Xeon VM
# at one OpenBLAS thread, the kernel-check grid (10 000 separations, orders
# 4..4096) took a process from 37.3 MB RSS after its imports to 42.0 MB in
# slices of 512, 39.5 MB in slices of 128, 44.5 MB in slices of 1024 and
# 73.2 MB in one piece.  The best of 8 calls took 66 ms in slices of 512,
# 76 ms in slices of 128 and 72 ms in one piece.
TRUNCATED_SLICE = 512

# Normalization of the standard bump exp(-1/(1-u^2)) on (-1,1): the correctly
# rounded double of the integral, 0.443993816168079437823... by mpmath.quad.
BUMP_INTEGRAL = 0.4439938161680794


def bump_density(u) -> np.ndarray:
    """The mollifier: exp(-1/(1-u^2)) / BUMP_INTEGRAL on (-1, 1), a
    probability density, and zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui)) / BUMP_INTEGRAL
    return out


def real_fourier_grid(modes: np.ndarray, grid_size: int) -> np.ndarray:
    """Re sum_{k>=1} modes[..., k-1] e^{ik theta} at theta = 2 pi j / grid_size,
    up to the factor grid_size / 2, which the caller applies; one real inverse
    FFT per row.

    irfft(spec, M) * M / 2 is Re sum_k spec_k e^{ik theta} on the grid once a
    mode above M/2 is moved to the conjugate mode M - k and the Nyquist mode,
    which irfft halves, is doubled.  numpy transforms the rows independently,
    so each row is bit for bit the one it gives alone.  Needs fewer modes
    than grid points.
    """
    kmax = modes.shape[-1]
    half = grid_size // 2
    spec = np.zeros(modes.shape[:-1] + (half + 1,), dtype=np.complex128)
    spec[..., 1 : min(kmax, half) + 1] = modes[..., :half]
    if kmax > half:
        # modes k = kmax, ..., half + 1 land on M - k = M - kmax, ..., M - half - 1
        spec[..., grid_size - kmax : grid_size - half] += np.conj(modes[..., : half - 1 : -1])
    if grid_size % 2 == 0:
        spec[..., half] *= 2.0
    return np.fft.irfft(spec, grid_size)


def circle_truncated_kernel_grid(deltas: np.ndarray, kmaxes: list[int]) -> np.ndarray:
    """Vectorized truncated kernel at many separations and several kmax values.

    Returns an array of shape (len(kmaxes), len(deltas)); the sum over k is
    accumulated once up to max(kmaxes), snapshotting at each requested order.

    Modes are summed in blocks of at most TRUNCATED_BLOCK, and a block also
    ends at each requested order.  The block starting at k0 sums
    Re(e^{i k0 x} e^{i j x}) / k over k = k0 + j; the e^{i j x} table is built
    once per slice and every block's weighted sum over j is one row of a
    single matrix product.  The block sums are Kahan-accumulated.

    The separations are taken TRUNCATED_SLICE at a time, so the work arrays
    hold (blocks, TRUNCATED_SLICE) values whatever the number of separations.
    Every step is columnwise, so the slices give the bits of one call over
    all separations, with one exception that is kept out: a one-column
    product goes through a matrix-vector routine that rounds differently, so
    a lone last separation joins the slice before it.
    """
    if min(kmaxes) < 1:
        raise ValueError(f"every kmax must be >= 1, got {kmaxes}")
    deltas = np.asarray(deltas, dtype=float)
    ends = sorted(set(range(TRUNCATED_BLOCK, max(kmaxes), TRUNCATED_BLOCK)) | {*kmaxes})
    starts = [1, *(end + 1 for end in ends[:-1])]
    inverse_k = np.zeros((len(ends), TRUNCATED_BLOCK))
    for row, (start, end) in enumerate(zip(starts, ends)):
        inverse_k[row, : end - start + 1] = 1.0 / np.arange(start, end + 1)
    out = np.empty((len(kmaxes), deltas.size))
    lo = 0
    while lo < deltas.size:
        hi = lo + TRUNCATED_SLICE
        if deltas.size - hi == 1:
            hi += 1
        part = deltas[lo:hi]
        table = np.exp(1j * np.outer(np.arange(TRUNCATED_BLOCK), part))
        block_sums = (np.exp(1j * np.outer(starts, part)) * (inverse_k @ table)).real
        acc = np.zeros_like(part)
        comp = np.zeros_like(part)  # Kahan compensation
        for end, block in zip(ends, block_sums):
            term = block - comp
            total = acc + term
            comp = (total - acc) - term
            acc = total
            for row, kmax in enumerate(kmaxes):
                if kmax == end:
                    out[row, lo:hi] = acc
        lo = hi
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# the bump's unit convolution density is tabulated on CONV_NODES points; its
# lattice step divides that grid and puts CONV_MIN_POINTS on the narrower
# profile's support, refining the grid step at most CONV_MAX_REFINE times
CONV_NODES = 4097
CONV_MIN_POINTS = 2049
CONV_MAX_REFINE = 512
# zero nodes added on each side before the periodic spline solve
CONV_PAD = 32


def _uniform_spline(lo: float, step: float, values: np.ndarray):
    """Interpolating cubic spline through values[i] at lo + i*step; zero
    outside [lo, lo + (len(values) - 1)*step).

    The values are zero-padded by CONV_PAD on each side and the periodic
    B-spline system (c[i-1] + 4 c[i] + c[i+1]) / 6 = values[i] is solved by
    one rfft/irfft.  The densities it serves vanish smoothly at both ends, so
    the wrap-around sees only zeros.  Each interval's cubic is then stored in
    the power basis, with a zero row on either side for queries outside.
    """
    padded = np.pad(values, CONV_PAD)
    size = padded.size
    symbol = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(size // 2 + 1) / size)) / 6.0
    c = np.fft.irfft(np.fft.rfft(padded) / symbol, size)
    last = values.size - 1
    # interval j, between nodes j and j+1, uses the coefficients of nodes j-1..j+2
    c0, c1, c2, c3 = (c[CONV_PAD - 1 + k : CONV_PAD - 1 + k + last] for k in range(4))
    table = np.zeros((4, last + 2))
    table[:, 1:-1] = [
        (c0 + 4.0 * c1 + c2) / 6.0,
        (c2 - c0) / 2.0,
        (c0 - 2.0 * c1 + c2) / 2.0,
        (c3 - c0 + 3.0 * (c1 - c2)) / 6.0,
    ]

    def spline(w):
        t = (np.asarray(w, dtype=float) - lo) / step
        j = np.clip(np.floor(t), -1.0, last)
        u = t - j
        a0, a1, a2, a3 = table.take(j.astype(np.intp) + 1, axis=1)
        return ((a3 * u + a2) * u + a1) * u + a0

    return spline


@functools.cache
def _unit_conv_density(ratio: float):
    """S_r = rho * rho_r with rho the bump and rho_r(v) = rho(v/r)/r, r =
    ratio, as a uniform cubic spline.

    S_r is supported on [-(1+r), 1+r] and tabulated on CONV_NODES points.
    rho and rho_r are sampled on one lattice whose step h divides that grid's
    step, each sample set is scaled to unit mass (h times its sum), and the
    two are convolved by one numpy rfft/irfft product.  For the smooth bump
    the lattice sum equals the integral to rounding.  The mass scaling keeps
    S_r a probability density when r is so far from 1 that the refinement cap
    leaves the narrower profile fewer than CONV_MIN_POINTS samples.  Each
    ratio is built once per process.
    """
    half_nodes = (CONV_NODES - 1) // 2
    grid_step = (1.0 + ratio) / half_nodes
    narrow = min(ratio, 1.0)
    refine = min(math.ceil(grid_step * (CONV_MIN_POINTS - 1) / (2.0 * narrow)), CONV_MAX_REFINE)
    step = grid_step / refine
    reach = math.floor(1.0 / step)
    reach_r = math.floor(ratio / step)
    base = bump_density(np.arange(-reach, reach + 1) * step)
    scaled = bump_density(np.arange(-reach_r, reach_r + 1) * (step / ratio))
    base /= base.sum() * step
    scaled /= scaled.sum() * step
    size = base.size + scaled.size - 1
    nfft = 1 << (size - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(base, nfft) * np.fft.rfft(scaled, nfft), nfft)[:size] * step
    # lattice offset t sits at index t + reach + reach_r of the linear convolution
    index = np.arange(-half_nodes, half_nodes + 1) * refine + (reach + reach_r)
    inside = (index >= 0) & (index < size)
    q = np.zeros(CONV_NODES)
    q[inside] = conv[index[inside]]
    return _uniform_spline(-(1.0 + ratio), grid_step, q)


def _conv_density(delta: float, epsilon: float):
    """Convolution density of the two centered mollifiers and its half-width.

    q(w) = int rho_delta(w + v) rho_epsilon(v) dv is supported on
    [-(delta+epsilon), delta+epsilon].  It obeys the scale law
    q_{delta,epsilon}(w) = S_r(w/delta) / delta with r = epsilon/delta, so one
    unit density S_r per ratio (see _unit_conv_density) serves every pair of
    scales with that ratio.
    """
    unit = _unit_conv_density(epsilon / delta)
    return (lambda w: unit(w / delta) / delta), delta + epsilon


def _refined_edges(lo: float, hi: float, special: float) -> np.ndarray:
    """Panel edges on [lo, hi], refined dyadically toward both ends and toward
    the special point if it lies inside."""
    edges = {lo, hi}
    scale = hi - lo
    points = ([special] if lo < special < hi else []) + [lo, hi]
    for p in points:
        for side in (lo, hi):
            gap = abs(side - p)
            while gap > 1e-13 * scale:
                gap *= 0.5
                e = p + gap if side > p else p - gap
                if lo < e < hi:
                    edges.add(e)
        if lo < p < hi:
            edges.add(p)
    return np.array(sorted(edges))


def _panel_quad(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> float:
    """Fixed-order Gauss-Legendre over the given panels, vectorized."""
    halfw = 0.5 * (edges[1:] - edges[:-1])[:, None]
    x = 0.5 * (edges[:-1] + edges[1:])[:, None] + halfw * _GL_NODES
    vals = f(x.ravel()).reshape(x.shape)
    return float(np.sum(vals @ _GL_WEIGHTS * halfw[:, 0]))


def _log_integral(c: float, density, half: float) -> float:
    """int -log|c + w| density(w) dw over [-half, half], on panels refined
    dyadically toward the log singularity at w = -c."""

    def integrand(w):
        with np.errstate(divide="ignore"):
            lg = np.log(np.abs(c + w))
        return -np.where(np.isfinite(lg), lg, 0.0) * density(w)

    return _panel_quad(integrand, _refined_edges(-half, half, -c))


def _check_support(point: float, scale: float, domain: tuple[float, float] | None) -> None:
    """Refuse a mollifier at point with half-width scale that leaves the domain."""
    if domain is not None and (point - scale < domain[0] or point + scale > domain[1]):
        raise ValueError("mollifier support escapes the working domain")


def doubly_mollified_kernel(
    x: float,
    z: float,
    delta: float,
    epsilon: float,
    domain: tuple[float, float] | None = None,
) -> float:
    """Kernel smoothed at both arguments with the bump:
    int int -log|u - v| rho_{delta,x}(u) rho_{epsilon,z}(v) du dv.

    The double integral collapses to a single integral of -log|c + w| against
    the convolution density of the two mollifiers (c = x - z); the log
    singularity is handled by dyadically refined Gauss-Legendre panels.
    By the scale law q_{delta,epsilon}(w) = S_r(w/delta) / delta, r =
    epsilon/delta, the density is a rescaled unit density, a spline built by
    one FFT convolution per ratio r and cached.  Absolute accuracy against
    mpmath: about 3e-14, where the lattice convolution is exact to rounding
    and the spline is what is left.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0,1], got {delta}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0,1], got {epsilon}")
    _check_support(x, delta, domain)
    _check_support(z, epsilon, domain)
    density, half = _conv_density(delta, epsilon)
    return _log_integral(x - z, density, half)


def assumption1_check(
    grid,
    delta_list,
    epsilon_list,
    domain: tuple[float, float] = (0.0, 1.0),
) -> float:
    """Max over grid pairs and scale pairs (epsilon <= delta) of
    |C_{delta,epsilon}(x,z) + log(|x-z| v delta)|.

    Once the supports lie in the domain, the kernel and the log term depend
    on the pair only through the float c = x - z, so each scale pair takes
    one quadrature per distinct c, at the first pair (x, z) that gives it,
    and the worst deviation is the one over all pairs, to the bit.  A
    separation and its mirror -c are evaluated apart, since they can differ
    in the last bits.  Every grid point's supports are still checked.

    The bounded constant here is an empirical regression target, not a value
    supplied by theory.
    """
    points = [float(g) for g in np.asarray(grid, dtype=float)]
    pairs: dict[float, tuple[float, float]] = {}
    for x in points:
        for z in points:
            pairs.setdefault(x - z, (x, z))
    worst = 0.0
    for delta in delta_list:
        for eps in epsilon_list:
            if eps > delta:
                continue
            # the epsilon support of a point lies inside its delta support
            for g in points:
                _check_support(g, delta, domain)
            for c, (x, z) in pairs.items():
                val = doubly_mollified_kernel(x, z, delta, eps, domain)
                worst = max(worst, abs(val + math.log(max(abs(c), delta))))
    return worst
