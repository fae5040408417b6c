"""Deterministic covariance-kernel evaluations.

Truncated Fourier kernels on the circle, complex and real Fourier sums on
the uniform circle grid, and the doubly bump-mollified log kernel on an
interval by Gauss-Legendre panel quadrature, together with a numeric check
of the bounded-deviation estimate it is supposed to satisfy.

The grid sums return their coset layout (..., Q, P), grid point j = Q r + q
at [..., q, r] (Q = 1 for one transform); to_grid_order is the one inverse.
A real sum with too many modes for a real transform shorter than the grid
is the real part of the complex one.  cue.eval_field reorders its real
modulus; gaussian-gmc's mass and the barrier (measures.barrier_mask) are
taken in the layout.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# modes per block in circle_truncated_kernel_grid; its phase tables are
# factored as 8 x 8, so this stays 64
TRUNCATED_BLOCK = 64
# separations per slice in circle_truncated_kernel_grid, at most.  On a
# 2-core Xeon VM at one OpenBLAS thread, with the heap kept as run_experiment
# keeps it, the kernel-check grid (10 000 separations, orders 4..4096) took
# a process from 29.2 MB RSS after its imports to a peak of 31.0 MB in
# slices of 128, 31.8 MB in slices of 256, 32.8 MB in slices of 512,
# 34.9 MB in slices of 1024 and 70.9 MB in one piece.  The best of 15 calls,
# over three fresh processes each, took 20-33 ms in slices of 128, 18-20 ms
# in slices of 256, 17-18 ms in slices of 512, 17-26 ms in slices of 1024
# and 23-25 ms in one piece.
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


def _coset_length(grid_size: int, least: int) -> int:
    """The shortest transform length P >= least that divides grid_size, for
    least <= grid_size; grid_size itself when nothing shorter does."""
    for cosets in range(grid_size // max(least, 1), 0, -1):
        if grid_size % cosets == 0:
            return grid_size // cosets


# e^{i(o pi/4 + a)} for octant o from cos a and sin a, a in [0, pi/4] measured
# up from the octant's start (o even) or down from its end (o odd)
_OCTANT_SWAP = np.array([False, True, True, False, False, True, True, False])
_OCTANT_REAL_SIGN = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
_OCTANT_IMAG_SIGN = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])


@functools.cache
def _coset_twiddles(grid_size: int, length: int, modes: int) -> np.ndarray:
    """The read-only (Q, modes) table w[q, m] = e^{2 pi i (m q mod M) / M},
    with M = grid_size and Q = M / length cosets.

    Grid point j = Q r + q is then sum_m (c_m w[q, m]) e^{2 pi i m r / length}:
    coset q is one transform of length P = length of the twiddled modes
    (input pruning of a zero-padded FFT: Markel, IEEE Trans. Audio
    Electroacoust. 19, 1971; Sorensen and Burrus, IEEE Trans. Signal Process.
    41, 1993).  The table is the same for every replica of a config, so it is
    built once per (M, P, modes).

    Each phase is reduced exactly in integers, then to an angle in
    [0, pi/4] by the octant symmetries, so the table is exact at quarter
    turns, as pocketfft's own twiddles are: a grid point on a root of the
    polynomial sums to an exact zero.
    """
    phases = np.outer(np.arange(grid_size // length), np.arange(modes)) % grid_size
    octant, rest = np.divmod(8 * phases, grid_size)
    # odd octants are reflected from their upper end, so every angle lies in
    # [0, pi/4]; octant o then takes (cos, sin) of it, swapped and signed
    odd = octant % 2 == 1
    angle = np.where(odd, grid_size - rest, rest) * (math.pi / (4 * grid_size))
    cos, sin = np.cos(angle), np.sin(angle)
    swap = _OCTANT_SWAP[octant]
    table = np.empty(phases.shape, dtype=np.complex128)
    table.real = np.where(swap, sin, cos) * _OCTANT_REAL_SIGN[octant]
    table.imag = np.where(swap, cos, sin) * _OCTANT_IMAG_SIGN[octant]
    table.flags.writeable = False
    return table


def to_grid_order(cosets: np.ndarray) -> np.ndarray:
    """The coset layout (..., Q, P) of the grid sums, grid point j = Q r + q
    at [..., q, r], in grid order (..., Q P); a view, not a copy, at Q = 1."""
    return cosets.swapaxes(-1, -2).reshape(cosets.shape[:-2] + (-1,))


def fourier_grid(coefficients: np.ndarray, grid_size: int) -> np.ndarray:
    """sum_m coefficients[..., m] e^{im theta} at theta = 2 pi j / grid_size,
    for K <= grid_size + 1 coefficients m = 0..K-1.

    Each row is Q = M / P inverse FFTs of length P of the twiddled
    coefficients (_coset_twiddles), unscaled, in the coset layout (..., Q, P),
    P the shortest divisor of M = grid_size with P >= K - 1; when P = K - 1
    the top coefficient is folded onto the constant one after its twiddle,
    since e^{2 pi i P r / P} = 1.  A grid with no shorter divisor takes
    P = M, one transform.  On a 2-core Xeon VM, one BLAS thread, median of
    15 means of 50 calls, K = 1025 at 4 to 7 cosets took 0.047, 0.050, 0.054
    and 0.064 ms against 0.055, 0.063, 0.074 and 0.084 ms in one zero-padded
    transform of length M, and 0.027 and 0.022 ms both ways at 2 cosets and
    at 1 (M = 1025); K = 257 at 2 cosets took 0.013 against 0.011 ms.
    """
    modes = coefficients.shape[-1]
    if modes > grid_size + 1:
        raise ValueError(f"{modes} coefficients need grid_size >= {modes - 1}, got {grid_size}")
    length = _coset_length(grid_size, modes - 1)
    spec = coefficients[..., None, :] * _coset_twiddles(grid_size, length, modes)
    if length < modes:
        spec[..., 0] += spec[..., length]
    return np.fft.ifft(spec, length, norm="forward")


def real_fourier_grid(modes: np.ndarray, grid_size: int) -> np.ndarray:
    """Re sum_{k>=1} modes[..., k-1] e^{ik theta} at theta = 2 pi j / grid_size,
    for K < grid_size modes.

    When 2K + 1 <= M = grid_size, each row is Q = M / P real inverse FFTs of
    length P of half the twiddled modes (_coset_twiddles), unscaled, so that
    each gives the real part twice, in the coset layout (..., Q, P), P the
    shortest divisor of M with P >= 2K + 1 (P = M, one coset, on a prime
    grid).  Otherwise no real transform shorter than M holds the modes, and
    the sum is the real part of fourier_grid's, the modes after a zero
    constant, in its coset layout.  Either way numpy transforms the rows
    independently, so each row is bit for bit the one it gives alone.
    """
    kmax = modes.shape[-1]
    if kmax >= grid_size:
        raise ValueError(f"{kmax} modes need grid_size > {kmax}, got {grid_size}")
    if 2 * kmax + 1 > grid_size:
        coefficients = np.concatenate([np.zeros_like(modes[..., :1]), modes], axis=-1)
        return fourier_grid(coefficients, grid_size).real
    length = _coset_length(grid_size, 2 * kmax + 1)
    table = _coset_twiddles(grid_size, length, kmax + 1)
    spec = np.zeros(modes.shape[:-1] + table.shape, dtype=np.complex128)
    np.multiply((0.5 * modes)[..., None, :], table[:, 1:], out=spec[..., 1:])
    return np.fft.irfft(spec, length, norm="forward")


def circle_truncated_kernel_grid(deltas: np.ndarray, kmaxes: list[int]) -> np.ndarray:
    """Vectorized truncated kernel at many separations and several kmax values.

    Returns an array of shape (len(kmaxes), len(deltas)); the sum over k is
    accumulated once up to max(kmaxes), snapshotting at each requested order.

    Modes are summed in blocks of at most TRUNCATED_BLOCK, and a block also
    ends at each requested order.  The block starting at k0 sums
    Re(e^{i k0 x} e^{i j x}) / k over k = k0 + j; the e^{i j x} table is built
    once per slice and every block's weighted sum over j is one row of a
    single matrix product.  The block sums between two requested orders are
    added in turn, and the runs they make are Kahan-accumulated: one
    compensated step per distinct order, not one per block.

    The phases are factored so that a separation costs 12 complex
    exponentials at orders up to 4096, not one per table row and block:
    table row j = 8d + c is q[d] p[c], and the phase of the block starting at
    k0 = 512a + 64b + r is v[a] u[b] table[r], where p[c] = e^{icx},
    q[d] = e^{i8dx}, u[b] = e^{i64bx} and v[a] = e^{i512ax}.  Each group is
    built by doubling from e^{isx}, e^{2isx} and e^{4isx} for its step s
    (and on, for v past order 4096), whose arguments 2^m s x are exact: rows
    2-3 are rows 0-1 times e^{2isx}, rows 4-7 rows 0-3 times e^{4isx}, and
    row 0 is exactly 1.  A factor is then a product of at most three
    exponentials and a phase of at most twelve, so at most twelve rounded
    exponentials and eleven rounded products; measured within 3.1e-16 of
    e^{ijx} over the table and 4.6e-16 of e^{i k0 x} over the phases.  At
    orders 4..4096 the grid is within 2e-15 of a 30-digit sum (measured
    8.9e-16 over 20 separations, and at the kernel-check's orders over its
    first 60 separations).

    The separations are cut into the fewest near-equal slices of at most
    TRUNCATED_SLICE, so the work arrays hold at most (blocks,
    TRUNCATED_SLICE) values whatever the number of separations.  Every step
    is columnwise, so the slices give the bits of one call over all
    separations.  A one-column product goes through a matrix-vector routine
    that rounds differently, but a slice has one column only when the call
    has one separation.
    """
    if not kmaxes or not all(isinstance(kmax, (int, np.integer)) for kmax in kmaxes):
        raise ValueError(f"kmaxes must be a non-empty list of integers, got {kmaxes}")
    if min(kmaxes) < 1:
        raise ValueError(f"every kmax must be >= 1, got {kmaxes}")
    deltas = np.asarray(deltas, dtype=float)
    orders = sorted(set(kmaxes))
    ends = sorted(set(range(TRUNCATED_BLOCK, orders[-1], TRUNCATED_BLOCK)) | {*orders})
    starts = np.array([1, *(end + 1 for end in ends[:-1])])
    inverse_k = np.zeros((len(ends), TRUNCATED_BLOCK))
    for row, (start, end) in enumerate(zip(starts, ends)):
        inverse_k[row, : end - start + 1] = 1.0 / np.arange(start, end + 1)
    # the first block of each order's run, and the rows that take its sum
    firsts = [0, *(ends.index(order) + 1 for order in orders[:-1])]
    targets = [[row for row, kmax in enumerate(kmaxes) if kmax == order] for order in orders]
    out = np.empty((len(kmaxes), deltas.size))
    count = max(1, math.ceil(deltas.size / TRUNCATED_SLICE))
    for part, rows in zip(np.array_split(deltas, count), np.array_split(out, count, axis=1)):
        _truncated_slice(part, starts, inverse_k, firsts, targets, rows)
    return out


def _truncated_slice(part, starts, inverse_k, firsts, targets, rows) -> None:
    """circle_truncated_kernel_grid on one slice of separations, written into
    rows; the blocks from firsts[i] up to the next first sum to the run that
    ends at the i-th requested order, and targets[i] lists the rows that take
    the running sum there.  Its work arrays are freed on return, before the
    next slice's are made."""
    table, phase = _phase_tables(part, starts)
    block_sums = inverse_k @ table
    block_sums *= phase
    acc = np.zeros_like(part)
    comp = np.zeros_like(part)  # Kahan compensation
    for run, target in zip(np.add.reduceat(block_sums.real, firsts, axis=0), targets):
        term = run - comp
        total = acc + term
        comp = (total - acc) - term
        acc = total
        rows[target] = acc


def _phase_tables(part, starts) -> tuple[np.ndarray, np.ndarray]:
    """The table e^{ijx}, j < TRUNCATED_BLOCK, and the phases e^{i k0 x} for
    the block starts k0, each row over the separations x in part.

    Table row j = 8d + c is q[d] p[c] and the phase at k0 = 512a + 64b + r is
    v[a] u[b] table[r].  factors[t, g] is the product of e^{i 2^m s x} over
    the set bits m of t, s the step 1, 8, 64 or 512 of group g = p, q, u, v:
    rows 2^m..2^{m+1}-1 are rows 0..2^m-1 times e^{i 2^m s x}.  Past order
    4096 v needs more than three bits; every group is doubled as far, and
    only v uses the rows past 8."""
    a, b, r = starts // 512, starts % 512 // 64, starts % 64
    bits = max(3, int(a.max()).bit_length())
    steps = np.outer(1 << np.arange(bits), [1, 8, 64, 512])
    exponentials = np.exp(1j * (steps[..., None] * part))
    factors = np.empty((1 << bits, 4, part.size), dtype=complex)
    factors[0] = 1.0
    for m, exponential in enumerate(exponentials):
        np.multiply(factors[: 1 << m], exponential, out=factors[1 << m : 2 << m])
    p, q, u, v = factors[:8, 0], factors[:8, 1], factors[:8, 2], factors[:, 3]
    table = (q[:, None] * p).reshape(TRUNCATED_BLOCK, part.size)
    phase = v[a]
    phase *= u[b]
    phase *= table[r]
    return table, phase


# The 16-point Gauss-Legendre rule on [-1, 1], bit for bit the output of
# np.polynomial.legendre.leggauss(16), written out so that no process loads
# numpy.polynomial for it.  That output is exactly symmetric, so the positive
# nodes and their weights, ascending, are mirrored.
_GL_HALF_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_HALF_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])

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
        # ((a3 u + a2) u + a1) u + a0 in place, with u the offset in the interval
        u = (np.asarray(w, dtype=float) - lo) / step
        j = np.floor(u)
        np.clip(j, -1.0, last, out=j)
        u -= j
        index = j.astype(np.intp)
        index += 1
        out = table[3].take(index)
        for row in table[2::-1]:
            out *= u
            out += row.take(index)
        return out

    return spline


def _smooth_length(size: int) -> int:
    """The smallest 2^a 3^b 5^c at or above size, a length numpy's FFT
    transforms with radix-2, -3 and -5 passes only."""
    best = 1 << (size - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << ((size - 1) // odd).bit_length())
            odd *= 3
        five *= 5
    return best


@functools.cache
def _unit_conv_density(ratio: float):
    """S_r = rho * rho_r with rho the bump and rho_r(v) = rho(v/r)/r, r =
    ratio, as a uniform cubic spline.

    S_r is supported on [-(1+r), 1+r] and tabulated on CONV_NODES points.
    rho and rho_r are sampled on one lattice whose step h divides that grid's
    step, each sample set is scaled to unit mass (h times its sum), and the
    two are convolved by one numpy rfft/irfft product, padded only to the
    smallest 2^a 3^b 5^c length that holds the linear convolution (69 984
    points at r = 1/32, not 131 072).  For the smooth bump the lattice sum
    equals the integral to rounding.  The mass scaling keeps S_r a
    probability density when r is so far from 1 that the refinement cap
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
    nfft = _smooth_length(size)
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


# 2^-j for j = 0..63, the rungs of a dyadic ladder in _refined_edges
_HALVINGS = np.ldexp(1.0, -np.arange(64))
# The density of two bumps of half-widths delta and epsilon is smooth but not
# analytic at the ends of its support and at its knots +-(delta - epsilon),
# where the end of one bump's support crosses the end of the other's; one
# Gauss-Legendre panel across a knot put the kernel 2.5e-9 off at
# epsilon = 3 delta / 4.  The ladders toward the ends and the knots stop at
# the rung (hi - lo) 2^-END_RUNGS.  As hi - lo = 2 (delta + epsilon) is at
# most four times the wider half-width, within (hi - lo) 2^-9 of an end or a
# knot the wider bump is within 1/128 of its own end, and its factor
# exp(-1/(1-u^2)) drops below 2^-53 once 1 - |u| < 1/74.  So what the density
# does nearer in is below 2^-53 of its peak, and finer panels there cannot
# change a bit of the integral.
END_RUNGS = 9


def _refined_edges(
    lo: float, hi: float, specials: np.ndarray, knots: tuple[float, ...] = ()
) -> np.ndarray:
    """Panel edges on [lo, hi] for each special point, one row per point,
    refined dyadically toward both ends, toward the knots (points inside
    (lo, hi) shared by every row) and toward the special point if it lies
    inside.

    From each of those points p a ladder of edges p +- gap 2^-j, gap =
    |side - p|, runs toward each side while the rung before it is wider
    than a floor: 1e-13 (hi - lo) for the special point, (hi - lo)
    2^-END_RUNGS for the ends and the knots.  Halving is exact, so each
    ladder is formed whole, for every point at once.  Each row holds lo,
    then its edges strictly inside (lo, hi) in ascending order, then hi,
    repeated to the common width; an edge can appear more than once, and a
    panel between equal edges is empty.
    """

    def ladders(points, floor):
        # p + (side - p) 2^-j is p +- |side - p| 2^-j to the bit
        steps = (np.array([lo, hi]) - points[..., None])[..., None] * _HALVINGS
        rungs = points[..., None, None] + steps[..., 1:]
        return rungs, np.abs(steps[..., :-1]) > floor * (hi - lo)

    fixed = np.array([lo, hi, *knots])
    rungs, keep = ladders(fixed, 2.0**-END_RUNGS)
    shared = np.concatenate([fixed, rungs[keep]])
    points = np.asarray(specials, dtype=float)
    rungs, keep = ladders(points, 1e-13)
    rungs[~keep] = hi
    # a special point outside (lo, hi) adds neither itself nor its ladders
    rungs[~((lo < points) & (points < hi))] = hi
    count = points.size
    edges = np.concatenate(
        [np.broadcast_to(shared, (count, shared.size)), points[:, None], rungs.reshape(count, -1)],
        axis=1,
    )
    edges[~((lo < edges) & (edges < hi))] = hi
    edges.sort(axis=1)
    return np.concatenate([np.full((count, 1), lo), edges, np.full((count, 1), hi)], axis=1)


def _log_integral(
    seps: np.ndarray, density, half: float, knots: tuple[float, ...] = ()
) -> np.ndarray:
    """int -log|c + w| density(w) dw over [-half, half] for each c in seps,
    by fixed-order Gauss-Legendre on panels refined dyadically toward the log
    singularity at w = -c and, down to the rung past which the density
    cannot change a bit, toward the two ends and the density's knots.

    The edges of every separation are formed in one pass, and the panels of
    every separation go through one density call, one log and one
    matrix-vector product; each separation's panels are then summed by their
    own np.sum, so each value has the bits of a call on that separation
    alone.
    """
    edges = _refined_edges(-half, half, -seps, knots)
    left, right = edges[:, :-1], edges[:, 1:]
    full = right > left
    counts = full.sum(axis=1)
    left, right = left[full], right[full]
    halfw = 0.5 * (right - left)
    w = (0.5 * (left + right))[:, None] + halfw[:, None] * GL_NODES
    shift = np.repeat(seps, counts)[:, None]
    with np.errstate(divide="ignore"):
        lg = np.log(np.abs(shift + w))
    lg[~np.isfinite(lg)] = 0.0
    np.negative(lg, out=lg)
    lg *= density(w)
    panels = lg @ GL_WEIGHTS * halfw
    bounds = np.cumsum([0, *counts.tolist()])
    return np.array([np.sum(panels[a:b]) for a, b in zip(bounds, bounds[1:])])


def _check_support(point, scale: float, domain: tuple[float, float] | None) -> None:
    """Refuse a mollifier at point (a float or an array of points) with
    half-width scale that leaves the domain."""
    if domain is not None and (np.any(point - scale < domain[0]) or np.any(point + scale > domain[1])):
        raise ValueError("mollifier support escapes the working domain")


def doubly_mollified_kernel(
    x: float | np.ndarray,
    z: float | np.ndarray,
    delta: float,
    epsilon: float,
    domain: tuple[float, float] | None = None,
) -> float | np.ndarray:
    """Kernel smoothed at both arguments with the bump:
    int int -log|u - v| rho_{delta,x}(u) rho_{epsilon,z}(v) du dv.

    x and z are floats, giving a float, or equal-length 1-D arrays, giving
    the kernel at each pair (x[i], z[i]), each bit for bit the float call's.

    The double integral collapses to a single integral of -log|c + w| against
    the convolution density of the two mollifiers (c = x - z); the log
    singularity, the ends of the density's support and its knots
    +-(delta - epsilon) are handled by dyadically refined Gauss-Legendre
    panels (see END_RUNGS).  By the scale law q_{delta,epsilon}(w) =
    S_r(w/delta) / delta, r = epsilon/delta, the density is a rescaled unit
    density, a spline built by one FFT convolution per ratio r and cached.
    Absolute accuracy against
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
    seps = np.asarray(x, dtype=float) - np.asarray(z, dtype=float)
    values = _log_integral(np.atleast_1d(seps), density, half, (epsilon - delta, delta - epsilon))
    return float(values[0]) if seps.ndim == 0 else values


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
    one kernel call on the distinct separations, each at the first pair
    (x, z) that gives it, and the worst deviation is the one over all pairs,
    to the bit.  A separation and its mirror -c are evaluated apart, since
    they can differ in the last bits.  Every grid point's supports are still
    checked.

    The bounded constant here is an empirical regression target, not a value
    supplied by theory.
    """
    points = np.asarray(grid, dtype=float)
    if points.size == 0:
        raise ValueError("assumption1_check needs at least one grid point, got an empty grid")
    pairs: dict[float, tuple[float, float]] = {}
    for x in points.tolist():
        for z in points.tolist():
            pairs.setdefault(x - z, (x, z))
    xs, zs = (np.array(column) for column in zip(*pairs.values()))
    worst = 0.0
    for delta in delta_list:
        for eps in epsilon_list:
            if eps > delta:
                continue
            # the epsilon support of a point lies inside its delta support
            _check_support(points, delta, domain)
            values = doubly_mollified_kernel(xs, zs, delta, eps, domain)
            for c, val in zip(pairs, values.tolist()):
                worst = max(worst, abs(val + math.log(max(abs(c), delta))))
    return worst
