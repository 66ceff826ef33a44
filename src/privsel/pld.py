"""Discretized privacy-loss accounting for the Poisson-subsampled Gaussian.

The privacy loss log(P(t)/Q(t)) of the dominating pair is discretized on
a uniform grid.  Each cell's mass is split between the cell's two edge
points so that the conditional mean of e^(-loss) is preserved exactly;
since the hockey-stick integrand is convex in e^(-loss), every delta
computed from the object is a certified upper bound, and the guarantee
survives convolution.  Unlike rounding every loss up to the cell's upper
edge, the split leaves no systematic drift, so the discretization error
stays at the single-cell scale instead of growing with the composition
count.  Cells where the split is numerically unsafe fall back to pure
upper-edge placement, which only adds pessimism.

Composition convolves mass arrays (FFT, exponent-by-squaring),
accumulating the probability already rounded to +infinity.  Each
convolution multiplies the spectra in place and trims its support from
running sums over the edge stretches alone; neither changes a value
against the full-length passes they replace.  Grid points
are stored as an integer origin index times the spacing, which keeps
grids of factors exactly aligned under convolution.

Nothing is memoized in the process: each profile composes its own
distributions and frees them with itself.  The one cache is on disk and
opt-in: set PRIVSEL_PLD_CACHE to a directory, and each composed
distribution is stored there, one file per (q, sigma, steps, direction,
grid), and read back on the next call for the same key.  Each write
evicts the oldest files past CACHE_MAX_BYTES.

The module loads numpy alone at import.  scipy's compiled special
functions load, through `_special` and without the `scipy.special`
package, only to build a grid (`ndtr`, once both directions fit their
cell budget) or to sum an integer-order Renyi moment (`gammaln`,
`xlog1py`), so a warm cache hit and a refused grid never load scipy,
and a refused grid leaves the cache directory untouched.  Of the
standard library it loads no `concurrent.futures` (nor the `logging`
that imports): the add direction runs in one `threading.Thread`.
`hashlib` loads only to name a cache file.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import tempfile
import threading
import zipfile
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from ._search import halve
from .errors import ConfigError, GridTooCoarseError, MemoryBudgetError
from .profiles import (PrivacyProfile, RdpCurve, _check_positive, _check_twice_square,
                       clip_delta, default_orders)

# cells of one grid; subsampled_gaussian_profile composes both directions
# at once, so two such working sets (and their FFT buffers) can coexist
MAX_CELLS = 2**28
# cumulative mass a convolution may shed from either end of its support;
# right-end mass goes to the +infinity tail, left-end mass folds upward.
# Must sit above the FFT rounding noise a support edge accumulates, or
# the noise keeps the edges alive and the support doubles every squaring
TRIM_MASS = 1e-15
# first stretch of each support edge whose running sums _trim takes
_TRIM_WINDOW = 1024
CACHE_ENV = "PRIVSEL_PLD_CACHE"
# bytes of pld_*.npz and .tmp_pld_*.npz files the cache directory keeps;
# one `privsel adjust --sigmas 2,3,4` writes 44 MB
CACHE_MAX_BYTES = 256 * 2**20
_CACHE_VERSION = 2
# terms of an integer-order Renyi moment, or points of a trapezoid pass
_RENYI_MAX_POINTS = 2**22


@dataclass(frozen=True)
class GridSpec:
    """Loss grid parameters: the spacing, and the density tail mass the
    grid range may leave uncovered on each construction, the same for
    every grid."""

    spacing: float = 1e-4
    tail_mass: ClassVar[float] = 1e-15

    def __post_init__(self):
        _check_positive(spacing=self.spacing)


# -ndtri(GridSpec.tail_mass / 4): each end of the grid window lies this
# many noise scales past a Gaussian mean, leaving tail_mass / 4 beyond it
_WINDOW_Z = float.fromhex("0x1.0391619fe7e7bp+3")


@dataclass(frozen=True)
class SubsampledGaussianParams:
    """Poisson subsampling ratio, noise scale, and composition count."""

    q: float
    sigma: float
    steps: int = 1

    def __post_init__(self):
        if not 0 < self.q <= 1:
            raise ValueError(f"q must be in (0,1], got {self.q}")
        _check_positive(sigma=self.sigma)
        _check_twice_square(self.sigma)
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class DiscretePLD:
    """Upper-bounding discretization of a privacy-loss distribution.

    Grid point i sits at (origin_index + i) * spacing; mass[i] is the
    probability assigned to that point; tail_mass is the probability
    treated as loss +infinity.
    """

    spacing: float
    origin_index: int
    mass: np.ndarray
    tail_mass: float

    def __post_init__(self):
        if self.mass.ndim != 1 or len(self.mass) == 0:
            raise ValueError("mass must be a non-empty 1-d array")
        if not float(self.mass.min()) >= 0:
            raise ValueError("negative or NaN mass cell")
        total = float(self.mass.sum()) + self.tail_mass
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"mass plus tail is {total}, expected 1")

    @cached_property
    def _grid(self):
        ell = (self.origin_index + np.arange(len(self.mass))) * self.spacing
        s1 = np.cumsum(self.mass[::-1])[::-1]
        s2 = np.cumsum((self.mass * np.exp(-ell))[::-1])[::-1]
        return ell, s1, s2

    def delta(self, eps):
        """Hockey-stick value sum_{l > eps} (1 - e^(eps-l)) mass(l) + tail."""
        if eps != eps:
            raise ValueError("eps is NaN")
        return self._delta_in(int(np.searchsorted(self._grid[0], eps, side="right")), eps)

    def epsilon(self, delta, floor):
        """Least eps >= floor with delta(eps) <= delta (< 1), in closed form:
        the cell is found by a binary search over the deltas at the grid
        points, and in it delta(eps) = s1 - e^eps s2 + tail is solved for
        e^eps.  inf where the tail alone exceeds delta; None where the
        answer passes eps 500, past which delta sums directly."""
        ell, s1, s2 = self._grid
        n = len(ell)
        # the delta at grid point k is read from the cell above it, k + 1
        k = bisect.bisect_left(
            range(n), True, key=lambda j: self._delta_in(j + 1, float(ell[j])) <= delta)
        if k == n:
            return math.inf
        x = (float(s1[k]) + self.tail_mass - delta) / float(s2[k]) if s2[k] > 0 else math.inf
        eps = math.log(x) if x > 0.0 else -math.inf
        # the root lies in the cell, up to rounding: above point k - 1, at most point k
        eps = min(eps, float(ell[k]))
        if k:
            eps = max(eps, float(ell[k - 1]))
        if eps > 500:
            return None
        return max(eps, floor)

    def slope(self, eps):
        """The slope of delta in e^eps from the right: -s2 at eps's cell,
        minus the mass above eps weighted by e^-loss."""
        ell, _, s2 = self._grid
        i = int(np.searchsorted(ell, eps, side="right"))
        return -float(s2[i]) if i < len(ell) else 0.0

    def _delta_in(self, i, eps):
        # delta at an eps whose grid search returned i
        ell, s1, s2 = self._grid
        if i >= len(ell):
            return min(1.0, self.tail_mass)
        if eps > 500:
            # the factored form e^eps * s2 would overflow; sum directly
            val = float(np.sum((1.0 - np.exp(eps - ell[i:])) * self.mass[i:]))
        else:
            val = float(s1[i] - math.exp(eps) * s2[i])
        return clip_delta(val + self.tail_mass)


def _loss_survival(ell, q, sigma, direction):
    """(numerator, denominator) probabilities of the event {loss > ell}.

    With t the threshold on the Gaussian sample where the loss crosses
    ell, remove measures {x > t} under the mixture (1-q) N(0,s^2) +
    q N(1,s^2) against N(0,s^2); add measures {x < t} under N(0,s^2)
    against the mixture.
    """
    from ._special import ndtr

    ell = np.asarray(ell, dtype=float)
    remove = direction == "remove"
    # a tiny q sends inner to inf, which ok keeps out of t
    with np.errstate(over="ignore"):
        inner = np.expm1(ell if remove else -ell) / q
    ok = inner > -1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = sigma**2 * np.log1p(np.where(ok, inner, 0.0)) + 0.5
    if remove:
        zero, one, beyond = ndtr(-t / sigma), ndtr(-(t - 1) / sigma), 1.0
    else:
        zero, one, beyond = ndtr(t / sigma), ndtr((t - 1) / sigma), 0.0
    mix = (1 - q) * zero + q * one
    num, den = (mix, zero) if remove else (zero, mix)
    return np.where(ok, num, beyond), np.where(ok, den, beyond)


def _loss_remove(t, q, sigma):
    # log((1-q) + q e^x), with e^x factored out past expm1's range; at
    # q = 1 it is x, which log1p(expm1(x)) sends to -inf far left
    x = (2 * t - 1) / (2 * sigma**2)
    if q == 1:
        return x
    big = np.maximum(x, 700.0)
    return np.where(x < 700, np.log1p(q * np.expm1(np.minimum(x, 700.0))),
                    big + math.log(q) + np.log1p((1 - q) / q * np.exp(-big)))


def _grid_cells(q, sigma, direction, spacing):
    """(first index, cell count) of the one-step grid at spacing; a grid
    past MAX_CELLS is refused before any special function is read."""
    if direction == "remove":
        t_lo, t_hi = -_WINDOW_Z * sigma, 1 + _WINDOW_Z * sigma
        l_lo = float(_loss_remove(t_lo, q, sigma))
        l_hi = float(_loss_remove(t_hi, q, sigma))
    elif direction == "add":
        t_lo, t_hi = -_WINDOW_Z * sigma, _WINDOW_Z * sigma
        l_lo = float(-_loss_remove(t_hi, q, sigma))
        l_hi = float(-_loss_remove(t_lo, q, sigma))
    else:
        raise ValueError(f"direction must be add or remove, got {direction!r}")

    lo, hi = l_lo / spacing, l_hi / spacing
    if not hi - lo < math.inf:
        raise MemoryBudgetError(f"loss grid cell count overflows a float, budget is {MAX_CELLS}")
    j_lo = math.floor(lo)
    j_hi = math.ceil(hi)
    n = j_hi - j_lo + 1
    if n > MAX_CELLS:
        raise MemoryBudgetError(f"loss grid needs {n} cells, budget is {MAX_CELLS}")
    return j_lo, n


def _check_cells(q, sigma, grid):
    """Refuse a grid past its cell budget in either direction, at the
    spacing or at the half spacing subsampled_gaussian_pld also builds."""
    for direction in ("remove", "add"):
        for spacing in (grid.spacing, grid.spacing / 2):
            _grid_cells(q, sigma, direction, spacing)


def _build(q, sigma, direction, spacing):
    j_lo, n = _grid_cells(q, sigma, direction, spacing)
    ell = (j_lo + np.arange(n)) * spacing
    sf_num, sf_den = _loss_survival(ell, q, sigma, direction)
    p_cell = np.maximum(sf_num[:-1] - sf_num[1:], 0.0)
    # integral of e^(-loss) over the cell, taken under the numerator,
    # equals the denominator's probability of the same cell
    d_cell = np.maximum(sf_den[:-1] - sf_den[1:], 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        up = (p_cell - np.exp(ell[:-1]) * d_cell) / (-np.expm1(-spacing))
    up = np.where(np.isfinite(up), np.clip(up, 0.0, p_cell), p_cell)
    mass = np.zeros(n)
    mass[1:] += up
    mass[:-1] += p_cell - up
    # everything below the grid window is placed at the lowest point,
    # which moves it up in loss and therefore only adds pessimism
    mass[0] += max(0.0, 1.0 - float(sf_num[0]))
    return DiscretePLD(
        spacing=spacing,
        origin_index=j_lo,
        mass=mass,
        tail_mass=float(sf_num[-1]),
    )


def subsampled_gaussian_pld(params, direction, grid=None):
    """One-step discretized loss distribution for the given direction;
    params.steps must be 1 (compose builds the multi-step distribution).

    Construction checks its own resolution: if halving the spacing moves
    delta(0) by more than 1e-3 the grid is refused as too coarse.
    """
    if params.steps != 1:
        raise ValueError(f"a one-step distribution needs steps = 1, got {params.steps}")
    grid = grid or GridSpec()
    pld = _build(params.q, params.sigma, direction, grid.spacing)
    finer = _build(params.q, params.sigma, direction, grid.spacing / 2)
    if abs(pld.delta(0.0) - finer.delta(0.0)) > 1e-3:
        raise GridTooCoarseError(
            f"spacing {grid.spacing:g} shifts delta(0) by more than 1e-3 "
            f"against a half-spacing refinement"
        )
    return pld


def _edge_sums(mass, cells):
    """Running sums of mass from its first cell over the shortest stretch,
    of _TRIM_WINDOW cells times a power of 4, that reaches TRIM_MASS or
    spans `cells` cells; with the index of the first sum at or above
    TRIM_MASS, or the stretch's length where none is.  np.cumsum adds in
    sequence, so each sum is the one a full-length cumsum gives."""
    width = _TRIM_WINDOW
    while True:
        run = np.cumsum(mass[:width])
        first = int(np.searchsorted(run, TRIM_MASS))
        if first < len(run) or width >= cells:
            return run, first
        width *= 4


def _trim(mass, origin, tail):
    """Drop the edge stretches of the support whose mass stays under
    TRIM_MASS: the right one into the tail, the left one folded into the
    lowest kept cell."""
    n = len(mass)
    # suffix sums accumulated from the right stay accurate at the right
    # edge, where the cells are tiny and a left-to-right cumsum's rounding
    # error would swamp them
    suffix, shed = _edge_sums(mass[::-1], n)
    # at least one cell stays, even when all the mass is under TRIM_MASS
    keep_hi = max(n - 1 - shed, 0)
    beyond = float(suffix[n - 2 - keep_hi]) if keep_hi < n - 1 else 0.0
    prefix, first = _edge_sums(mass, keep_hi)
    keep_lo = min(first, keep_hi)
    out = mass[keep_lo : keep_hi + 1].copy()
    if keep_lo > 0:
        out[0] += float(prefix[keep_lo - 1])
    return out, origin + keep_lo, tail + beyond


def _next_fast_len(n):
    """Least 2^a 3^b 5^c >= n, the padded length
    `scipy.fft.next_fast_len(n, real=True)` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fftconvolve(x, y):
    """Full linear convolution of two float arrays by real FFT, at the
    padded length `scipy.signal.fftconvolve` uses.  numpy >= 2 runs the
    same pocketfft code as `scipy.fft`, so the result is the same to the
    bit, and it keeps no plan cache for lengths that never recur.  A
    square (y is x) reuses the one transform."""
    if len(x) == 1 or len(y) == 1:
        # fftconvolve skips the transform for a single-cell factor
        return x * y
    n_out = len(x) + len(y) - 1
    n = _next_fast_len(n_out)
    fx = np.fft.rfft(x, n)
    fx *= fx if y is x else np.fft.rfft(y, n)
    return np.fft.irfft(fx, n)[:n_out]


def _convolve(a, b):
    n_out = len(a.mass) + len(b.mass) - 1
    if n_out > MAX_CELLS:
        raise MemoryBudgetError(f"convolution needs {n_out} cells, budget is {MAX_CELLS}")
    try:
        mass = _fftconvolve(a.mass, b.mass)
    except MemoryError:
        raise MemoryBudgetError(f"convolution needs {n_out} cells, more memory "
                                f"than is free") from None
    np.maximum(mass, 0.0, out=mass)
    # FFT rounding loses mass at relative scale ~1e-15 per convolution,
    # which compounds through the squaring ladder; scaling the deficit
    # back up keeps the result an upper bound
    total_a = float(a.mass.sum())
    target = total_a * (total_a if b is a else float(b.mass.sum()))
    s = float(mass.sum())
    if 0 < s < target:
        mass *= target / s
    tail = a.tail_mass + b.tail_mass - a.tail_mass * b.tail_mass
    mass, origin, tail = _trim(mass, a.origin_index + b.origin_index, tail)
    return DiscretePLD(a.spacing, origin, mass, tail)


def compose(pld, steps):
    """steps-fold adaptive composition by repeated squaring of the mass array."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        return pld
    result = None
    power = pld
    t = steps
    while t:
        if t & 1:
            result = power if result is None else _convolve(result, power)
        t >>= 1
        if t:
            power = _convolve(power, power)
    return result


# privsel keeps no composed PLD in memory and never writes this dict;
# perfbench reads it: tracing._install_cache_probe counts a key found here
# as a memory hit, and test_from_import_bindings_are_intercepted
# monkeypatches it
_COMPOSED = {}


def _cache_path(key):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    import hashlib
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
    return os.path.join(root, f"pld_{digest}.npz")


def _load_cached(path):
    """The PLD stored at path, or None when the file is missing, of
    another version, or unreadable."""
    try:
        with open(path, "rb") as fh, np.load(fh) as f:
            if int(f["version"]) != _CACHE_VERSION:
                return None
            return DiscretePLD(
                spacing=float(f["spacing"]),
                origin_index=int(f["origin_index"]),
                mass=f["mass"],
                tail_mass=float(f["tail_mass"]),
            )
    # TypeError: a plain .npy array loads as an ndarray, not an archive
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        return None


def _cache_temp(path):
    """A new empty temporary file in path's directory, made before the PLD
    is built, so that a directory that cannot be written is refused before
    any work: a ConfigError, as an --out that cannot be opened is."""
    root = os.path.dirname(path) or "."
    try:
        os.makedirs(root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, prefix=".tmp_pld_", suffix=".npz")
    except OSError as e:
        raise _unwritable(root, e) from e
    os.close(fd)
    return tmp


def _unwritable(root, e):
    return ConfigError(f"cannot write PLD cache {root}: {e.strerror or e}")


def _save_cached(tmp, path, pld):
    """Write to the temporary file tmp, then rename it into place, so a
    crash mid-write never leaves a partial file at path; then evict past
    the budget."""
    root = os.path.dirname(path) or "."
    try:
        with open(tmp, "wb") as f:
            np.savez(
                f,
                version=_CACHE_VERSION,
                spacing=pld.spacing,
                origin_index=pld.origin_index,
                mass=pld.mass,
                tail_mass=pld.tail_mass,
            )
        try:
            os.replace(tmp, path)
        except FileNotFoundError:
            # another writer's eviction took the temporary file: not cached
            return
        _evict(root, os.path.basename(path))
    except OSError as e:
        raise _unwritable(root, e) from e


def _evict(root, keep):
    """Remove the oldest files of root, by mtime, until the rest fit
    CACHE_MAX_BYTES: pld_*.npz files and the .tmp_pld_*.npz files of
    writers, which a killed writer leaves behind.  The file named keep,
    just written, always stays.  A file another process removed first
    counts as removed."""
    files = []
    with os.scandir(root) as entries:
        for entry in entries:
            if entry.name.startswith(("pld_", ".tmp_pld_")) and entry.name.endswith(".npz"):
                try:
                    st = entry.stat()
                except FileNotFoundError:
                    continue
                files.append((st.st_mtime_ns, entry.name, st.st_size))
    total = sum(size for _, _, size in files)
    for _, name, size in sorted(files):
        if total <= CACHE_MAX_BYTES:
            break
        if name != keep:
            try:
                os.remove(os.path.join(root, name))
            except FileNotFoundError:
                pass
            total -= size


def _composed_pld(q, sigma, steps, direction, grid):
    """The composed PLD read from the PRIVSEL_PLD_CACHE file for its key
    when there is one, else built, composed and saved there (when set)."""
    path = _cache_path((q, sigma, steps, direction, grid.spacing, grid.tail_mass))
    pld = _load_cached(path) if path else None
    if pld is not None:
        return pld
    tmp = _cache_temp(path) if path else None
    try:
        base = subsampled_gaussian_pld(SubsampledGaussianParams(q, sigma), direction, grid)
        pld = compose(base, steps)
        if tmp:
            _save_cached(tmp, path, pld)
    finally:
        # renamed into place, tmp is gone; after a failed build or write,
        # the empty or partial file goes
        if tmp:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    return pld


def subsampled_gaussian_profile(params, grid=None):
    """Profile eps -> max over neighborhood directions of the composed
    discretized delta.  Both composed distributions are built on each
    call, or read from the opt-in PRIVSEL_PLD_CACHE directory.

    The directions are independent, so add is composed in a worker
    thread while this thread composes remove (numpy's FFTs release the
    interpreter lock).  The worker is joined before this returns or
    raises; when both directions fail, remove's error is the one raised."""
    grid = grid or GridSpec()
    # before either direction touches the cache directory
    _check_cells(params.q, params.sigma, grid)
    args = (params.q, params.sigma, params.steps)
    add = {}

    def compose_add():
        try:
            add["pld"] = _composed_pld(*args, "add", grid)
        except BaseException as e:
            add["error"] = e

    worker = threading.Thread(target=compose_add)
    worker.start()
    try:
        remove = _composed_pld(*args, "remove", grid)
    finally:
        worker.join()
    if "error" in add:
        raise add["error"]
    return Pld(remove, add["pld"])


@dataclass(frozen=True, eq=False)
class Pld(PrivacyProfile):
    """The larger delta of two composed loss distributions, one per
    neighborhood direction; its inverse is the larger of theirs.  Each
    direction, s1 - e^eps s2 + tail, falls in e^eps at slope -s2, minus
    the mass above eps weighted by e^-loss, in [-1, 0]; it is a sum of
    terms (1 - e^eps e^-loss)_+ mass, each convex in e^eps, and so is the
    larger of the two."""

    remove: DiscretePLD
    add: DiscretePLD

    def _at(self, eps):
        return max(self.remove.delta(eps), self.add.delta(eps))

    def slope(self, eps):
        """The slope of the larger direction at eps, from the right; on a
        tie the larger of the two slopes, that of the curve that stays
        larger past eps."""
        rem, add = self.remove.delta(eps), self.add.delta(eps)
        if rem != add:
            return (self.remove if rem > add else self.add).slope(eps)
        return max(self.remove.slope(eps), self.add.slope(eps))

    def crossing(self, ratio, cap):
        """The least eps in [0, cap] at which 1 + ratio * slope(eps) >= 0, or cap:
        convex in e^eps, the node's sign flips once, halved to adjacent floats."""
        def rises(eps):
            return not 1.0 + ratio * self.slope(eps) < 0.0

        if rises(0.0):
            return 0.0
        if not rises(cap):
            return cap
        return halve(rises, 0.0, cap)[1]

    def _inverse(self, delta, floor):
        # both directions must drop to delta; past eps 500, bisection
        rem, add = self.remove.epsilon(delta, floor), self.add.epsilon(delta, floor)
        return None if rem is None or add is None else max(rem, add)


def _logsumexp(x):
    # scipy.special.logsumexp spends about 0.1 ms a call on dispatch
    shift = float(x.max())
    return shift + math.log(float(np.sum(np.exp(x - shift))))


def _log_moment_binomial(q, sigma, alpha):
    """log E[exp(alpha loss)] under N(0,s^2), loss the remove loss, at an
    integer order: sum_k C(alpha,k) (1-q)^(alpha-k) q^k exp(k(k-1)/(2s^2)).
    The weights of k sum to 1, so the excess over 1 is the k >= 2 terms
    with expm1 of their exponents, all positive; log1p keeps its digits."""
    from ._special import gammaln, xlog1py

    k = np.arange(2.0, alpha + 1)
    c = k * (k - 1) / (2 * sigma**2)
    log_terms = (gammaln(alpha + 1) - gammaln(k + 1) - gammaln(alpha - k + 1)
                 + xlog1py(alpha - k, -q) + k * math.log(q)
                 + c + np.log(-np.expm1(-c)))
    return float(np.logaddexp(0.0, _logsumexp(log_terms)))


def _log_moment_trapezoid(q, sigma, alpha):
    """The same log moment at any order by a trapezoid pass of step s/64 over
    a Gaussian bump of width s, centered up to alpha, that falls below 1e-30
    of its peak at both ends: 1 plus the mean of expm1(alpha loss), or, where
    that would overflow, the integral in log space shifted to its peak."""
    window = alpha + 1 + sigma * math.sqrt(2 * math.log(1e30))
    n = 2 * math.ceil(64 * window / sigma) + 1
    if n > _RENYI_MAX_POINTS:
        raise MemoryBudgetError(f"Renyi grid needs {n} points, budget is {_RENYI_MAX_POINTS}")
    t, h = np.linspace(-window, window, n, retstep=True)
    log_g0 = -0.5 * (t / sigma) ** 2 - math.log(sigma * math.sqrt(2 * math.pi))
    tilt = alpha * _loss_remove(t, q, sigma)
    if tilt.max() < 700:  # expm1 overflows at 709.78
        return math.log1p(h * float(np.sum(np.exp(log_g0) * np.expm1(tilt))))
    return math.log(h) + _logsumexp(log_g0 + tilt)


def _renyi_one_step(q, sigma, alpha):
    # integer orders are summed exactly while their terms fit the budget
    exact = alpha == math.floor(alpha) and alpha <= _RENYI_MAX_POINTS
    log_moment = (_log_moment_binomial if exact else _log_moment_trapezoid)(q, sigma, alpha)
    return log_moment / (alpha - 1)


def renyi_subsampled_gaussian(params, alpha):
    """Renyi divergence bound of order alpha after params.steps compositions,
    from the remove pair alone, whose moment dominates add's at every order
    (Mironov, Talwar, Zhang, arXiv 1908.10530, section 3.3): an exact
    binomial sum at integer orders, one trapezoid pass at the others."""
    if not 1 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and exceed 1, got {alpha}")
    return params.steps * _renyi_one_step(params.q, params.sigma, float(alpha))


def subsampled_rdp_curve(params):
    """Renyi curve of the composed subsampled Gaussian on the shared
    order grid, one one-step value per order."""
    return RdpCurve([renyi_subsampled_gaussian(params, a) for a in default_orders()])
