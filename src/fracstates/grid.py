"""Periodic pseudospectral core: grids, fields, the fractional Laplacian as a
Fourier multiplier, quadrature, and the Helmholtz (Sobolev) inverse.

Conventions: the box is [-R, R)^d with periodic identification, n points per
axis (even), spacing h = 2R/n, wavenumbers xi_k = pi*k/R for k in
[-n/2, n/2). The multiplier of the fractional Laplacian of order alpha is
|xi|^(2*alpha) with the zero mode annihilated exactly, so constants are in
its kernel and quadratic forms pair consistently with the rectangle rule.
Each grid builds that multiplier once per alpha and keeps it read-only;
apply_frac_laplacian and helmholtz_inverse both use it, and the latter also
keeps the reciprocal 1/(|xi|^(2*alpha) + c) of its denominator for the last
shift c of each alpha, since a descent passes one shift for a whole solve.
Multiplying by it is bit for bit the division numpy does of a complex
spectrum by a real array, which forms the same reciprocal per mode.

Both operators, and the sub-cell translate _translate (a phase
multiplier), run one round trip, _round_trip: rfftn into a freshly
allocated spectrum, an in-place multiply by the multiplier, an
in-place ifftn over the leading axes in irfftn's axis order, and irfft into
the output. That is the arithmetic of irfftn(rfftn(u) * m) bit for bit, but
only the spectrum and the output are allocated, where irfftn forms a fresh
complex array per axis. Since
(-Lap)^a ((-Lap)^a + c)^-1 = I - c ((-Lap)^a + c)^-1, a caller holding
w = helmholtz_inverse(v, alpha, c) gets (-Lap)^a w = v - c w without a
further transform; the descent loop relies on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, InvalidGrid, InvalidInput, NonFinite, NonpositiveShift, ZeroField


@dataclass(frozen=True)
class Grid:
    """Uniform periodic tensor grid on [-R, R)^d."""

    d: int
    R: float
    n: int

    @property
    def h(self) -> float:
        return 2.0 * self.R / self.n

    @property
    def shape(self):
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def weight(self) -> float:
        """Quadrature weight h^d of the rectangle rule."""
        return self.h**self.d

    @cached_property
    def axis(self) -> np.ndarray:
        """1-D coordinates along one axis; x = 0 sits at index n//2."""
        return -self.R + self.h * np.arange(self.n)

    @property
    def coords(self):
        """The open mesh of the grid: d views of axis (not to be written),
        the i-th of shape n along dimension i and 1 elsewhere, which
        broadcast to the grid shape. Nothing of grid size is built or kept."""
        return np.meshgrid(*([self.axis] * self.d), indexing="ij", sparse=True, copy=False)

    @cached_property
    def _multipliers(self) -> dict:
        return {}

    @property
    def _wavenumbers(self) -> tuple:
        """The d 1-D wavenumber axes of the real-transform layout: the
        full axis for the leading dimensions, the halved one for the last.
        Built on each use: a few small arrays kept alive after the first
        multiplier measured 0.9 MB more peak RSS on a 48^3 solve."""
        full = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)
        half = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.h)
        return (full,) * (self.d - 1) + (half,)

    def _multiplier(self, alpha: float) -> np.ndarray:
        """|xi|^(2*alpha) on the real-transform layout (last axis halved),
        zero mode 0; built once per alpha and read-only."""
        mult = self._multipliers.get(alpha)
        if mult is None:
            parts = np.meshgrid(*self._wavenumbers, indexing="ij")
            xi_sq = np.zeros_like(parts[0])
            for p in parts:
                xi_sq += p * p
            mult = xi_sq**alpha
            mult.flat[0] = 0.0
            mult.flags.writeable = False
            self._multipliers[alpha] = mult
        return mult

    @cached_property
    def _shifted(self) -> dict:
        return {}

    def _shifted_multiplier(self, alpha: float, c: float) -> np.ndarray:
        """1/(|xi|^(2*alpha) + c), kept read-only for the last c of each alpha."""
        last = self._shifted.get(alpha)
        if last is None or last[0] != c:
            inv = self._multiplier(alpha) + c
            np.divide(1.0, inv, out=inv)
            inv.flags.writeable = False
            last = (c, inv)
            self._shifted[alpha] = last
        return last[1]

    def boundary_shell(self) -> np.ndarray:
        """Flat mask of the outer shell {|x|_inf >= 0.9 R}: the points one
        of whose coordinates lies in it."""
        mask = np.zeros(self.shape, dtype=bool)
        for c in self.coords:
            mask |= np.abs(c) >= 0.9 * self.R
        return mask.ravel()

    def index_of(self, point) -> tuple:
        """Grid index of a point that must lie on the grid (within 1e-9*h)."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.d,) or not np.all(np.isfinite(point)):
            raise InvalidInput(f"point {point} is not a grid point")
        idx = (point + self.R) / self.h
        rounded = np.rint(idx)
        if not np.max(np.abs(idx - rounded)) <= 1e-9:
            raise InvalidInput(f"point {point} is not a grid point")
        return tuple(int(i) % self.n for i in rounded)


@dataclass
class Field:
    """Real samples on a grid, stored flat in row-major axis order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.grid.size:
            raise InvalidGrid(
                f"field length {self.values.size} != grid size {self.grid.size}"
            )

    @property
    def shaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def locate_max(u: Field) -> np.ndarray:
    """Grid point of the maximal value; ties break to the lexicographically
    smallest index."""
    if not np.any(u.values):
        raise ZeroField("zero field has no maximum point")
    idx = np.unravel_index(int(np.argmax(u.values)), u.grid.shape)
    return np.array([u.grid.axis[i] for i in idx])


def make_grid(d: int, R: float, n: int) -> Grid:
    if d not in (1, 2, 3):
        raise InvalidGrid(f"dimension must be 1, 2 or 3, got {d}")
    if not R > 0:  # NaN fails too
        raise InvalidGrid(f"half-width must be positive, got {R}")
    if n < 8 or n % 2 != 0:
        raise InvalidGrid(f"points per axis must be even and >= 8, got {n}")
    return Grid(d=int(d), R=float(R), n=int(n))


def _check_finite(u: Field, what: str = "field"):
    if not np.all(np.isfinite(u.values)):
        raise NonFinite(f"{what} contains NaN or Inf")


def _check_same_grid(u: Field, v: Field):
    if u.grid != v.grid:
        raise GridMismatch(f"grids differ: {u.grid} vs {v.grid}")


def _check_alpha(alpha: float):
    if not (0.0 < alpha <= 1.0):
        raise InvalidInput(f"order alpha must lie in (0, 1], got {alpha}")


def _round_trip(u: Field, mult: np.ndarray) -> Field:
    """irfftn(rfftn(u) * mult), allocating only the spectrum and the
    output. Raises NonFinite when the zero mode of the spectrum, the sum of
    every sample, is not finite."""
    g = u.grid
    spec = np.empty(mult.shape, dtype=complex)
    # the zero mode sums every sample, so a NaN or Inf sample leaves it
    # non-finite: one scalar test instead of a pass over u
    with np.errstate(invalid="ignore"):
        np.fft.rfftn(u.shaped, out=spec)
    if not np.isfinite(spec.flat[0]):
        raise NonFinite("field contains NaN or Inf")
    np.multiply(spec, mult, out=spec)
    if g.d > 1:
        # ifftn runs its axes last to first, irfftn first to last
        np.fft.ifftn(spec, axes=tuple(range(g.d - 2, -1, -1)), out=spec)
    return Field(g, np.fft.irfft(spec, n=g.n, axis=-1))


def _translate(u: Field, shift) -> Field:
    """u(x - s) for a real shift s (one length per axis, in units of x):
    the phase multiplier exp(-i xi.s) in one round trip. A whole-cell s
    agrees with np.roll to rounding; for a sub-cell s, irfft drops the
    imaginary part of the Nyquist mode, which keeps the result real.

    Raises NonFinite when u has a NaN or Inf sample, or samples so large
    that their sum overflows.
    """
    xi = np.meshgrid(*u.grid._wavenumbers, indexing="ij", sparse=True)
    phase = np.exp(-1j * sum(s * k for s, k in zip(shift, xi, strict=True)))
    return _round_trip(u, phase)


def apply_frac_laplacian(u: Field, alpha: float) -> Field:
    """Apply (-Lap)^alpha through the multiplier |xi|^(2*alpha).

    Raises NonFinite when u has a NaN or Inf sample, or samples so large
    that their sum overflows.
    """
    _check_alpha(alpha)
    return _round_trip(u, u.grid._multiplier(alpha))


def inner_l2(u: Field, v: Field) -> float:
    """Rectangle-rule L2 pairing with weight h^d."""
    _check_same_grid(u, v)
    _check_finite(u)
    _check_finite(v)
    return u.grid.weight * float(np.dot(u.values, v.values))


def gagliardo_sq(u: Field, alpha: float) -> float:
    """Squared H^alpha energy seminorm <u, (-Lap)^alpha u>."""
    return inner_l2(u, apply_frac_laplacian(u, alpha))


def helmholtz_inverse(v: Field, alpha: float, c: float) -> Field:
    """Solve ((-Lap)^alpha + c) w = v exactly in Fourier space.

    Raises NonFinite when v has a NaN or Inf sample, or samples so large
    that their sum overflows.
    """
    if not c > 0:
        raise NonpositiveShift(f"shift must be positive, got {c}")
    _check_alpha(alpha)
    return _round_trip(v, v.grid._shifted_multiplier(alpha, c))


def resample_field(u: Field, target: Grid) -> Field:
    """Move a field between same-spacing grids by centered crop/zero-pad.

    Both grids put x = 0 at index n//2, so the index offset is the integer
    (n_t - n_s)/2 per axis. Incommensurate spacings are rejected.
    """
    src = u.grid
    if src == target:
        return u.copy()
    if src.d != target.d:
        raise GridMismatch(f"dimension mismatch: {src.d} vs {target.d}")
    if abs(src.h - target.h) > 1e-12 * max(src.h, target.h):
        raise GridMismatch(
            f"incommensurate spacings: h={src.h} vs h={target.h}"
        )
    ns, nt = src.n, target.n
    out = np.zeros(target.shape)
    if nt >= ns:
        off = (nt - ns) // 2
        sl = tuple(slice(off, off + ns) for _ in range(src.d))
        out[sl] = u.shaped
    else:
        off = (ns - nt) // 2
        sl = tuple(slice(off, off + nt) for _ in range(src.d))
        out[...] = u.shaped[sl]
    return Field(target, out)
