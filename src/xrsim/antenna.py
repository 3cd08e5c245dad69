"""Planar phased-array model: geometry, analog weight vectors, and far-field
gain evaluation.

The array sits in the local y-z plane with boresight along +x.  Element n at
position p_n steered by phase phi_n contributes a * exp(j(phi_n + k p_n.u))
to the field in unit direction u, with a single fixed amplitude a = 1/sqrt(N)
shared by all elements (phase-only beamforming).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import unit_vector

SPEED_OF_LIGHT = 299_792_458.0

# |field| below this is treated as a perfect null
_NULL_FIELD = 1e-15
NULL_GAIN_DB = -300.0

# complex multiply-adds per matrix product in AwvEvaluator.gains_db
_GEMM_MACS = 8 * 64 * 64


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform rectangular array of isotropic elements, element spacing in
    wavelengths."""

    rows: int
    cols: int
    spacing_wavelengths: float = 0.5
    carrier_hz: float = 60e9

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array must have at least one row and one column")
        if not (0.0 < self.spacing_wavelengths < math.inf and 0.0 < self.carrier_hz < math.inf):
            raise ValueError("spacing and carrier frequency must be positive and finite")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def element_positions(self) -> np.ndarray:
        """(N, 3) element positions in meters, row-major (r * cols + c)."""
        d = self.spacing_wavelengths * self.wavelength
        r = np.arange(self.rows) - (self.rows - 1) / 2.0
        c = np.arange(self.cols) - (self.cols - 1) / 2.0
        zz, yy = np.meshgrid(r * d, c * d, indexing="ij")
        out = np.zeros((self.n_elements, 3))
        out[:, 1] = yy.ravel()
        out[:, 2] = zz.ravel()
        return out


class SteeredBlock(NamedTuple):
    """Columns ``c0:c1`` of a weight vector, on every row: the full-array
    :func:`steering_phases` toward a unit vector with y and z components
    ``ty`` and ``tz``, plus the constant phase ``offset``."""

    c0: int
    c1: int
    ty: float
    tz: float
    offset: float


@dataclass(frozen=True)
class Awv:
    """Analog weight vector: per-element phases; every element shares the
    amplitude 1/sqrt(N).

    ``blocks`` records how the phases were built when they are steered
    column blocks (a steered beam is one block over all columns), so that
    :class:`AwvEvaluator` can sum the array in closed form.  It describes
    ``phases`` and adds nothing to them: it takes no part in ``==`` or
    ``repr``, and a weight vector built from bare phases has none.
    """

    phases: np.ndarray
    blocks: tuple[SteeredBlock, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        phases = np.ascontiguousarray(self.phases, dtype=float)
        if phases.ndim != 1 or phases.size == 0:
            raise ValueError("phases must be a nonempty 1-D array")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)

    @property
    def n_elements(self) -> int:
        return self.phases.size

    @property
    def amplitude(self) -> float:
        return 1.0 / math.sqrt(self.phases.size)


def steering_phases(geometry: ArrayGeometry, u: np.ndarray) -> Awv:
    """Phases that align all element contributions toward unit vector ``u``."""
    return steered_awv(geometry, (SteeredBlock(0, geometry.cols, float(u[1]), float(u[2]), 0.0),))


def steered_awv(geometry: ArrayGeometry, blocks: Sequence[SteeredBlock]) -> Awv:
    """Weight vector of steered blocks that tile the columns in order: the
    elements at y and z in block b take the phase -k (y t_y + z t_z) +
    offset, and the weight vector records the blocks."""
    _check_tiling(geometry, blocks)
    k = 2.0 * math.pi / geometry.wavelength
    pos = geometry.element_positions().reshape(geometry.rows, geometry.cols, 3)
    phases = np.empty((geometry.rows, geometry.cols))
    for b in blocks:
        phases[:, b.c0 : b.c1] = -k * (pos[:, b.c0 : b.c1, 1] * b.ty + pos[:, b.c0 : b.c1, 2] * b.tz) + b.offset
    return Awv(phases.ravel(), tuple(blocks))


def _check_tiling(geometry: ArrayGeometry, blocks: Sequence[SteeredBlock]) -> None:
    starts, ends = [b.c0 for b in blocks], [b.c1 for b in blocks]
    if starts + [geometry.cols] != [0] + ends or any(c0 >= c1 for c0, c1 in zip(starts, ends)):
        raise ValueError("steered blocks must tile the array's columns")


def field_at(geometry: ArrayGeometry, awv: Awv, u: np.ndarray) -> complex:
    """Complex far-field amplitude of the weighted array toward unit vector ``u``."""
    if awv.n_elements != geometry.n_elements:
        raise ValueError("weight vector length does not match the array")
    k = 2.0 * math.pi / geometry.wavelength
    phase = awv.phases + k * (geometry.element_positions() @ u)
    return awv.amplitude * complex(np.sum(np.exp(1j * phase)))


def gain_db(geometry: ArrayGeometry, awv: Awv, u: np.ndarray) -> float:
    """Array gain 20 log10 |field| in dB toward the unit vector ``u``;
    perfect nulls floor at -300 dB."""
    mag = abs(field_at(geometry, awv, u))
    if mag < _NULL_FIELD:
        return NULL_GAIN_DB
    return 20.0 * math.log10(mag)


def _lattice_phasors(k_offsets: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp(j k_offsets u) for each entry of ``u``, (M, len(k_offsets)).

    The offsets are evenly spaced, so each row is a geometric sequence: two
    complex exponentials and a running product instead of one exponential
    per element, accurate to a few ulps per step.
    """
    out = np.empty((len(u), len(k_offsets)), dtype=complex)
    out[:, 0] = np.exp(1j * (u * k_offsets[0]))
    if len(k_offsets) > 1:
        out[:, 1:] = np.exp(1j * (u * (k_offsets[1] - k_offsets[0])))[:, None]
    return np.cumprod(out, axis=1, out=out)


def _dirichlet(theta: np.ndarray, n) -> np.ndarray:
    """D_n(theta) = sin(n theta / 2) / sin(theta / 2), with D_n(0) = n: the
    sum of exp(j theta x) over the n centred offsets x = i - (n - 1) / 2.
    ``n`` is an int or an int array that broadcasts against ``theta``.

    theta is first reduced to [-pi, pi] with D_n(theta + 2 pi) =
    (-1)^(n - 1) D_n(theta).  Next to a grating lobe, theta near a nonzero
    multiple of 2 pi, both sines nearly vanish, and the rounding of n theta
    would swamp the numerator of the plain ratio.
    """
    turns = np.rint(theta / (2.0 * math.pi))
    theta = theta - 2.0 * math.pi * turns
    half = np.sin(theta / 2.0)
    out = np.full(theta.shape, n, dtype=float)
    np.divide(np.sin(n * theta / 2.0), half, out=out, where=half != 0.0)
    # no sign to fix where every direction is within 1 / (2 spacing) of its
    # target along the axis, as on a link that points at the other end
    if turns.any():
        out[(np.fmod(turns, 2.0) != 0.0) & ((n - 1) % 2 == 1)] *= -1.0
    return out


def block_layout(geometry: ArrayGeometry, blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`block_fields` reads of B steered blocks,
    :class:`SteeredBlock` s or their (B, 5) array: each block's target y
    and z components, its column count n and its centre ``cen``, in columns
    off the array centre."""
    c0, c1, ty, tz, _ = np.asarray(blocks, dtype=float).T
    return ty, tz, (c1 - c0).astype(np.int64), (c0 + c1 - geometry.cols) / 2.0


def block_fields(geometry: ArrayGeometry, layout, u: np.ndarray) -> np.ndarray:
    """Field of each of B steered blocks, given by their
    :func:`block_layout`, toward the rows of ``u``, (M, 3) unit vectors in
    the array frame: (M, B), per unit element amplitude and before the
    block's offset.  Block b of n columns, centred ``cen`` columns off the
    array centre and steered at t, gives D_rows(kd (u_z - t_z)) D_n(kd (u_y
    - t_y)) e^{j cen kd (u_y - t_y)}, a product of two Dirichlet kernels
    (Balanis, *Antenna Theory*, planar arrays)."""
    kd = (2.0 * math.pi / geometry.wavelength) * (geometry.spacing_wavelengths * geometry.wavelength)
    ty, tz, n, cen = layout
    theta_y = kd * (u[:, 1:2] - ty)
    theta_z = kd * (u[:, 2:3] - tz)
    terms = _dirichlet(theta_z, geometry.rows) * _dirichlet(theta_y, n)
    return terms * np.exp(1j * (cen * theta_y))


class AwvEvaluator:
    """Fast gain evaluation for one AWV, or for a codebook's stack of AWVs
    (``awv`` is then their tuple, in the order given), toward many
    directions at once (:meth:`gains_db`).  A link evaluates one AWV at a
    batch of directions; a sector sweep evaluates a whole codebook toward one
    direction (:meth:`gain_db`).

    One AWV that carries its :attr:`Awv.blocks` (a steered beam or a
    covrage composite beam) is summed in closed form, O(blocks) per
    direction, from its :func:`block_fields` turned by their offsets.  Any
    other AWV, and every stack, goes through the rectangular lattice: the
    element sum factors into a row combination of per-column sums, two
    length-rows/cols contractions instead of the O(N) phase sum.  Both
    produce the values of the per-element :func:`gain_db` up to rounding.
    """

    def __init__(self, geometry: ArrayGeometry, awv: Awv | Sequence[Awv]):
        stack = (awv,) if isinstance(awv, Awv) else tuple(awv)
        if not stack or any(a.n_elements != geometry.n_elements for a in stack):
            raise ValueError("weight vector length does not match the array")
        self.geometry = geometry
        self.awv = awv if isinstance(awv, Awv) else stack
        if isinstance(awv, Awv) and awv.blocks:
            _check_tiling(geometry, awv.blocks)
            self._layout = block_layout(geometry, awv.blocks)
            self._block_coef = awv.amplitude * np.exp(1j * np.array([b.offset for b in awv.blocks]))
            self._w = None
        else:
            d = geometry.spacing_wavelengths * geometry.wavelength
            k = 2.0 * math.pi / geometry.wavelength
            self._ky = k * d * (np.arange(geometry.cols) - (geometry.cols - 1) / 2.0)
            self._kz = k * d * (np.arange(geometry.rows) - (geometry.rows - 1) / 2.0)
            # rows x (AWV, column): one matrix product serves the whole stack
            self._w = np.stack(
                [(a.amplitude * np.exp(1j * a.phases)).reshape(geometry.rows, geometry.cols) for a in stack], axis=1
            ).reshape(geometry.rows, -1)

    def gain_db(self, u: np.ndarray):
        """Gain toward one unit vector: a float, or one per stacked AWV."""
        return self.gains_db(u[None, :])[0]

    def gains_db(self, u: np.ndarray) -> np.ndarray:
        """Gains toward the rows of ``u``, (M, 3) unit vectors in the array
        frame: (M,) for one AWV, (M, stack size) for a stack.

        On the lattice the row sums are matrix products of at most
        ``_GEMM_MACS`` multiply-adds each: OpenBLAS hands larger complex
        products, and a complex matrix-vector product of a 64x64 array, to
        its thread pool, whose spinning workers cost more CPU than they
        save.  That path serves quasi-omni links, whose batches hold at
        least two directions and so never form the latter, and sweeps: one
        direction and one vector-matrix product over the stack (2,304
        multiply-adds for the AP's 36 sectors at 8x8, 2,368 for a 37-entry
        8x8 headset codebook).
        """
        if self._w is None:
            mags = np.abs(block_fields(self.geometry, self._layout, u) @ self._block_coef)[:, None]
        else:
            col_phasors = _lattice_phasors(self._ky, u[:, 1])
            row_phasors = _lattice_phasors(self._kz, u[:, 2])
            n_products = -(-len(u) * self._w.size // _GEMM_MACS)
            per_column = np.concatenate([rows @ self._w for rows in np.array_split(row_phasors, n_products)])
            mags = np.abs(np.einsum("msc,mc->ms", per_column.reshape(len(u), -1, len(self._ky)), col_phasors))
        gains = np.where(mags < _NULL_FIELD, NULL_GAIN_DB, 20.0 * np.log10(np.maximum(mags, _NULL_FIELD)))
        return gains if isinstance(self.awv, tuple) else gains[:, 0]


def sample_directions(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sphere-uniform random unit vectors, (n, 3), drawn from ``rng``: azimuth
    uniformly and elevation as asin(uniform(-1, 1)), so that directions are
    equidistributed on the sphere rather than piling up at the poles."""
    az = rng.uniform(-180.0, 180.0, size=n)
    el = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, size=n)))
    return np.array([unit_vector(float(a), float(e)) for a, e in zip(az, el)]).reshape(n, 3)
