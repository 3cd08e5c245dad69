"""Planar phased-array model: geometry, analog weight vectors, and far-field
gain evaluation.

The array sits in the local y-z plane with boresight along +x.  Element n at
position p_n steered by phase phi_n contributes a * exp(j(phi_n + k p_n.u))
to the field in unit direction u, with a single fixed amplitude a = 1/sqrt(N)
shared by all elements (phase-only beamforming).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# |field| below this is treated as a perfect null
_NULL_FIELD = 1e-15
NULL_GAIN_DB = -300.0

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

    def axis_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Element y per column and z per row, in meters off the array
        centre."""
        d = self.spacing_wavelengths * self.wavelength
        return (np.arange(self.cols) - (self.cols - 1) / 2.0) * d, (np.arange(self.rows) - (self.rows - 1) / 2.0) * d

    def element_positions(self) -> np.ndarray:
        """(N, 3) element positions in meters, row-major (r * cols + c)."""
        y, z = self.axis_positions()
        return np.stack([np.zeros(self.n_elements), np.tile(y, self.rows), np.repeat(z, self.cols)], axis=1)


class SteeredBlock(NamedTuple):
    """Columns ``c0:c1`` of a weight vector, on every row: the full-array
    :func:`steering_phases` toward a unit vector with y and z components
    ``ty`` and ``tz``, plus the constant phase ``offset``."""

    c0: int
    c1: int
    ty: float
    tz: float
    offset: float


class Awv:
    """Analog weight vector of ``geometry``: per-element phases; every
    element shares the amplitude 1/sqrt(N).

    :func:`steered_awv` builds one from steered column blocks, recorded in
    ``blocks`` (a steered beam is one block over all columns), and
    :func:`factored_awv` from separable row and column factors, recorded in
    ``factors``, for :class:`AwvEvaluator` to sum in closed form; the phases
    are built from them when first read, which a link never does.
    """

    def __init__(self, geometry: ArrayGeometry, blocks=(), factors=None):
        self.geometry, self.blocks, self.factors = geometry, blocks, factors
        self._phases = None

    @property
    def phases(self) -> np.ndarray:
        if self._phases is None:
            self._phases = _finite(_block_phases(self.geometry, self.blocks) if self.blocks
                                   else (math.pi * (self.factors[0][:, None] + self.factors[1][None, :])).ravel())
        return self._phases

    @property
    def amplitude(self) -> float:
        return 1.0 / math.sqrt(self.geometry.n_elements)


def _finite(phases: np.ndarray) -> np.ndarray:
    """``phases``, made read-only, once they are known to be finite."""
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    phases.flags.writeable = False
    return phases


def steering_phases(geometry: ArrayGeometry, u: np.ndarray) -> Awv:
    """Phases that align all element contributions toward unit vector ``u``."""
    return steered_awv(geometry, (SteeredBlock(0, geometry.cols, float(u[1]), float(u[2]), 0.0),))


def steered_awv(geometry: ArrayGeometry, blocks: Sequence[SteeredBlock]) -> Awv:
    """Weight vector of steered blocks that tile the columns in order: the
    elements at y and z in block b take the phase -k (y t_y + z t_z) +
    offset, and the weight vector records the blocks.  Its phases are built
    when first read (:func:`_block_phases`)."""
    starts, ends = [b.c0 for b in blocks], [b.c1 for b in blocks]
    if starts + [geometry.cols] != [0] + ends or any(c0 >= c1 for c0, c1 in zip(starts, ends)):
        raise ValueError("steered blocks must tile the array's columns")
    if not all(math.isfinite(v) for b in blocks for v in (b.ty, b.tz, b.offset)):
        raise ValueError("phases must be finite")
    return Awv(geometry, blocks=tuple(blocks))


def factored_awv(geometry: ArrayGeometry, rows: np.ndarray, cols: np.ndarray) -> Awv:
    """Separable weight vector: the element on row r and column c takes the
    phase pi (rows[r] + cols[c]), the factors in half turns, and the weight
    vector records them.  Its phases are built, row-major, when first read."""
    factors = tuple(_finite(np.array(f, dtype=float)) for f in (rows, cols))
    if [f.shape for f in factors] != [(geometry.rows,), (geometry.cols,)]:
        raise ValueError("factors must have one entry per row and per column")
    return Awv(geometry, factors=factors)


def _block_phases(geometry: ArrayGeometry, blocks: Sequence[SteeredBlock]) -> np.ndarray:
    """The phases of :func:`steered_awv`, row-major, element by element from
    the positions of :meth:`ArrayGeometry.element_positions`."""
    k = 2.0 * math.pi / geometry.wavelength
    y, z = geometry.axis_positions()
    per_block = [(b.ty, b.tz, b.offset) for b in blocks]
    ty, tz, offset = np.repeat(per_block, [b.c1 - b.c0 for b in blocks], axis=0).T
    return (-k * (y * ty + z[:, None] * tz) + offset).ravel()


def field_at(geometry: ArrayGeometry, phases: np.ndarray, u: np.ndarray) -> complex:
    """Complex far-field amplitude toward unit vector ``u`` of the array
    weighted with per-element ``phases``, row-major, summed element by
    element: the oracle of :class:`AwvEvaluator`."""
    if np.shape(phases) != (geometry.n_elements,):
        raise ValueError("weight vector length does not match the array")
    k = 2.0 * math.pi / geometry.wavelength
    phase = phases + k * (geometry.element_positions() @ u)
    return 1.0 / math.sqrt(geometry.n_elements) * complex(np.sum(np.exp(1j * phase)))


def gain_db(geometry: ArrayGeometry, phases: np.ndarray, u: np.ndarray) -> float:
    """Array gain 20 log10 |field| in dB of :func:`field_at` toward the
    unit vector ``u``; perfect nulls floor at -300 dB."""
    mag = abs(field_at(geometry, phases, u))
    return NULL_GAIN_DB if mag < _NULL_FIELD else 20.0 * math.log10(mag)


def _lattice_phasors(k_offsets: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp(j k_offsets u) for each entry of ``u``, (M, len(k_offsets)).

    The offsets are evenly spaced, so each row is a geometric sequence: two
    complex exponentials and a running product instead of one exponential
    per element, accurate to a few ulps per step.
    """
    out = np.empty((len(u), len(k_offsets)), dtype=complex)
    _cis(u * k_offsets[0], out[:, 0])
    if len(k_offsets) > 1:
        out[:, 1:] = _cis(u * (k_offsets[1] - k_offsets[0]))[:, None]
    return np.cumprod(out, axis=1, out=out)


def _cis(x: np.ndarray, out=None) -> np.ndarray:
    """e^{j x} as cos x + j sin x, into ``out`` if given: np.exp(1j * x) is
    slower and equal bit for bit with numpy 2.4.6 (0 of 600,000 x differ)."""
    out = np.empty(x.shape, dtype=complex) if out is None else out
    np.cos(x, out=out.real), np.sin(x, out=out.imag)
    return out


def _dirichlet(theta: np.ndarray, n) -> np.ndarray:
    """D_n(theta) = sin(n theta / 2) / sin(theta / 2), with D_n(0) = n: the
    sum of exp(j theta x) over the n centred offsets x = i - (n - 1) / 2.
    ``n`` is a whole number or an array of them that broadcasts on ``theta``.

    theta is first reduced to [-pi, pi] with D_n(theta + 2 pi) =
    (-1)^(n - 1) D_n(theta).  Next to a grating lobe, theta near a nonzero
    multiple of 2 pi, both sines nearly vanish, and the rounding of n theta
    would swamp the numerator of the plain ratio.
    """
    # nothing to reduce and no sign to fix where every |theta| is below 3 <
    # pi, so every rint(theta / 2 pi) is 0: where every direction is within
    # 1 / (2 spacing) of its target along the axis, as on a link
    turns = None if np.abs(theta).max(initial=0.0) < 3.0 else np.rint(theta / (2.0 * math.pi))
    half = (theta if turns is None else theta - 2.0 * math.pi * turns) / 2.0
    out = np.sin(n * half)  # n theta / 2 is n (theta / 2): halving is exact
    np.sin(half, out=half)
    if half.all():
        out /= half
    else:
        out = np.divide(out, half, out=np.full(half.shape, n, dtype=float), where=half != 0.0)
    if turns is not None:
        np.negative(out, out=out, where=(np.fmod(turns, 2.0) != 0.0) & ((n - 1) % 2 == 1))
    return out


def block_layout(geometry: ArrayGeometry, blocks: Sequence[SteeredBlock]):
    """What :func:`block_fields` reads of B steered blocks, one row per
    Dirichlet factor: the targets (the distinct row t_z, shared by the blocks
    that have it, then each block's t_y), the component of u and the element
    count of each; then each block's row factor, and each block's turn, its
    centre in columns off the array centre and its offset, or None if every
    block is centred and at offset 0."""
    rows: dict = {}
    row_of = [rows.setdefault(b.tz, len(rows)) for b in blocks]
    n = [geometry.rows] * len(rows) + [b.c1 - b.c0 for b in blocks]
    turn = np.array([[(b.c0 + b.c1 - geometry.cols) / 2.0, b.offset] for b in blocks]).T[:, :, None]
    return (np.array(list(rows) + [b.ty for b in blocks])[:, None], np.array([2] * len(rows) + [1] * len(blocks)),
            np.array(n, dtype=float)[:, None], np.array(row_of), turn if turn.any() else None)


def block_fields(geometry: ArrayGeometry, layout, u: np.ndarray) -> np.ndarray:
    """Field of each of B steered blocks, given by their
    :func:`block_layout`, toward the rows of ``u``, (M, 3) unit vectors in
    the array frame: (B, M), per unit element amplitude.  Block b of n
    columns, centred ``cen`` columns off the array centre, steered at t and
    turned by ``offset`` gives D_rows(kd (u_z - t_z)) D_n(kd (u_y - t_y))
    e^{j (cen kd (u_y - t_y) + offset)}, a product of two Dirichlet kernels
    (Balanis, *Antenna Theory*, planar arrays), real for centred blocks at
    offset 0.  The factors are taken factor-major, so that each array
    operation runs along the directions; a link batch's ``u`` is the
    transposed view of a component-major (3, M) array, whose rows the
    factors read whole."""
    kd = 2.0 * math.pi * geometry.spacing_wavelengths
    targets, axis, n, row_of, turn = layout
    theta = (u.T[axis] - targets) * kd
    factors = _dirichlet(theta, n)
    first = len(targets) - len(row_of)
    terms = factors[row_of] * factors[first:]
    return terms if turn is None else terms * _cis(turn[0] * theta[first:] + turn[1])


class AwvEvaluator:
    """Fast gain evaluation for one AWV, or for a codebook's stack of AWVs
    (``awv`` is then their tuple, in the order given), toward many
    directions at once (:meth:`gains_db`).  A link evaluates one AWV at a
    batch of directions; a sweep evaluates a whole codebook toward the
    directions of a batch of beamforming updates, one row per update.
    :meth:`gain_db` is the one-direction form, which the package does not
    call.

    Each AWV is summed in closed form, up to rounding the per-element
    :func:`gain_db`.  :attr:`Awv.blocks` (a steered or covrage composite
    beam) give O(blocks) :func:`block_fields`, summed per AWV; a steered
    beam's is one real field.  :attr:`Awv.factors` (the quasi-omni chirp)
    give a row sum times a column sum, the planar array factor of a
    separable weighting.  A stack lists steered beams, then factored AWVs,
    as a headset codebook does; each AWV gets the bits of its own
    evaluator.
    """

    def __init__(self, geometry: ArrayGeometry, awv: Awv | Sequence[Awv]):
        stack = (awv,) if isinstance(awv, Awv) else tuple(awv)
        if not stack or any(a.geometry != geometry for a in stack):
            raise ValueError("weight vector does not match the array")
        steered = [a.blocks for a in stack if a.blocks]
        if any(a.blocks for a in stack[len(steered):]):
            raise ValueError("a stack lists steered beams, then factored weights")
        self.geometry = geometry
        self.awv = awv if isinstance(awv, Awv) else stack
        self._amplitude = stack[0].amplitude
        self._layout = self._row_weights = None
        if steered:
            self._layout = block_layout(geometry, [b for own in steered for b in own])
            # each steered AWV's first block row, or None when each has one
            counts = [len(own) for own in steered]
            self._starts = np.cumsum([0] + counts[:-1]) if max(counts) > 1 else None
        factored = [a.factors for a in stack[len(steered):]]
        if factored:
            self._ky, self._kz = (2.0 * math.pi / geometry.wavelength * x for x in geometry.axis_positions())
            self._row_weights = _cis(math.pi * np.array([rows for rows, _ in factored]))
            self._col_weights = self._amplitude * _cis(math.pi * np.array([cols for _, cols in factored]))

    def gain_db(self, u: np.ndarray):
        """Gain toward one unit vector: a float, or one per stacked AWV."""
        return self.gains_db(u[None, :])[0]

    def gains_db(self, u: np.ndarray) -> np.ndarray:
        """Gains toward the rows of ``u``, (M, 3) unit vectors in the array
        frame, of which only u_y and u_z are read (a link's u_x is NaN): (M,)
        for one AWV, (M, stack size) for a stack.

        Each steered AWV's block fields are added row by row, in block
        order, and the magnitude of the sum is scaled by the amplitude: for
        a real field x, |x| a is |x a| bit for bit.  A factored AWV's row
        and column sums are einsums over (M, rows) and (M, cols)
        :func:`_lattice_phasors`.  No sum makes a BLAS call.
        """
        mags = []
        if self._layout is not None:
            fields = block_fields(self.geometry, self._layout, u)
            if self._starts is not None:
                fields = np.add.reduceat(fields, self._starts, axis=0)
            mags.append((np.abs(fields) * self._amplitude).T)
        if self._row_weights is not None:
            rows = np.einsum("mr,ar->ma", _lattice_phasors(self._kz, u[:, 2]), self._row_weights)
            cols = np.einsum("mc,ac->ma", _lattice_phasors(self._ky, u[:, 1]), self._col_weights)
            mags.append(np.abs(rows * cols))
        mags = mags[0] if len(mags) == 1 else np.hstack(mags)
        gains = 20.0 * np.log10(np.maximum(mags, _NULL_FIELD))
        if mags.min(initial=_NULL_FIELD) < _NULL_FIELD:  # a perfect null: the floor
            gains[mags < _NULL_FIELD] = NULL_GAIN_DB
        return gains if isinstance(self.awv, tuple) else gains[:, 0]
