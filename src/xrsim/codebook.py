"""Sector codebooks and quasi-omni weight synthesis.

The directional sectors are steered beams on a fixed aim grid
(:func:`steered_sectors`); they are all an access point's transmit sweep
probes.  A codebook adds one quasi-omni AWV, a receive pattern, as its last
candidate (:func:`generate_sector_codebook`).  The quasi-omni weights are
synthesized by minimizing the spread between the strongest and weakest gain
over a fixed set of random directions, with phase-only control and fixed
amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .antenna import ArrayGeometry, Awv, sample_directions, steering_phases, _NULL_FIELD
from .geometry import Direction

# default aim grid, degrees, used on both azimuth and elevation
DEFAULT_AIMS = (-50.0, -30.0, -10.0, 10.0, 30.0, 50.0)

_STEP_MIN = 1e-3  # rad, coordinate-descent stop
_STEP_INIT = math.pi / 4.0


class CodebookFormatError(ValueError):
    """Raised when a codebook file cannot be parsed."""


@dataclass(frozen=True)
class Sector:
    id: int
    aim: Direction
    awv: Awv


@dataclass(frozen=True)
class Codebook:
    geometry: ArrayGeometry
    sectors: tuple[Sector, ...]
    quasi_omni: Awv

    def __post_init__(self):
        ids = [s.id for s in self.sectors]
        if len(set(ids)) != len(ids):
            raise ValueError("sector ids must be unique")

    @property
    def quasi_omni_id(self) -> int:
        return len(self.sectors)

    def all_awvs(self) -> list[tuple[int, Awv]]:
        """Directional sectors plus the quasi-omni as the last candidate."""
        out = [(s.id, s.awv) for s in self.sectors]
        out.append((self.quasi_omni_id, self.quasi_omni))
        return out


def steered_sectors(
    geometry: ArrayGeometry,
    azimuths: Sequence[float] = DEFAULT_AIMS,
    elevations: Sequence[float] = DEFAULT_AIMS,
) -> tuple[Sector, ...]:
    """Steered sector per (azimuth, elevation) grid point, elevation-outer
    order, with ids from 0."""
    aims = [Direction(float(az), float(el)) for el in elevations for az in azimuths]
    return tuple(Sector(sid, aim, steering_phases(geometry, aim)) for sid, aim in enumerate(aims))


def generate_sector_codebook(
    geometry: ArrayGeometry,
    azimuths: Sequence[float] = DEFAULT_AIMS,
    elevations: Sequence[float] = DEFAULT_AIMS,
    quasi_omni: Optional[Awv] = None,
    seed: int = 0,
    n_samples: int = 1000,
    max_iters: int = 40,
) -> Codebook:
    """The :func:`steered_sectors` plus a quasi-omni receive pattern as the
    last candidate (synthesized here unless provided): a headset's sweep
    codebook.  An access point's transmit sweep probes the steered sectors
    alone."""
    if quasi_omni is None:
        quasi_omni = synthesize_quasi_omni(geometry, n_samples=n_samples, seed=seed, max_iters=max_iters)
    return Codebook(geometry, steered_sectors(geometry, azimuths, elevations), quasi_omni)


def _chirp_phases(geometry: ArrayGeometry, alpha: float) -> np.ndarray:
    """Centered quadratic phase ramp; the classic structured start for flat
    phase-only patterns (defocuses the beam instead of steering it)."""
    r = np.arange(geometry.rows) - (geometry.rows - 1) / 2.0
    c = np.arange(geometry.cols) - (geometry.cols - 1) / 2.0
    ph = math.pi * alpha * (
        (r * r / max(geometry.rows, 1))[:, None]
        + (c * c / max(geometry.cols, 1))[None, :]
    )
    return ph.ravel()


def _initial_phase_candidates(geometry: ArrayGeometry, rng: np.random.Generator) -> list[np.ndarray]:
    """Multi-start seeds: all-zero, four random draws, and a chirp-ramp
    heuristic.  Small arrays add jittered chirp variants; the plain chirp's
    own basin is often a few dB short of the best nearby one, and the extra
    descents are cheap below a few hundred elements."""
    n = geometry.n_elements
    starts = [np.zeros(n)]
    for _ in range(4):
        starts.append(rng.uniform(-math.pi, math.pi, size=n))
    starts.append(_chirp_phases(geometry, 1.0))
    if n <= 256:
        for alpha in (0.5, 0.75, 1.5, 2.0):
            starts.append(_chirp_phases(geometry, alpha))
        base = _chirp_phases(geometry, 1.0)
        for _ in range(8):
            starts.append(base + rng.uniform(-math.pi / 6.0, math.pi / 6.0, size=n))
    return starts


def _spread_db(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Gain spread in dB between largest and smallest field magnitudes."""
    return 20.0 * np.log10(np.maximum(hi, _NULL_FIELD)) - 20.0 * np.log10(np.maximum(lo, _NULL_FIELD))


def _gain_ranges_db(fields: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Per-row spread max - min of 20 log10 max(|field|, null floor), dB.

    The floor, log10 and the x20 are monotone, so they are applied to each
    row's largest and smallest magnitude only; the result equals the spread
    of the full per-sample gain row bit for bit.  The spread depends on the
    row only through those two magnitudes, which is also why a trial can be
    scored from the few samples that can hold them (``_candidate_ranges_db``)
    and get the same float.  ``mags`` is a scratch buffer of the same shape
    as ``fields`` and is left holding ``|fields|``.
    """
    np.abs(fields, out=mags)
    return _spread_db(mags.max(axis=1), mags.min(axis=1))


def _candidate_reach(step: np.ndarray, n_elements: int) -> np.ndarray:
    """How far below a row's largest (above its smallest) magnitude a sample
    can sit and still hold an extreme after one +-``step`` trial.

    Changing one element's phase by s moves every sample's field by at most
    d = amplitude * |e^{js} - 1| = amplitude * 2 sin(s/2).  The current
    largest magnitude falls by at most d and any other sample rises by at
    most d, so a sample more than 2d below it cannot overtake it (and the
    same holds at the smallest).  The slack covers rounding: of the
    magnitudes, of the trial products and sums, and of the phases, each a
    few ulps of the largest possible field, n_elements * amplitude =
    sqrt(n_elements).  It trades nothing: it is far below 2d at the 1e-3
    rad stop, and any safe value gives the same weights.
    """
    amplitude = 1.0 / math.sqrt(n_elements)
    slack = 32.0 * np.finfo(float).eps * math.sqrt(n_elements)
    return 2.0 * (amplitude * 2.0 * np.sin(step / 2.0)) + slack


def _near_extremes(mags: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Mask of the samples within ``reach`` (one value per row) of their
    row's largest or smallest magnitude."""
    hi = mags.max(axis=1, keepdims=True)
    lo = mags.min(axis=1, keepdims=True)
    reach = reach[:, None]
    return (mags >= hi - reach) | (mags <= lo + reach)


def _candidate_layout(fields: np.ndarray, near: np.ndarray):
    """The candidates of all rows as one flat run, row after row: their row
    and sample indices, where each row's run starts, and their fields."""
    flat = np.flatnonzero(near)
    n_samples = near.shape[1]
    rows = flat // n_samples
    starts = np.searchsorted(flat, np.arange(len(near)) * n_samples)
    return rows, flat - rows * n_samples, starts, np.take(fields, flat)


def _candidate_ranges_db(layout, delta: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Spread of each trial row ``fields + delta[..., row] * contrib``,
    evaluated at the row's candidates only; a leading axis of ``delta``
    stacks trials.  Each trial value is the same elementwise product and sum
    as in the full row, so when the row's extremes are among its candidates
    the spread equals ``_gain_ranges_db`` of the full row bit for bit."""
    rows, cols, starts, fields = layout
    mags = delta[..., rows] * contrib[cols]
    mags += fields
    mags = np.abs(mags)
    return _spread_db(np.maximum.reduceat(mags, starts, axis=-1), np.minimum.reduceat(mags, starts, axis=-1))


def synthesize_quasi_omni(
    geometry: ArrayGeometry,
    n_samples: int = 1000,
    seed: int = 0,
    max_iters: int = 40,
) -> Awv:
    """Phase-only weights minimizing max-min gain over a fixed sample set.

    Multi-start coordinate descent: each start is refined by per-element
    phase perturbation with a shrinking step (pi/4 initially, halved when a
    full pass finds no improving move, stopped below 1e-3 rad or after
    ``max_iters`` passes).  Deterministic for fixed inputs; ties between
    starts resolve to the lowest start index.

    All starts descend in lockstep: per element, one array pass scores the
    +step and the -step trial of every active start (row), and a start
    leaves the active rows once its step falls below the stop.  A trial is
    scored at its row's candidates only: the samples whose magnitude lies
    within 2d plus a rounding slack of the row's largest or smallest one,
    where d = amplitude * 2 sin(step/2) bounds how far the trial moves any
    sample (``_candidate_reach``), so that no other sample can hold an
    extreme of the trial row.  A row's candidates are picked from its exact
    magnitudes at the start of each pass, after the resync and at the pass's
    step, and re-picked whenever the row moves, so they always describe the
    fields the trial starts from and need no allowance for moves made since;
    the re-pick reads no extra row, as an accepted trial is computed in full
    anyway.

    Each row follows exactly the arithmetic of a descent run on its own:
    +step is tried before -step, so a row that takes +step gets its -step
    trial from its new state, and a trial is accepted only on a strict
    1e-12 dB improvement.  A trial value at a candidate is the same
    elementwise product and sum as in the full row, and the spread depends
    on the row only through its extremes, which are candidates; so the
    candidate spread equals the full-row spread bit for bit and every accept
    decision is that of a full read.  An accepted trial row is computed over
    all samples with the same arithmetic, an improved row is resynced once
    per pass with the same 1-D ``unit @ base`` product, and the final
    spreads come from full rows.  The weights are therefore those of
    full-read descents run one start after another, bit for bit.
    """
    rng = np.random.default_rng(seed)
    directions = sample_directions(n_samples, rng)
    u = np.stack([d.to_unit_vector() for d in directions])
    k = 2.0 * math.pi / geometry.wavelength
    # per-element sample phasors; element phase enters as a scalar multiplier
    base = np.exp(1j * k * (geometry.element_positions() @ u.T))  # (N, M)
    amplitude = 1.0 / math.sqrt(geometry.n_elements)

    # one row per start, compacted to the still-active starts once per pass
    phases = np.array(_initial_phase_candidates(geometry, rng))
    unit = np.exp(1j * phases)
    fields = np.stack([amplitude * (row @ base) for row in unit])
    trial = np.empty_like(fields)
    mags = np.empty(fields.shape)
    current = _gain_ranges_db(fields, mags)
    step = np.full(len(phases), _STEP_INIT)
    start_ids = np.arange(len(phases))
    final_phases = np.empty_like(phases)
    final_range = np.empty(len(phases))

    def take(rows, i, new, delta, contrib):
        # accept the trial: the rows are computed in full, as a lone descent
        # computes them, and their candidates are re-picked from them
        n = np.count_nonzero(rows)
        np.multiply((new - unit[:, i])[rows][:, None], contrib, out=trial[:n])
        np.add(fields[rows], trial[:n], out=trial[:n])
        current[rows] = _gain_ranges_db(trial[:n], mags[:n])
        phases[rows, i] += delta[rows]
        unit[rows, i] = new[rows]
        fields[rows] = trial[:n]
        near[rows] = _near_extremes(mags[:n], reach[rows])
        improved[rows] = True

    for n_pass in range(max_iters + 1):
        # retire the starts whose step fell below the stop, and all of them
        # once the pass budget is spent
        done = (step < _STEP_MIN) | (n_pass == max_iters)
        if done.any():
            final_phases[start_ids[done]] = phases[done]
            final_range[start_ids[done]] = current[done]
            keep = ~done
            phases, unit, fields, current, step, start_ids = (
                a[keep] for a in (phases, unit, fields, current, step, start_ids)
            )
        if start_ids.size == 0:
            break
        n_active = start_ids.size
        improved = np.zeros(n_active, dtype=bool)
        signed = np.stack((step, -step))
        reach = _candidate_reach(step, geometry.n_elements)
        near = _near_extremes(np.abs(fields, out=mags[:n_active]), reach)
        layout = _candidate_layout(fields, near)
        for i in range(phases.shape[1]):
            contrib = amplitude * base[i]
            new = np.exp(1j * (phases[:, i] + signed))
            r = _candidate_ranges_db(layout, new - unit[:, i], contrib)
            # strict margin so rounding noise cannot masquerade as progress
            better = r < current - 1e-12
            if not better.any():
                continue
            plus = better[0]
            if plus.any():
                take(plus, i, new[0], signed[0], contrib)
                # these rows try -step from where +step took them
                new[1, plus] = np.exp(1j * (phases[plus, i] + signed[1, plus]))
                r[1, plus] = _candidate_ranges_db(
                    _candidate_layout(fields[plus], near[plus]), new[1, plus] - unit[plus, i], contrib
                )
                better[1] = r[1] < current - 1e-12
            minus = better[1]
            if minus.any():
                take(minus, i, new[1], signed[1], contrib)
            layout = _candidate_layout(fields, near)
        step[~improved] *= 0.5
        # incremental updates accumulate error; resync once per pass
        for s in np.flatnonzero(improved):
            fields[s] = amplitude * (unit[s] @ base)
        current[improved] = _gain_ranges_db(fields[improved], mags[: improved.sum()])

    return Awv(final_phases[np.argmin(final_range)])


@lru_cache(maxsize=16)
def cached_quasi_omni(
    rows: int,
    cols: int,
    spacing_wavelengths: float,
    carrier_hz: float,
    n_samples: int,
    seed: int,
    max_iters: int,
) -> Awv:
    """Memoized synthesis; large arrays are expensive and weights are reused
    across simulator instances with identical parameters."""
    geometry = ArrayGeometry(rows, cols, spacing_wavelengths, carrier_hz)
    return synthesize_quasi_omni(geometry, n_samples=n_samples, seed=seed, max_iters=max_iters)


def write_codebook(path, codebook: Codebook) -> None:
    """Plain-text codebook: header line, one SECTOR block per sector in id
    order, then a single QUASIOMNI block.  Phases are written with full
    precision so a read-back reproduces them exactly."""
    g = codebook.geometry
    lines = [f"{g.rows} {g.cols} {g.spacing_wavelengths:.17g} {g.carrier_hz:.17g}"]
    for s in sorted(codebook.sectors, key=lambda s: s.id):
        lines.append(f"SECTOR {s.id} {s.aim.azimuth_deg:.17g} {s.aim.elevation_deg:.17g}")
        lines.extend(_phase_lines(g, s.awv))
    lines.append("QUASIOMNI")
    lines.extend(_phase_lines(g, codebook.quasi_omni))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _phase_lines(geometry: ArrayGeometry, awv: Awv) -> list[str]:
    grid = awv.phases.reshape(geometry.rows, geometry.cols)
    return [" ".join(f"{p:.17g}" for p in row) for row in grid]


def read_codebook(path) -> Codebook:
    """Parse a codebook file; malformed input raises CodebookFormatError
    naming the offending line."""
    with open(path) as fh:
        try:
            raw = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise CodebookFormatError(f"{path}: not a text codebook file ({exc.reason})") from None
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise CodebookFormatError("line 1: empty codebook file")

    ln, header = lines[0]
    parts = header.split()
    if len(parts) != 4:
        raise CodebookFormatError(f"line {ln}: header must be 'rows cols spacing freq'")
    try:
        geometry = ArrayGeometry(int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3]))
    except ValueError as exc:
        raise CodebookFormatError(f"line {ln}: bad header value ({exc})")

    sectors: list[Sector] = []
    quasi_omni: Optional[Awv] = None
    idx = 1
    while idx < len(lines):
        ln, line = lines[idx]
        fields = line.split()
        if fields[0] == "SECTOR":
            if quasi_omni is not None:
                raise CodebookFormatError(f"line {ln}: SECTOR after QUASIOMNI block")
            if len(fields) != 4:
                raise CodebookFormatError(f"line {ln}: SECTOR needs 'SECTOR id aim_az aim_el'")
            try:
                sid = int(fields[1])
                aim = Direction(float(fields[2]), float(fields[3]))
            except ValueError as exc:
                raise CodebookFormatError(f"line {ln}: bad sector header ({exc})")
            if not (math.isfinite(aim.azimuth_deg) and math.isfinite(aim.elevation_deg)):
                raise CodebookFormatError(f"line {ln}: sector aim must be finite")
            phases, idx = _read_phase_block(lines, idx + 1, geometry)
            sectors.append(Sector(sid, aim, Awv(phases)))
        elif fields[0] == "QUASIOMNI":
            if quasi_omni is not None:
                raise CodebookFormatError(f"line {ln}: duplicate QUASIOMNI block")
            if len(fields) != 1:
                raise CodebookFormatError(f"line {ln}: QUASIOMNI takes no arguments")
            phases, idx = _read_phase_block(lines, idx + 1, geometry)
            quasi_omni = Awv(phases)
        else:
            raise CodebookFormatError(f"line {ln}: expected SECTOR or QUASIOMNI, got {fields[0]!r}")
    if quasi_omni is None:
        raise CodebookFormatError(f"line {lines[-1][0]}: missing QUASIOMNI block")
    try:
        return Codebook(geometry, tuple(sectors), quasi_omni)
    except ValueError as exc:
        raise CodebookFormatError(f"line {lines[-1][0]}: {exc}")


def _read_phase_block(lines, idx, geometry: ArrayGeometry):
    phases = np.empty((geometry.rows, geometry.cols))
    for r in range(geometry.rows):
        if idx >= len(lines):
            raise CodebookFormatError(f"line {lines[-1][0]}: truncated phase block ({r} of {geometry.rows} rows)")
        ln, line = lines[idx]
        values = line.split()
        if len(values) != geometry.cols:
            raise CodebookFormatError(f"line {ln}: expected {geometry.cols} phases, got {len(values)}")
        try:
            phases[r] = [float(v) for v in values]
        except ValueError as exc:
            raise CodebookFormatError(f"line {ln}: bad phase value ({exc})")
        if not np.all(np.isfinite(phases[r])):
            raise CodebookFormatError(f"line {ln}: phases must be finite")
        idx += 1
    return phases.ravel(), idx
