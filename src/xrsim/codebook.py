"""Sector codebooks and quasi-omni weight synthesis.

A codebook holds directional sectors (steered beams on a fixed aim grid) plus
one quasi-omni AWV used for sweep listening and as the omnidirectional
fallback sector.  The quasi-omni weights are synthesized by minimizing the
spread between the strongest and weakest gain over a fixed set of random
directions, with phase-only control and fixed amplitudes.
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


def generate_sector_codebook(
    geometry: ArrayGeometry,
    azimuths: Sequence[float] = DEFAULT_AIMS,
    elevations: Sequence[float] = DEFAULT_AIMS,
    quasi_omni: Optional[Awv] = None,
    seed: int = 0,
    n_samples: int = 1000,
    max_iters: int = 40,
) -> Codebook:
    """Steered sector per (azimuth, elevation) grid point, elevation-outer
    order, plus a quasi-omni AWV (synthesized here unless provided)."""
    sectors = []
    sid = 0
    for el in elevations:
        for az in azimuths:
            aim = Direction(float(az), float(el))
            sectors.append(Sector(sid, aim, steering_phases(geometry, aim)))
            sid += 1
    if quasi_omni is None:
        quasi_omni = synthesize_quasi_omni(geometry, n_samples=n_samples, seed=seed, max_iters=max_iters)
    return Codebook(geometry, tuple(sectors), quasi_omni)


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


def _gain_ranges_db(fields: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Per-row spread max - min of 20 log10 max(|field|, null floor), dB.

    The floor, log10 and the x20 are monotone, so they are applied to each
    row's largest and smallest magnitude only; the result equals the spread
    of the full per-sample gain row bit for bit.  ``mags`` is a scratch
    buffer of the same shape as ``fields``.
    """
    np.abs(fields, out=mags)
    hi = 20.0 * np.log10(np.maximum(mags.max(axis=1), _NULL_FIELD))
    lo = 20.0 * np.log10(np.maximum(mags.min(axis=1), _NULL_FIELD))
    return hi - lo


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

    All starts descend in lockstep: each (element, +-step) trial is one
    array pass over the (active starts x samples) field rows, and a start
    leaves the active rows once its step falls below the stop.  Each row
    follows exactly the arithmetic of a descent run on its own: +step is
    tried before -step and accepted only on a strict 1e-12 dB improvement,
    an improved row is resynced once per pass with the same 1-D ``unit @
    base`` product, and the spread is read from each row's extreme
    magnitudes (see ``_gain_ranges_db``).  The weights are therefore those
    of one-start-after-another descents, bit for bit.
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
        trial_rows, mag_rows = trial[:n_active], mags[:n_active]
        improved = np.zeros(n_active, dtype=bool)
        for i in range(phases.shape[1]):
            contrib = amplitude * base[i]
            for delta in (step, -step):
                new = np.exp(1j * (phases[:, i] + delta))
                np.multiply((new - unit[:, i])[:, None], contrib, out=trial_rows)
                np.add(fields, trial_rows, out=trial_rows)
                r = _gain_ranges_db(trial_rows, mag_rows)
                # strict margin so rounding noise cannot masquerade as progress
                accept = r < current - 1e-12
                if accept.any():
                    phases[accept, i] += delta[accept]
                    unit[accept, i] = new[accept]
                    fields[accept] = trial_rows[accept]
                    current[accept] = r[accept]
                    improved |= accept
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
        raw = fh.read().splitlines()
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
