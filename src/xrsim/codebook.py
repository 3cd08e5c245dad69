"""Sector codebooks and quasi-omni weight synthesis.

A codebook is the tuple of weight vectors a sweep probes, indexed by sector
id.  The directional sectors are steered beams on a fixed aim grid
(:func:`steered_sectors`); they are all an access point's transmit sweep
probes.  A headset's codebook adds one quasi-omni AWV, a receive pattern,
as its last candidate (:func:`generate_sector_codebook`).  The quasi-omni
weights are synthesized by minimizing the spread between the strongest and
weakest gain over a fixed set of random directions, with phase-only control
and fixed amplitudes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .antenna import ArrayGeometry, Awv, sample_directions, steering_phases, _NULL_FIELD
from .geometry import unit_vector

# default aim grid, degrees, used on both azimuth and elevation
DEFAULT_AIMS = (-50.0, -30.0, -10.0, 10.0, 30.0, 50.0)

_STEP_MIN = 1e-3  # rad, coordinate-descent stop
_STEP_INIT = math.pi / 4.0

# the simulator's quasi-omni synthesis budget (cached_quasi_omni): sample
# directions and their seed, and passes, fewer for large arrays
QO_SAMPLES = 1000
QO_SEED = 7
QO_ITERS = 40
QO_ITERS_LARGE = 6  # for arrays of 1024 elements or more

# entries of a headset's sweep codebook: the steered sectors plus the
# quasi-omni pattern (generate_sector_codebook)
CODEBOOK_SIZE = len(DEFAULT_AIMS) ** 2 + 1


def steered_sectors(geometry: ArrayGeometry) -> tuple[Awv, ...]:
    """Steered sector per (azimuth, elevation) point of the ``DEFAULT_AIMS``
    grid, elevation-outer, so that a sector's index is its id."""
    return tuple(steering_phases(geometry, unit_vector(az, el)) for el in DEFAULT_AIMS for az in DEFAULT_AIMS)


def generate_sector_codebook(geometry: ArrayGeometry, quasi_omni: Awv) -> tuple[Awv, ...]:
    """A headset's sweep codebook: the :func:`steered_sectors` plus a
    quasi-omni receive pattern as the last candidate.  An access point's
    transmit sweep probes the steered sectors alone."""
    return steered_sectors(geometry) + (quasi_omni,)


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
    """Gain spread in dB between largest and smallest field magnitudes.

    The floor, log10 and the x20 are monotone, so applying them to a row's
    largest and smallest magnitude only gives the spread of the row's full
    per-sample gains bit for bit.  The spread depends on the row only
    through those two magnitudes, which is why a trial can be scored from
    the few samples that can hold them (its candidates) and get the same
    float.
    """
    return 20.0 * np.log10(np.maximum(hi, _NULL_FIELD)) - 20.0 * np.log10(np.maximum(lo, _NULL_FIELD))


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


def _spread_and_candidates(mags: np.ndarray, reach: np.ndarray):
    """Each row's gain spread (``_spread_db`` of its largest and smallest
    magnitude) and the mask of its candidates: the samples within ``reach``
    (one value per row) of its largest or smallest magnitude."""
    hi = mags.max(axis=1)
    lo = mags.min(axis=1)
    near = (mags >= (hi - reach)[:, None]) | (mags <= (lo + reach)[:, None])
    return _spread_db(hi, lo), near


def _window_layout(flat: np.ndarray, bounds: np.ndarray, first: np.ndarray, widths: np.ndarray):
    """Flat layout of one array pass.

    Row s's candidates are ``flat[bounds[s]:bounds[s + 1]]`` (flat sample
    indices, row after row), and it scores them at the ``widths[s]``
    elements from element ``first[s]``: one trial group per (row, element),
    row after row, each holding the row's candidates.  Returns each group's
    row and element, each row's first group, where each group's values
    start and how many there are, and the candidate of each value.  A row
    that scores anything has at least one candidate, its largest sample, so
    no group is empty.
    """
    owner = np.repeat(np.arange(len(widths)), widths)
    group_first = np.cumsum(widths) - widths
    elements = np.arange(len(owner)) + np.repeat(first - group_first, widths)
    lens = np.diff(bounds)[owner]
    runs = np.cumsum(lens) - lens
    cand = flat[np.arange(runs[-1] + lens[-1]) + np.repeat(bounds[owner] - runs, lens)]
    return owner, elements, group_first, runs, lens, cand


def _window_ranges_db(runs, lens, values, delta, contrib) -> np.ndarray:
    """Spread of each trial group ``values + delta[..., group] * contrib``
    over the group's ``lens`` values from ``runs``; a leading axis of
    ``delta`` stacks trials.  Each trial value is the same elementwise
    product and sum as in the full row, so when the row's extremes are among
    the group's values the spread equals that of the full row bit for bit."""
    mags = np.repeat(delta, lens, axis=-1)
    mags *= contrib
    mags += values
    mags = np.abs(mags)
    return _spread_db(np.maximum.reduceat(mags, runs, axis=-1), np.minimum.reduceat(mags, runs, axis=-1))


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
    ``max_iters`` passes).  A pass tries +step, then -step from wherever
    +step left the start, at each element in turn, and accepts a trial only
    on a strict 1e-12 dB improvement.  Deterministic for fixed inputs; ties
    between starts resolve to the lowest start index.

    Each start (row) descends on its own cursor, the next trial of its pass.
    In one array pass every running start scores both trials of a window of
    its next elements, all from its current state, at its candidates only:
    the samples whose magnitude lies within 2d plus a rounding slack of the
    row's largest or smallest one, where d = amplitude * 2 sin(step/2)
    bounds how far one trial moves any sample (``_candidate_reach``), so no
    other sample can hold an extreme of the trial row.  All windows are
    equally long, the most elements (at least one) for which the array pass
    holds at most starts x ``n_samples`` trial values over both signs: the
    size of one full-read trial pass over every start's row.  A window also
    ends at its start's pass end.  Equal windows keep the starts abreast, so
    a start with many candidates does not need many more array passes than
    the others.

    The start then takes the window's first improving trial and drops the
    rest.  This makes the accept decisions of the descent run element by
    element: up to that trial the start has not moved, so each trial before
    it is the one the sequential descent makes, from the same state, and is
    rejected there too; the first improving trial is accepted there too.
    The trials after it were scored from a state the descent has left, so
    the cursor moves to the trial after the taken one (the -step of the same
    element after a +step) and the next window starts there.  A window with
    no improving trial moves the cursor past its last element.  A trial
    value at a candidate is the same elementwise product and sum as in the
    full row, and the spread depends on the row only through its extremes,
    which are candidates, so the window spread equals the full-read spread
    bit for bit.

    The taken trials of all starts, at their different elements, are
    computed over all samples in one batched row update with the full-read
    arithmetic, and the start's candidates are re-picked from the new row
    (the accepted row is computed in full anyway).  A start whose cursor
    reaches the end of its pass halves its step if it did not move, or else
    resyncs its row with the same 1-D ``unit @ base`` product; it then
    retires (below the stop step or out of passes) or re-picks its
    candidates at its new step and starts its next pass, whatever the other
    starts are doing.  The weights are therefore those of full-read descents
    run one start after another, bit for bit.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {max_iters}")
    rng = np.random.default_rng(seed)
    u = sample_directions(n_samples, rng)
    k = 2.0 * math.pi / geometry.wavelength
    # per-element sample phasors; element phase enters as a scalar multiplier
    base = 1j * k * (geometry.element_positions() @ u.T)  # (N, M)
    np.exp(base, out=base)
    base_flat = base.ravel()
    amplitude = 1.0 / math.sqrt(geometry.n_elements)

    # one row per start for the whole descent; a retired row has no
    # candidates and its cursor stays at the end, so it scores nothing
    phases = np.array(_initial_phase_candidates(geometry, rng))
    n_starts, n_elements = phases.shape
    phases_flat = phases.ravel()
    unit = np.exp(1j * phases)
    unit_flat = unit.ravel()
    fields = np.stack([amplitude * (row @ base) for row in unit])
    step = np.full(n_starts, _STEP_INIT)
    signed = np.stack((step, -step))
    reach = _candidate_reach(step, n_elements)
    current, near = _spread_and_candidates(np.abs(fields), reach)
    passes = np.zeros(n_starts, dtype=int)
    improved = np.zeros(n_starts, dtype=bool)
    running = np.full(n_starts, max_iters > 0)
    near[~running] = False
    row_bounds = np.arange(n_starts + 1) * n_samples
    end = 2 * n_elements
    # the next trial of each start's pass: 2 * element, plus 1 for -step
    cursor = np.where(running, 0, end)

    while running.any():
        first = cursor >> 1
        flat = np.flatnonzero(near)
        bounds = np.searchsorted(flat, row_bounds)
        widths = np.minimum(n_elements - first, max(n_starts * n_samples // (2 * flat.size), 1))
        owner, elements, group_first, runs, lens, cand = _window_layout(flat, bounds, first, widths)
        contrib = np.take(base_flat, cand + np.repeat((elements - owner) * n_samples, lens))
        np.multiply(amplitude, contrib, out=contrib)
        at = owner * n_elements + elements
        trial_step = signed[:, owner]
        new = np.exp(1j * (np.take(phases_flat, at) + trial_step))
        delta = new - np.take(unit_flat, at)
        r = _window_ranges_db(runs, lens, np.take(fields, cand), delta, contrib)
        # strict margin so rounding noise cannot masquerade as progress
        better = r < (current - 1e-12)[owner]
        better[0, group_first[cursor % 2 == 1]] = False  # +step already tried
        cursor = 2 * (first + widths)
        # each start takes its first improving trial, in trial order
        hits = np.flatnonzero(better.T)
        if hits.size:
            rows = owner[hits >> 1]
            lead = np.ones(hits.size, dtype=bool)
            lead[1:] = rows[1:] != rows[:-1]
            s, hits = rows[lead], hits[lead]
            g, sign = hits >> 1, hits & 1
            full = np.multiply(delta[sign, g][:, None], amplitude * base[elements[g]])
            np.add(fields[s], full, out=full)
            current[s], near[s] = _spread_and_candidates(np.abs(full), reach[s])
            phases_flat[at[g]] += trial_step[sign, g]
            unit_flat[at[g]] = new[sign, g]
            fields[s] = full
            improved[s] = True
            cursor[s] = 2 * elements[g] + sign + 1
        ended = np.flatnonzero(running & (cursor == end))
        if ended.size:
            moved = improved[ended]
            step[ended[~moved]] *= 0.5
            signed = np.stack((step, -step))
            # incremental updates accumulate error; resync once per pass
            for s in ended[moved]:
                fields[s] = amplitude * (unit[s] @ base)
            reach[ended] = _candidate_reach(step[ended], n_elements)
            current[ended], near[ended] = _spread_and_candidates(np.abs(fields[ended]), reach[ended])
            passes[ended] += 1
            improved[ended] = False
            retired = ended[(step[ended] < _STEP_MIN) | (passes[ended] == max_iters)]
            running[retired] = False
            near[retired] = False
            cursor[ended] = np.where(running[ended], 0, end)

    return Awv(phases[np.argmin(current)])


@lru_cache(maxsize=16)
def cached_quasi_omni(geometry: ArrayGeometry) -> Awv:
    """The quasi-omni pattern of ``geometry`` at the simulator's synthesis
    budget: :data:`QO_SAMPLES` directions drawn from :data:`QO_SEED`, and
    :data:`QO_ITERS` passes, or :data:`QO_ITERS_LARGE` from 1024 elements
    up.  Memoized, because large arrays are expensive and simulators of one
    geometry share the weights."""
    iters = QO_ITERS_LARGE if geometry.n_elements >= 1024 else QO_ITERS
    return synthesize_quasi_omni(geometry, n_samples=QO_SAMPLES, seed=QO_SEED, max_iters=iters)
