"""Sector codebooks and quasi-omni synthesis."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from xrsim.antenna import _NULL_FIELD, ArrayGeometry, Awv, AwvEvaluator, gain_db, sample_directions, steering_phases
from xrsim.codebook import (
    _STEP_INIT,
    _STEP_MIN,
    DEFAULT_AIMS,
    _candidate_reach,
    _initial_phase_candidates,
    _spread_and_candidates,
    _window_layout,
    _window_ranges_db,
    cached_quasi_omni,
    generate_sector_codebook,
    steered_sectors,
    synthesize_quasi_omni,
)
from xrsim.geometry import unit_vector


def sampled_range_db(geometry, awv, seed, n=1000):
    """Gain spread over the synthesis sample set for (seed, n)."""
    u = sample_directions(n, np.random.default_rng(seed))
    g = AwvEvaluator(geometry, awv).gains_db(u)
    return float(g.max() - g.min())


def shape_id(shape):
    return "%dx%d" % shape


def full_read_descent(geometry, n_samples, seed, max_iters, log=None):
    """Reference quasi-omni synthesis: the lockstep descent that reads every
    sample of every trial row.  ``synthesize_quasi_omni`` must return its
    weights bit for bit.  A ``log`` dict receives each start's number of
    passes (``"passes"``) and the set of elements it moved (``"moved"``)."""

    def ranges_db(fields):
        mags = np.abs(fields)
        hi = 20.0 * np.log10(np.maximum(mags.max(axis=1), _NULL_FIELD))
        lo = 20.0 * np.log10(np.maximum(mags.min(axis=1), _NULL_FIELD))
        return hi - lo

    rng = np.random.default_rng(seed)
    u = sample_directions(n_samples, rng)
    k = 2.0 * math.pi / geometry.wavelength
    base = np.exp(1j * k * (geometry.element_positions() @ u.T))
    amplitude = 1.0 / math.sqrt(geometry.n_elements)

    phases = np.array(_initial_phase_candidates(geometry, rng))
    unit = np.exp(1j * phases)
    fields = np.stack([amplitude * (row @ base) for row in unit])
    current = ranges_db(fields)
    step = np.full(len(phases), _STEP_INIT)
    start_ids = np.arange(len(phases))
    final_phases = np.empty_like(phases)
    final_range = np.empty(len(phases))
    passes = np.zeros(len(phases), dtype=int)
    moved = [set() for _ in phases]

    for n_pass in range(max_iters + 1):
        done = (step < _STEP_MIN) | (n_pass == max_iters)
        if done.any():
            final_phases[start_ids[done]] = phases[done]
            final_range[start_ids[done]] = current[done]
            passes[start_ids[done]] = n_pass
            keep = ~done
            phases, unit, fields, current, step, start_ids = (
                a[keep] for a in (phases, unit, fields, current, step, start_ids)
            )
        if start_ids.size == 0:
            break
        improved = np.zeros(start_ids.size, dtype=bool)
        for i in range(phases.shape[1]):
            contrib = amplitude * base[i]
            for delta in (step, -step):
                new = np.exp(1j * (phases[:, i] + delta))
                trial = fields + (new - unit[:, i])[:, None] * contrib
                r = ranges_db(trial)
                accept = r < current - 1e-12
                phases[accept, i] += delta[accept]
                unit[accept, i] = new[accept]
                fields[accept] = trial[accept]
                current[accept] = r[accept]
                improved |= accept
                for sid in start_ids[accept]:
                    moved[sid].add(i)
        step[~improved] *= 0.5
        for s in np.flatnonzero(improved):
            fields[s] = amplitude * (unit[s] @ base)
        current[improved] = ranges_db(fields[improved])

    if log is not None:
        log.update(passes=passes, moved=moved)
    return Awv(final_phases[np.argmin(final_range)])


# the sector grid in id order: elevation-outer, azimuth varies fastest
AIMS = [unit_vector(az, el) for el in DEFAULT_AIMS for az in DEFAULT_AIMS]


@pytest.fixture(scope="module")
def ap_qo():
    # the 8x8, seed 7, 1000-sample, 40-pass synthesis
    return synthesize_quasi_omni(ArrayGeometry(8, 8), seed=7)


@pytest.fixture(scope="module")
def ap_book(ap_qo):
    return generate_sector_codebook(ArrayGeometry(8, 8), ap_qo)


class TestSectorCodebook:
    def test_default_book_shape(self, ap_book, ap_qo):
        assert len(ap_book) == 37
        assert ap_book[36] is ap_qo
        assert len(steered_sectors(ArrayGeometry(8, 8))) == 36

    def test_aim_grid_order(self):
        # elevation-outer: azimuth varies fastest
        assert np.array_equal(AIMS[0], unit_vector(-50.0, -50.0))
        assert np.array_equal(AIMS[1], unit_vector(-30.0, -50.0))
        assert np.array_equal(AIMS[6], unit_vector(-50.0, -30.0))
        assert np.array_equal(AIMS[35], unit_vector(50.0, 50.0))
        assert DEFAULT_AIMS == (-50.0, -30.0, -10.0, 10.0, 30.0, 50.0)

    def test_single_broadside_sector(self):
        awv = steering_phases(ArrayGeometry(4, 4), unit_vector(0.0, 0.0))
        assert np.allclose(awv.phases, 0.0)

    def test_sectors_are_steering_vectors(self, ap_book):
        g = ArrayGeometry(8, 8)
        for sid in range(36):
            assert np.allclose(ap_book[sid].phases, steering_phases(g, AIMS[sid]).phases, atol=1e-12)

    def test_own_aim_dominates_every_other_sector(self, ap_book):
        g = ArrayGeometry(8, 8)
        sectors = ap_book[:36]
        for awv, aim in zip(sectors, AIMS):
            own = gain_db(g, awv, aim)
            for other in sectors:
                assert own >= gain_db(g, other, aim) - 1e-9

    def test_read_back_phases_take_the_lattice(self, ap_book, ap_qo):
        # bare phases carry no blocks: a steered sector rebuilt from its
        # phases is evaluated by the lattice product, to the same gains
        g = ArrayGeometry(8, 8)
        u = sample_directions(25, np.random.default_rng(2))
        for orig in ap_book[:36]:
            got = Awv(orig.phases)
            assert orig.blocks and not got.blocks
            assert np.array_equal(got.phases, orig.phases)
            lattice = AwvEvaluator(g, got)
            assert lattice._w is not None and AwvEvaluator(g, orig)._w is None
            assert np.max(np.abs(lattice.gains_db(u) - AwvEvaluator(g, orig).gains_db(u))) <= 1e-9
        for qo in (ap_qo, Awv(ap_qo.phases)):
            assert not qo.blocks and AwvEvaluator(g, qo)._w is not None


class TestQuasiOmni:
    def test_single_element_is_flat(self):
        awv = synthesize_quasi_omni(ArrayGeometry(1, 1), n_samples=100, seed=0, max_iters=5)
        assert sampled_range_db(ArrayGeometry(1, 1), awv, 0, 100) == pytest.approx(0.0, abs=1e-12)

    def test_beats_zero_phase_on_its_own_samples(self):
        g = ArrayGeometry(8, 8)
        opt = synthesize_quasi_omni(g, n_samples=1000, seed=0, max_iters=40)
        assert sampled_range_db(g, opt, 0) < sampled_range_db(g, Awv(np.zeros(64)), 0)

    def test_desk_scale_quality_gates(self, ap_qo):
        # artifact gates: optimized spread stays under 15 dB, the unshaped
        # array is far worse
        g = ArrayGeometry(8, 8)
        opt = ap_qo
        assert sampled_range_db(g, opt, 7) <= 15.0
        assert sampled_range_db(g, Awv(np.zeros(64)), 7) >= 25.0

    def test_returned_range_beats_every_start(self):
        g = ArrayGeometry(4, 4)
        for seed in range(10):
            opt = synthesize_quasi_omni(g, n_samples=300, seed=seed, max_iters=10)
            got = sampled_range_db(g, opt, seed, 300)
            rng = np.random.default_rng(seed)
            sample_directions(300, rng)  # advance the stream as synthesis does
            for start in _initial_phase_candidates(g, rng):
                assert got <= sampled_range_db(g, Awv(start), seed, 300) + 1e-9

    def test_two_element_brute_force_floor(self):
        # single relative phase covers the whole design space, so a fine scan
        # lower-bounds anything the optimizer can return
        g = ArrayGeometry(2, 1)
        seed = 0
        u = sample_directions(1000, np.random.default_rng(seed))
        base = np.exp(1j * (2 * math.pi / g.wavelength) * (g.element_positions() @ u.T))

        def scan_range(rel):
            f = np.abs(base[0] + base[1] * np.exp(1j * rel)) ** 2
            return 10.0 * math.log10(f.max() / max(f.min(), 1e-30))

        grid = np.arange(0.0, 2.0 * math.pi, 0.001)
        scans = np.array([scan_range(r) for r in grid])
        assert scans.min() == pytest.approx(38.4946, abs=0.01)
        assert grid[scans.argmin()] == pytest.approx(1.6390, abs=0.001)

        opt = synthesize_quasi_omni(g, n_samples=1000, seed=seed, max_iters=40)
        rel = float(opt.phases[1] - opt.phases[0]) % (2.0 * math.pi)
        got = scan_range(rel)
        assert got >= scans.min() - 1e-9
        # no worse than the trivial all-zero weights
        assert got <= scan_range(0.0) + 1e-9

    def test_deterministic(self):
        g = ArrayGeometry(4, 4)
        a = synthesize_quasi_omni(g, n_samples=200, seed=3, max_iters=8)
        b = synthesize_quasi_omni(g, n_samples=200, seed=3, max_iters=8)
        assert np.array_equal(a.phases, b.phases)

    # SHA-256 of the returned phase bytes.  Synthesis speed-ups must return
    # these weights bit for bit: the default AP pattern, a non-square array,
    # a pass budget that runs out, a single element, and the 64x64 headset
    # pattern (through the cache, shared with tests/test_covrage.py).
    WEIGHT_DIGESTS = {
        "8x8_default": (
            lambda: synthesize_quasi_omni(ArrayGeometry(8, 8), n_samples=1000, seed=7, max_iters=40),
            "de262cb1cbc98b0b4ab32427d81e038e54afff4665a42c13a6597239bdc53c5d",
        ),
        "4x16": (
            lambda: synthesize_quasi_omni(ArrayGeometry(4, 16), seed=5),
            "af3abfc1a45dfd2ab194307183a98ce73ef66e0b7dd89c08e37590cb2b16020b",
        ),
        "8x8_budget": (
            lambda: synthesize_quasi_omni(ArrayGeometry(8, 8), n_samples=300, seed=3, max_iters=10),
            "79e74df43e552a503d445df0f7d5a51b0ad4079c4bdec314c1a6bf33185b2042",
        ),
        "1x1": (
            lambda: synthesize_quasi_omni(ArrayGeometry(1, 1)),
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        ),
        "64x64_cached": (
            lambda: cached_quasi_omni(ArrayGeometry(64, 64)),
            "fe3f17f2bd1247dd91e4ed27dac6671635f9a1eba0c28166cc45875af2a443f6",
        ),
    }

    @pytest.mark.parametrize("name", sorted(WEIGHT_DIGESTS))
    def test_weight_digest(self, name):
        synthesize, want = self.WEIGHT_DIGESTS[name]
        assert hashlib.sha256(synthesize().phases.tobytes()).hexdigest() == want

    @pytest.mark.parametrize("name, value", [("max_iters", -1), ("n_samples", 0)])
    def test_rejects_an_empty_budget_by_name(self, name, value):
        # a negative pass budget would return unwritten weights, and no
        # samples leave no spread to minimize
        with pytest.raises(ValueError, match=name):
            synthesize_quasi_omni(ArrayGeometry(2, 2), **{name: value})

    def test_cached_variant_matches_and_memoizes(self):
        # keyed by the geometry's value: an equal geometry is a hit
        a = cached_quasi_omni(ArrayGeometry(4, 4))
        b = cached_quasi_omni(ArrayGeometry(4, 4))
        assert a is b
        direct = synthesize_quasi_omni(ArrayGeometry(4, 4), n_samples=1000, seed=7, max_iters=40)
        assert np.array_equal(a.phases, direct.phases)


class TestCandidateDescent:
    """Synthesis scores each trial at its candidate samples only; these
    tests hold it to the full-read descent and check the candidate bound on
    its own."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 7), (3, 5), (4, 4), (8, 8)], ids=shape_id)
    @pytest.mark.parametrize("n_samples", [1, 2, 37, 300])
    def test_matches_the_full_read_descent(self, shape, n_samples):
        # 1x1 and one-sample runs make every sample a candidate
        g = ArrayGeometry(*shape)
        for seed in range(4):
            for max_iters in (0, 1, 10):
                got = synthesize_quasi_omni(g, n_samples=n_samples, seed=seed, max_iters=max_iters)
                want = full_read_descent(g, n_samples, seed, max_iters)
                assert np.array_equal(got.phases, want.phases), (seed, max_iters)

    @pytest.mark.parametrize("shape", [(1, 7), (3, 5), (4, 4), (2, 9)], ids=shape_id)
    def test_matches_ragged_full_read_descents(self, shape):
        # a 40-pass budget lets the starts reach the stop step after
        # different numbers of passes and move at different elements, so
        # their cursors drift apart
        g = ArrayGeometry(*shape)
        for seed in range(2):
            log = {}
            want = full_read_descent(g, 37, seed, 40, log)
            assert len(set(log["passes"])) > 1, seed
            assert len({frozenset(m) for m in log["moved"]}) > 1, seed
            got = synthesize_quasi_omni(g, n_samples=37, seed=seed, max_iters=40)
            assert np.array_equal(got.phases, want.phases), seed

    def test_working_set_stays_below_the_phasor_table(self):
        # an array pass holds at most starts x n_samples trial values, so the
        # peak is building the (N, M) sample phasor table (its real-valued
        # phases beside it), not the descent
        g = ArrayGeometry(32, 32)
        table_bytes = g.n_elements * 1000 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            synthesize_quasi_omni(g, n_samples=1000, seed=0, max_iters=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * table_bytes, peak / table_bytes

    @staticmethod
    def fields_of(geometry, phases, n_samples, seed):
        u = sample_directions(n_samples, np.random.default_rng(seed))
        base = np.exp(1j * (2.0 * math.pi / geometry.wavelength) * (geometry.element_positions() @ u.T))
        amplitude = 1.0 / math.sqrt(geometry.n_elements)
        return amplitude * np.exp(1j * phases) @ base, amplitude * base

    # from the first step down to the stop, and a synthesized pattern whose
    # flat gain puts many samples close to both extremes
    STEPS = [_STEP_INIT * 0.5**k for k in range(11)] + [_STEP_MIN, 0.3, 0.05, 2e-3]

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 5), (8, 8)], ids=shape_id)
    def test_every_trial_extreme_is_a_candidate(self, shape):
        g = ArrayGeometry(*shape)
        rng = np.random.default_rng(sum(shape))
        phases = rng.uniform(-math.pi, math.pi, size=(6, g.n_elements))
        if shape == (8, 8):
            phases[0] = synthesize_quasi_omni(g, n_samples=300, seed=2, max_iters=10).phases
        fields, contribs = self.fields_of(g, phases, 300, 2)
        mags = np.abs(fields)
        unit = np.exp(1j * phases)
        rows = np.arange(len(fields))
        for step in self.STEPS:
            reach = _candidate_reach(np.full(len(fields), step), g.n_elements)
            near = _spread_and_candidates(mags, reach)[1]
            # one window per row over all of its elements
            flat = np.flatnonzero(near)
            bounds = np.searchsorted(flat, np.arange(len(fields) + 1) * 300)
            owner, elements, _, runs, lens, cand = _window_layout(
                flat, bounds, np.zeros(len(fields), dtype=int), np.full(len(fields), g.n_elements)
            )
            signed = np.array([[step], [-step]])
            window_delta = np.exp(1j * (phases[owner, elements] + signed)) - unit[owner, elements]
            window_contrib = contribs[np.repeat(elements, lens), cand % 300]
            got = _window_ranges_db(runs, lens, np.take(fields, cand), window_delta, window_contrib)
            got = got.reshape(2, len(fields), g.n_elements)
            for i in range(g.n_elements):
                delta = np.exp(1j * (phases[:, i] + signed)) - unit[:, i]
                trial = np.abs(fields + delta[:, :, None] * contribs[i])  # (sign, row, sample)
                assert near[rows, trial.argmax(axis=2)].all(), (step, i)
                assert near[rows, trial.argmin(axis=2)].all(), (step, i)
                hi = 20.0 * np.log10(np.maximum(trial.max(axis=2), _NULL_FIELD))
                lo = 20.0 * np.log10(np.maximum(trial.min(axis=2), _NULL_FIELD))
                assert np.array_equal(got[:, :, i], hi - lo), (step, i)

    def test_candidates_are_few_at_small_steps(self):
        # the point of the bound: at the stop step a row keeps a handful of
        # its samples, at the first step still well under all of them
        g = ArrayGeometry(8, 8)
        phases = np.random.default_rng(0).uniform(-math.pi, math.pi, size=(4, g.n_elements))
        fields, _ = self.fields_of(g, phases, 1000, 0)
        mags = np.abs(fields)
        sizes = {
            step: np.count_nonzero(_spread_and_candidates(mags, _candidate_reach(np.full(4, step), 64))[1], axis=1)
            for step in (_STEP_INIT, _STEP_MIN)
        }
        assert (sizes[_STEP_MIN] >= 2).all() and (sizes[_STEP_MIN] <= 20).all()
        assert (sizes[_STEP_INIT] < 1000).all()
