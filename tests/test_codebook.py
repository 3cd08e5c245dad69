"""Sector codebooks and the closed-form quasi-omni pattern."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from xrsim.antenna import _NULL_FIELD, ArrayGeometry, AwvEvaluator, gain_db, steering_phases
from xrsim.codebook import (
    DEFAULT_AIMS,
    cached_quasi_omni,
    generate_sector_codebook,
    steered_sectors,
    synthesize_quasi_omni,
)
from xrsim.geometry import unit_vector

from directions import sample_directions


def sampled_range_db(geometry, awv, seed, n=1000):
    """Gain spread over n sphere directions drawn from seed."""
    u = sample_directions(n, np.random.default_rng(seed))
    g = AwvEvaluator(geometry, awv).gains_db(u)
    return float(g.max() - g.min())


def shape_id(shape):
    return "%dx%d" % shape


def unshaped(geometry):
    """The unshaped array, every phase 0: the broadside beam."""
    return steering_phases(geometry, unit_vector(0.0, 0.0))


def full_read_gains_db(geometry, awvs, u):
    """Reference gains of each AWV toward the rows of ``u``, (M, len(awvs)):
    the per-element phase sum of :func:`gain_db`, every element read."""
    steer = (2.0 * math.pi / geometry.wavelength) * (geometry.element_positions() @ u.T)
    phases = np.array([a.phases for a in awvs])
    fields = np.exp(1j * (phases[:, :, None] + steer[None])).sum(axis=1)
    mags = np.array([a.amplitude for a in awvs])[:, None] * np.abs(fields)
    return (20.0 * np.log10(np.maximum(mags, _NULL_FIELD))).T


# the sector grid in id order: elevation-outer, azimuth varies fastest
AIMS = [unit_vector(az, el) for el in DEFAULT_AIMS for az in DEFAULT_AIMS]


@pytest.fixture(scope="module")
def ap_qo():
    return synthesize_quasi_omni(ArrayGeometry(8, 8))


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

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (8, 8), (64, 64)], ids=shape_id)
    def test_the_broadside_beam_is_unshaped(self, shape):
        g = ArrayGeometry(*shape)
        assert np.array_equal(unshaped(g).phases, np.zeros(g.n_elements))

    def test_sectors_are_steering_vectors(self, ap_book):
        g = ArrayGeometry(8, 8)
        for sid in range(36):
            assert np.allclose(ap_book[sid].phases, steering_phases(g, AIMS[sid]).phases, atol=1e-12)

    def test_own_aim_dominates_every_other_sector(self, ap_book):
        g = ArrayGeometry(8, 8)
        sectors = ap_book[:36]
        for awv, aim in zip(sectors, AIMS):
            own = gain_db(g, awv.phases, aim)
            for other in sectors:
                assert own >= gain_db(g, other.phases, aim) - 1e-9

    def test_read_back_phases_are_the_oracles(self, ap_book, ap_qo):
        # each codebook entry records its blocks or its factors, and the
        # per-element oracle gives its read-back phases the closed form's
        # gains
        g = ArrayGeometry(8, 8)
        u = sample_directions(25, np.random.default_rng(2))
        for awv in ap_book:
            assert bool(awv.blocks) != (awv.factors is not None)
            oracle = np.array([gain_db(g, awv.phases, d) for d in u])
            assert np.max(np.abs(oracle - AwvEvaluator(g, awv).gains_db(u))) <= 1e-9
        assert not ap_qo.blocks and ap_qo.factors is not None


class TestQuasiOmni:
    def test_single_element_is_flat(self):
        awv = synthesize_quasi_omni(ArrayGeometry(1, 1))
        assert sampled_range_db(ArrayGeometry(1, 1), awv, 0, 100) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(3, 5), (8, 8), (4, 16)], ids=shape_id)
    def test_is_the_centered_chirp(self, shape):
        # pi (r^2 / rows + c^2 / cols) at the centered offsets, row-major
        # like the element positions; an offset's sign does not matter
        g = ArrayGeometry(*shape)
        r = np.arange(g.rows)[:, None] - (g.rows - 1) / 2.0
        c = np.arange(g.cols)[None, :] - (g.cols - 1) / 2.0
        want = np.pi * (r**2 / g.rows + c**2 / g.cols)
        phases = synthesize_quasi_omni(g).phases.reshape(shape)
        assert np.allclose(phases, want, rtol=0.0, atol=1e-12)
        assert np.array_equal(phases, phases[::-1, ::-1])

    def test_beats_zero_phase_on_its_own_samples(self):
        # seed 0's 1,000 directions, the sample set a search once fitted
        g = ArrayGeometry(8, 8)
        assert sampled_range_db(g, synthesize_quasi_omni(g), 0) < sampled_range_db(g, unshaped(g), 0)

    def test_desk_scale_quality_gates(self, ap_qo):
        # artifact gates at the AP's 8x8 over seed 7's 1,000 directions: half
        # the sphere within 1 dB of 0 dBi and nine in ten above -8 dB, where
        # the unshaped array's median is at least 15 dB down
        g = ArrayGeometry(8, 8)
        u = sample_directions(1000, np.random.default_rng(7))
        gains = AwvEvaluator(g, ap_qo).gains_db(u)
        assert np.median(gains) >= -1.0 and np.percentile(gains, 10) >= -8.0
        assert np.median(AwvEvaluator(g, unshaped(g)).gains_db(u)) <= -15.0

    def test_two_element_brute_force_floor(self):
        # a single relative phase covers the whole design space, so a fine
        # scan lower-bounds any weights; the 2x1 chirp's is 0, the all-zero
        # weights' own
        g = ArrayGeometry(2, 1)
        u = sample_directions(1000, np.random.default_rng(0))
        base = np.exp(1j * (2 * math.pi / g.wavelength) * (g.element_positions() @ u.T))

        def scan_range(rel):
            f = np.abs(base[0] + base[1] * np.exp(1j * rel)) ** 2
            return 10.0 * math.log10(f.max() / max(f.min(), 1e-30))

        grid = np.arange(0.0, 2.0 * math.pi, 0.001)
        scans = np.array([scan_range(r) for r in grid])
        assert scans.min() == pytest.approx(38.4946, abs=0.01)
        assert grid[scans.argmin()] == pytest.approx(1.6390, abs=0.001)

        opt = synthesize_quasi_omni(g)
        rel = float(opt.phases[1] - opt.phases[0]) % (2.0 * math.pi)
        got = scan_range(rel)
        assert got >= scans.min() - 1e-9
        # no worse than the trivial all-zero weights
        assert got <= scan_range(0.0) + 1e-9

    def test_deterministic(self):
        # no seed and no state: an equal geometry gives the same bytes
        a = synthesize_quasi_omni(ArrayGeometry(4, 4))
        b = synthesize_quasi_omni(ArrayGeometry(4, 4))
        assert a is not b and a.phases.tobytes() == b.phases.tobytes()

    # median, 10th percentile and minimum gain, dBi, over 1,000 sphere
    # directions drawn from seed 7: half the sphere within a few tenths of a
    # dB of 0 dBi, nine in ten above -7.3 dB at 8x8 and -2.7 dB at 64x64; the
    # unshaped array's median sits 16 and 35 dB lower
    COVERAGE = {
        (8, 8): ((-0.3135, -7.2491, -57.0686), (-16.4707, -33.0986, -86.7445)),
        (64, 64): ((-0.0341, -2.6748, -36.3103), (-35.3865, -54.5694, -91.2206)),
    }

    @pytest.mark.parametrize("shape", sorted(COVERAGE), ids=shape_id)
    def test_coverage_over_the_sphere(self, shape):
        g = ArrayGeometry(*shape)
        u = sample_directions(1000, np.random.default_rng(7))
        for awv, want in zip((cached_quasi_omni(g), unshaped(g)), self.COVERAGE[shape]):
            gains = AwvEvaluator(g, awv).gains_db(u)
            got = (np.median(gains), np.percentile(gains, 10), gains.min())
            assert got == pytest.approx(want, abs=1e-3)

    # SHA-256 of the returned phase bytes: a square, a non-square and an
    # odd-sided array, a single element, and the 64x64 headset pattern
    # (through the cache, shared with tests/test_covrage.py)
    WEIGHT_DIGESTS = {
        "8x8_default": (
            lambda: synthesize_quasi_omni(ArrayGeometry(8, 8)),
            "5c170a9f180a9211ac50bd1111d8339dd3729c7b8c8ccf6196d4368f6dc99973",
        ),
        "4x16": (
            lambda: synthesize_quasi_omni(ArrayGeometry(4, 16)),
            "13c9304a1698aca5508c7b88f1b9fb30a988a7fd1f809013416268a749c0cee7",
        ),
        "3x5": (
            lambda: synthesize_quasi_omni(ArrayGeometry(3, 5)),
            "d2d9e57162ccb1487357225f223ffa568eb75426fdcce3c1613c2c396604fabb",
        ),
        "1x1": (
            lambda: synthesize_quasi_omni(ArrayGeometry(1, 1)),
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        ),
        "64x64_cached": (
            lambda: cached_quasi_omni(ArrayGeometry(64, 64)),
            "c18ed85230d1b40023cbba51e382ba4861978a399db11b90935ac9d434255a8b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(WEIGHT_DIGESTS))
    def test_weight_digest(self, name):
        synthesize, want = self.WEIGHT_DIGESTS[name]
        assert hashlib.sha256(synthesize().phases.tobytes()).hexdigest() == want

    def test_cached_variant_matches_and_memoizes(self):
        # keyed by the geometry's value: an equal geometry is a hit
        a = cached_quasi_omni(ArrayGeometry(4, 4))
        b = cached_quasi_omni(ArrayGeometry(4, 4))
        assert a is b
        direct = synthesize_quasi_omni(ArrayGeometry(4, 4))
        assert np.array_equal(a.phases, direct.phases)


class TestCandidateDescent:
    """The quasi-omni pattern was once a descent's result over sampled
    gains, and these cases held that descent to a full-read reference.  The
    pattern is now a closed form; the same cases hold what the simulator
    reads of it, its gains as :class:`AwvEvaluator` sums its row and column
    factors, to the full per-element read, and bound what building it holds
    in memory."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 7), (3, 5), (4, 4), (8, 8)], ids=shape_id)
    @pytest.mark.parametrize("n_samples", [1, 2, 37, 300])
    def test_matches_the_full_read_descent(self, shape, n_samples):
        # a quasi-omni link's batch of directions, down to one and two; the
        # chirp's nulls reach tens of dB below its median
        g = ArrayGeometry(*shape)
        qo = synthesize_quasi_omni(g)
        evaluator = AwvEvaluator(g, qo)
        for seed in range(4):
            u = sample_directions(n_samples, np.random.default_rng(seed))
            want = full_read_gains_db(g, [qo], u)[:, 0]
            assert np.max(np.abs(evaluator.gains_db(u) - want)) <= 1e-9, seed
            assert abs(gain_db(g, qo.phases, u[0]) - want[0]) <= 1e-9, seed

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_the_full_read_descent_at_the_default_budget(self, seed):
        # the 8x8 headset codebook, quasi-omni last, as one stack, as a sweep
        # reads it: the sectors' real block fields next to the quasi-omni's
        # factored column, for a batch of 1,000 directions and for single
        # directions.  Compared as field magnitudes, since a steered
        # sector's nulls sit far below the quasi-omni's
        g = ArrayGeometry(8, 8)
        book = generate_sector_codebook(g, cached_quasi_omni(g))
        evaluator = AwvEvaluator(g, book)
        u = sample_directions(1000, np.random.default_rng(seed))
        want = 10.0 ** (full_read_gains_db(g, book, u) / 20.0)
        assert np.max(np.abs(10.0 ** (evaluator.gains_db(u) / 20.0) - want)) <= 1e-12
        for i in range(0, 1000, 50):
            assert np.max(np.abs(10.0 ** (evaluator.gain_db(u[i]) / 20.0) - want[i])) <= 1e-12, i

    @staticmethod
    def traced_peak(geometry):
        tracemalloc.start()
        try:
            synthesize_quasi_omni(geometry)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_working_set_stays_below_the_phasor_table(self):
        # the closed form reads no directions: at 32x32 its traced peak is a
        # few (N,) phase vectors (3.3 measured), far below the (N, 1000)
        # sample phasor table a sampled search builds
        g = ArrayGeometry(32, 32)
        peak = self.traced_peak(g)
        assert peak <= 8 * g.n_elements * np.dtype(float).itemsize, peak
        assert peak <= g.n_elements * 1000 * np.dtype(complex).itemsize / 100

    def test_default_synthesis_peak_memory(self):
        # the simulator's 8x8 pattern; its traced peak was 2.37 MiB while
        # it was searched for, and is 3.5 KiB in closed form
        peak = self.traced_peak(ArrayGeometry(8, 8))
        assert peak <= 16 * 2**10, peak / 2**10
