"""Array geometry, AWV evaluation and the brute-force field oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xrsim.antenna import (
    NULL_GAIN_DB,
    ArrayGeometry,
    Awv,
    AwvEvaluator,
    field_at,
    gain_db,
    sample_directions,
    steering_phases,
)
from xrsim.geometry import Direction


def brute_field(geometry, awv, direction):
    """Direct per-element complex summation, kept independent of field_at."""
    u = direction.to_unit_vector()
    k = 2.0 * math.pi / geometry.wavelength
    amp = 1.0 / math.sqrt(geometry.n_elements)
    total = 0j
    for pos, phase in zip(geometry.element_positions(), awv.phases):
        total += amp * cmath.exp(1j * (k * float(np.dot(pos, u)) + phase))
    return total


class TestGeometryLayout:
    def test_element_count_and_spacing(self):
        g = ArrayGeometry(8, 8)
        assert g.n_elements == 64
        pos = g.element_positions()
        assert pos.shape == (64, 3)
        # row-major: consecutive elements step along y by half a wavelength
        d = g.spacing_wavelengths * g.wavelength
        assert np.allclose(pos[1] - pos[0], [0.0, d, 0.0])
        assert np.allclose(pos[8] - pos[0], [0.0, 0.0, d])

    def test_centered(self):
        pos = ArrayGeometry(4, 6).element_positions()
        assert np.allclose(pos.mean(axis=0), 0.0, atol=1e-15)

    def test_wavelength(self):
        g = ArrayGeometry(2, 2, carrier_hz=60e9)
        assert g.wavelength == pytest.approx(299792458.0 / 60e9)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0, 4)


class TestAwv:
    def test_length_checked_against_use(self):
        g = ArrayGeometry(2, 2)
        with pytest.raises(ValueError):
            field_at(g, Awv(np.zeros(3)), Direction(0.0, 0.0))

    def test_n_elements(self):
        assert Awv(np.zeros(6)).n_elements == 6


class TestFieldAndGain:
    def test_broadside_peak_is_coherent(self):
        # steered gain equals 10*log10(N): amplitudes 1/sqrt(N), coherent sum
        g = ArrayGeometry(8, 8)
        got = gain_db(g, Awv(np.zeros(64)), Direction(0.0, 0.0))
        assert got == pytest.approx(10.0 * math.log10(64), abs=1e-9)
        assert got == pytest.approx(18.0617997398, abs=1e-9)

    def test_large_array_peak(self):
        g = ArrayGeometry(64, 64)
        got = gain_db(g, steering_phases(g, Direction(17.0, -9.0)), Direction(17.0, -9.0))
        assert got == pytest.approx(36.1235994797, abs=1e-9)

    def test_steering_reaches_the_peak_off_broadside(self):
        g = ArrayGeometry(8, 8)
        aim = Direction(30.0, 0.0)
        awv = steering_phases(g, aim)
        assert gain_db(g, awv, aim) == pytest.approx(10.0 * math.log10(64), abs=1e-9)

    def test_matches_brute_force_summation(self, rng):
        for rows, cols in ((1, 1), (2, 3), (8, 8)):
            g = ArrayGeometry(rows, cols)
            for _ in range(5):
                awv = Awv(rng.uniform(-math.pi, math.pi, g.n_elements))
                d = Direction(rng.uniform(-180, 180), rng.uniform(-90, 90))
                assert field_at(g, awv, d) == pytest.approx(brute_field(g, awv, d), abs=1e-9)

    def test_perfect_null_hits_the_floor(self):
        # two elements in antiphase cancel exactly at broadside
        g = ArrayGeometry(2, 1)
        awv = Awv(np.array([0.0, math.pi]))
        assert gain_db(g, awv, Direction(0.0, 0.0)) == NULL_GAIN_DB

    def test_evaluator_agrees_with_direct_calls(self, rng):
        g = ArrayGeometry(8, 8)
        awv = Awv(rng.uniform(-math.pi, math.pi, 64))
        ev = AwvEvaluator(g, awv)
        for _ in range(20):
            d = Direction(rng.uniform(-180, 180), rng.uniform(-90, 90))
            assert ev.gain_db(d) == pytest.approx(gain_db(g, awv, d), abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 8), (64, 64)])
    def test_batched_gains_match_the_oracle(self, rng, shape):
        # more directions than one matrix product takes at 64x64, and nulls
        g = ArrayGeometry(*shape)
        awv = Awv(rng.uniform(-math.pi, math.pi, g.n_elements))
        dirs = sample_directions(19, rng) + [Direction(0.0, 90.0), Direction(180.0, -90.0)]
        u = np.stack([d.to_unit_vector() for d in dirs])
        got = AwvEvaluator(g, awv).gains_db(u)
        assert got.shape == (len(dirs),)
        for value, d in zip(got, dirs):
            assert value == pytest.approx(gain_db(g, awv, d), abs=1e-9)
        assert AwvEvaluator(g, awv).gains_db(u[:1])[0] == pytest.approx(got[0], abs=1e-12)

    def test_batched_null_hits_the_floor(self):
        g = ArrayGeometry(1, 2)
        awv = Awv(np.array([0.0, math.pi]))
        got = AwvEvaluator(g, awv).gains_db(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert got[0] == NULL_GAIN_DB
        assert got[1] > NULL_GAIN_DB

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 8)])
    def test_a_stack_gives_each_awv_its_gain(self, rng, shape):
        g = ArrayGeometry(*shape)
        awvs = [Awv(rng.uniform(-math.pi, math.pi, g.n_elements)) for _ in range(5)]
        dirs = sample_directions(7, rng)
        u = np.stack([d.to_unit_vector() for d in dirs])
        stack = AwvEvaluator(g, awvs)
        got = stack.gains_db(u)
        assert got.shape == (7, 5)
        for s, awv in enumerate(awvs):
            for m, d in enumerate(dirs):
                assert got[m, s] == pytest.approx(gain_db(g, awv, d), abs=1e-9)
        # a sweep: every AWV of the stack toward one direction
        assert np.array_equal(stack.gain_db(dirs[0]), stack.gains_db(u[:1])[0])

    def test_stack_must_match_the_array(self):
        with pytest.raises(ValueError):
            AwvEvaluator(ArrayGeometry(2, 2), [Awv(np.zeros(4)), Awv(np.zeros(5))])


class TestSampleDirections:
    def test_deterministic_per_seed(self):
        a = sample_directions(100, np.random.default_rng(5))
        b = sample_directions(100, np.random.default_rng(5))
        assert all(x == y for x, y in zip(a, b))
        c = sample_directions(100, np.random.default_rng(6))
        assert any(x != y for x, y in zip(a, c))

    def test_covers_the_sphere(self):
        dirs = sample_directions(1000, np.random.default_rng(0))
        assert len(dirs) == 1000
        z = [d.to_unit_vector()[2] for d in dirs]
        assert max(z) > 0.95 and min(z) < -0.95
        for d in dirs:
            assert np.linalg.norm(d.to_unit_vector()) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_global_phase_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    g = ArrayGeometry(4, 4)
    phases = rng.uniform(-math.pi, math.pi, 16)
    d = Direction(rng.uniform(-180, 180), rng.uniform(-90, 90))
    g0 = gain_db(g, Awv(phases), d)
    g1 = gain_db(g, Awv(phases + shift), d)
    assert abs(g1 - g0) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_coherence_bound(seed):
    # no phase-only AWV can beat the coherent-sum gain anywhere
    rng = np.random.default_rng(seed)
    g = ArrayGeometry(4, 4)
    awv = Awv(rng.uniform(-math.pi, math.pi, 16))
    d = Direction(rng.uniform(-180, 180), rng.uniform(-90, 90))
    assert gain_db(g, awv, d) <= 10.0 * math.log10(16) + 1e-9
