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
    SteeredBlock,
    block_fields,
    block_layout,
    field_at,
    gain_db,
    sample_directions,
    steered_awv,
    steering_phases,
)
from xrsim.codebook import steered_sectors
from xrsim.covrage import K_MAX, Trajectory, plan_with_k
from xrsim.geometry import Quaternion, unit_vector


def brute_field(geometry, awv, u):
    """Direct per-element complex summation, kept independent of field_at."""
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
            field_at(g, Awv(np.zeros(3)), unit_vector(0.0, 0.0))

    def test_n_elements(self):
        assert Awv(np.zeros(6)).n_elements == 6


class TestFieldAndGain:
    def test_broadside_peak_is_coherent(self):
        # steered gain equals 10*log10(N): amplitudes 1/sqrt(N), coherent sum
        g = ArrayGeometry(8, 8)
        got = gain_db(g, Awv(np.zeros(64)), unit_vector(0.0, 0.0))
        assert got == pytest.approx(10.0 * math.log10(64), abs=1e-9)
        assert got == pytest.approx(18.0617997398, abs=1e-9)

    def test_large_array_peak(self):
        g = ArrayGeometry(64, 64)
        got = gain_db(g, steering_phases(g, unit_vector(17.0, -9.0)), unit_vector(17.0, -9.0))
        assert got == pytest.approx(36.1235994797, abs=1e-9)

    def test_steering_reaches_the_peak_off_broadside(self):
        g = ArrayGeometry(8, 8)
        aim = unit_vector(30.0, 0.0)
        awv = steering_phases(g, aim)
        assert gain_db(g, awv, aim) == pytest.approx(10.0 * math.log10(64), abs=1e-9)

    def test_matches_brute_force_summation(self, rng):
        for rows, cols in ((1, 1), (2, 3), (8, 8)):
            g = ArrayGeometry(rows, cols)
            for _ in range(5):
                awv = Awv(rng.uniform(-math.pi, math.pi, g.n_elements))
                d = unit_vector(rng.uniform(-180, 180), rng.uniform(-90, 90))
                assert field_at(g, awv, d) == pytest.approx(brute_field(g, awv, d), abs=1e-9)

    def test_perfect_null_hits_the_floor(self):
        # two elements in antiphase cancel exactly at broadside
        g = ArrayGeometry(2, 1)
        awv = Awv(np.array([0.0, math.pi]))
        assert gain_db(g, awv, unit_vector(0.0, 0.0)) == NULL_GAIN_DB

    def test_evaluator_agrees_with_direct_calls(self, rng):
        g = ArrayGeometry(8, 8)
        awv = Awv(rng.uniform(-math.pi, math.pi, 64))
        ev = AwvEvaluator(g, awv)
        for _ in range(20):
            d = unit_vector(rng.uniform(-180, 180), rng.uniform(-90, 90))
            assert ev.gain_db(d) == pytest.approx(gain_db(g, awv, d), abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 8), (64, 64)])
    def test_batched_gains_match_the_oracle(self, rng, shape):
        # more directions than one matrix product takes at 64x64, and nulls
        g = ArrayGeometry(*shape)
        awv = Awv(rng.uniform(-math.pi, math.pi, g.n_elements))
        u = np.vstack([sample_directions(19, rng), unit_vector(0.0, 90.0), unit_vector(180.0, -90.0)])
        got = AwvEvaluator(g, awv).gains_db(u)
        assert got.shape == (len(u),)
        for value, d in zip(got, u):
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
        u = sample_directions(7, rng)
        stack = AwvEvaluator(g, awvs)
        got = stack.gains_db(u)
        assert got.shape == (7, 5)
        for s, awv in enumerate(awvs):
            for m, d in enumerate(u):
                assert got[m, s] == pytest.approx(gain_db(g, awv, d), abs=1e-9)
        # a sweep: every AWV of the stack toward one direction
        assert np.array_equal(stack.gain_db(u[0]), stack.gains_db(u[:1])[0])

    def test_gain_db_is_the_batch_of_one(self, rng):
        # bit for bit on the lattice, on a stack and in closed form
        g = ArrayGeometry(8, 8)
        awvs = [Awv(rng.uniform(-math.pi, math.pi, g.n_elements)) for _ in range(3)]
        steered = steering_phases(g, unit_vector(20.0, -10.0))
        for ev in (AwvEvaluator(g, awvs[0]), AwvEvaluator(g, awvs), AwvEvaluator(g, steered)):
            for u in sample_directions(5, rng):
                assert np.array_equal(ev.gain_db(u), ev.gains_db(u[None])[0])

    def test_stack_must_match_the_array(self):
        with pytest.raises(ValueError):
            AwvEvaluator(ArrayGeometry(2, 2), [Awv(np.zeros(4)), Awv(np.zeros(5))])


# a wide yawing and pitching arc, so that block targets differ in y and z
_ARC = Trajectory(
    Quaternion.from_axis_angle((0.0, 0.0, 1.0), 0.0),
    Quaternion.from_axis_angle((0.3, 0.2, 1.0), 1.5),
    np.array([1.0, 0.1, 0.2]) / math.sqrt(1.05),
    90.0,
)
_ENDFIRE_AND_BACK = [
    unit_vector(90.0, 0.0),
    unit_vector(-90.0, 0.0),
    unit_vector(0.0, 90.0),
    unit_vector(0.0, -90.0),
    unit_vector(180.0, 0.0),
]


def grating_lobes(g, t):
    """Visible directions whose y or z component differs from the aim
    ``t``'s by a nonzero multiple of 1 / spacing: there every element of a
    beam steered at ``t`` adds in phase again."""
    step = 1.0 / g.spacing_wavelengths
    out = []
    for my in range(-2, 3):
        for mz in range(-2, 3):
            y, z = t[1] + my * step, t[2] + mz * step
            if (my or mz) and y * y + z * z < 1.0:
                out.append(np.array([math.sqrt(1.0 - y * y - z * z), y, z]))
    return out


def steered_and_composite_beams(g):
    """(AWV, directions that matter to it): steered beams, broadside ones
    included, then composite beams of every block count, each with its
    aims or block targets, their grating lobes, and the crossovers."""
    out = []
    for aim in (unit_vector(0.0, 0.0), unit_vector(30.0, -20.0), unit_vector(-65.0, 40.0)):
        out.append((steering_phases(g, aim), [aim] + grating_lobes(g, aim)))
    for k in range(1, min(K_MAX, g.cols) + 1):
        blocks = plan_with_k(g, _ARC, k)
        assert len(blocks) == k
        targets = [_ARC.direction_at((i + 0.5) / k) for i in range(k)]
        crossovers = [_ARC.direction_at(i / k) for i in range(1, k)]
        lobes = [d for t in targets for d in grating_lobes(g, t)]
        out.append((steered_awv(g, blocks), targets + crossovers + lobes))
    return out


def phases_from_blocks(g, awv):
    """The phases the AWV's blocks describe, element by element."""
    k = 2.0 * math.pi / g.wavelength
    pos = g.element_positions().reshape(g.rows, g.cols, 3)
    phases = np.empty((g.rows, g.cols))
    for b in awv.blocks:
        block = pos[:, b.c0 : b.c1]
        phases[:, b.c0 : b.c1] = -k * (block[..., 1] * b.ty + block[..., 2] * b.tz) + b.offset
    return phases.ravel()


def extended_block_gain_db(g, awv, u):
    """Gain of the phases the AWV's blocks describe, summed element by
    element in long double: k p.(u - t) + offset per element, with the
    program's double k and spacing."""
    ld = np.longdouble
    kd = ld(2.0 * math.pi / g.wavelength) * ld(g.spacing_wavelengths * g.wavelength)
    rows = np.arange(g.rows, dtype=ld) - ld(g.rows - 1) / 2
    cols = np.arange(g.cols, dtype=ld) - ld(g.cols - 1) / 2
    re = im = ld(0)
    for b in awv.blocks:
        phase = kd * (cols[None, b.c0 : b.c1] * (ld(u[1]) - ld(b.ty)) + rows[:, None] * (ld(u[2]) - ld(b.tz)))
        phase += ld(b.offset)
        re += np.sum(np.cos(phase))
        im += np.sum(np.sin(phase))
    mag = float(np.hypot(re, im)) / math.sqrt(g.n_elements)
    return NULL_GAIN_DB if mag < 1e-15 else 20.0 * math.log10(mag)


def extended_block_fields(g, blocks, u):
    """Each block's field per unit element amplitude and without its
    offset, summed element by element in long double as in
    :func:`extended_block_gain_db`, then rounded to complex doubles."""
    ld = np.longdouble
    kd = ld(2.0 * math.pi / g.wavelength) * ld(g.spacing_wavelengths * g.wavelength)
    rows = np.arange(g.rows, dtype=ld) - ld(g.rows - 1) / 2
    cols = np.arange(g.cols, dtype=ld) - ld(g.cols - 1) / 2
    out = []
    for b in blocks:
        phase = kd * (cols[None, b.c0 : b.c1] * (ld(u[1]) - ld(b.ty)) + rows[:, None] * (ld(u[2]) - ld(b.tz)))
        out.append(complex(float(np.sum(np.cos(phase))), float(np.sum(np.sin(phase)))))
    return np.array(out)


class TestClosedForm:
    """Steered and composite beams summed in closed form.

    The reference is a per-element sum of the block phases in long double.
    At 64x64 the double-precision oracle :func:`gain_db` rounds phases of up
    to 400 rad, which moves gains near -80 dB by up to a few 1e-9 dB, and
    so does rounding the steering phases to doubles."""

    @staticmethod
    def beams_and_directions(g, rng):
        """Each steered and composite beam, with the directions that matter
        to it, endfire, backfire and random ones."""
        for awv, own in steered_and_composite_beams(g):
            yield awv, np.vstack([own, _ENDFIRE_AND_BACK, sample_directions(40, rng)])

    def check_against(self, g, reference, rng):
        """<= 1e-9 dB where the reference is above -80 dB, the floor where
        it is a null, and below -80 dB elsewhere."""
        for awv, dirs in self.beams_and_directions(g, rng):
            ev = AwvEvaluator(g, awv)
            assert ev._w is None
            got = ev.gains_db(dirs)
            for value, d in zip(got, dirs):
                want = reference(g, awv, d)
                if want == NULL_GAIN_DB:
                    assert value == NULL_GAIN_DB, (len(awv.blocks), d)
                elif want > -80.0:
                    assert abs(value - want) <= 1e-9, (len(awv.blocks), d)
                else:
                    assert value <= -80.0 + 1e-9, (len(awv.blocks), d)

    @pytest.mark.skipif(np.finfo(np.longdouble).precision < 18, reason="long double is no wider than double")
    @pytest.mark.parametrize("spacing", [0.5, 1.0])
    @pytest.mark.parametrize("shape", [(64, 64), (8, 8), (5, 7), (1, 9), (9, 1)])
    def test_matches_the_extended_precision_sum(self, rng, shape, spacing):
        self.check_against(ArrayGeometry(*shape, spacing_wavelengths=spacing), extended_block_gain_db, rng)

    @pytest.mark.skipif(np.finfo(np.longdouble).precision < 18, reason="long double is no wider than double")
    @pytest.mark.parametrize("spacing", [0.5, 1.0])
    @pytest.mark.parametrize("shape", [(64, 64), (8, 8), (5, 7), (1, 9), (9, 1)])
    def test_block_fields_match_the_extended_precision_sum(self, rng, shape, spacing):
        # within 1e-12 of each block's peak field, rows x columns: the
        # closed form is 2e-14 off at worst over these beams
        g = ArrayGeometry(*shape, spacing_wavelengths=spacing)
        for awv, dirs in self.beams_and_directions(g, rng):
            got = block_fields(g, block_layout(g, awv.blocks), dirs)
            peak = g.rows * np.array([b.c1 - b.c0 for b in awv.blocks])
            for row, d in zip(got, dirs):
                err = np.abs(row - extended_block_fields(g, awv.blocks, d))
                assert np.all(err <= 1e-12 * peak), (len(awv.blocks), d)

    @pytest.mark.parametrize("spacing", [0.5, 1.0])
    @pytest.mark.parametrize("shape", [(8, 8), (5, 7), (1, 9), (9, 1)])
    def test_matches_the_oracle(self, rng, shape, spacing):
        self.check_against(ArrayGeometry(*shape, spacing_wavelengths=spacing), gain_db, rng)

    @pytest.mark.parametrize("shape", [(8, 8), (1, 2)])
    def test_exact_nulls_hit_the_floor(self, shape):
        # a broadside beam at half-wavelength spacing: adjacent columns (or
        # rows) are in antiphase at endfire
        g = ArrayGeometry(*shape)
        awv = steering_phases(g, unit_vector(0.0, 0.0))
        ends = [unit_vector(90.0, 0.0), unit_vector(-90.0, 0.0)]
        if g.rows > 1:
            ends += [unit_vector(0.0, 90.0), unit_vector(0.0, -90.0)]
        got = AwvEvaluator(g, awv).gains_db(np.stack(ends))
        assert [gain_db(g, awv, d) for d in ends] == [NULL_GAIN_DB] * len(ends)
        assert got.tolist() == [NULL_GAIN_DB] * len(ends)

    @pytest.mark.parametrize("spacing", [0.5, 1.0])
    @pytest.mark.parametrize("shape", [(64, 64), (8, 8), (5, 7), (1, 9), (9, 1)])
    def test_blocks_describe_the_phases(self, shape, spacing):
        g = ArrayGeometry(*shape, spacing_wavelengths=spacing)
        awvs = [awv for awv, _ in steered_and_composite_beams(g)]
        awvs += steered_sectors(g)
        for awv in awvs:
            assert awv.blocks
            diff = np.angle(np.exp(1j * (awv.phases - phases_from_blocks(g, awv))))
            assert np.max(np.abs(diff)) <= 1e-9

    def test_blocks_take_no_part_in_equality_or_repr(self):
        g = ArrayGeometry(4, 4)
        awv = steering_phases(g, unit_vector(10.0, 5.0))
        plain = Awv(awv.phases)
        assert awv.blocks and not plain.blocks
        assert awv == plain and repr(awv) == repr(plain)
        assert "blocks" not in repr(awv)

    def test_plain_phases_take_the_lattice(self):
        g = ArrayGeometry(8, 8)
        awv = steering_phases(g, unit_vector(10.0, 5.0))
        lattice = AwvEvaluator(g, Awv(awv.phases))
        assert lattice._w is not None
        u = sample_directions(30, np.random.default_rng(4))
        assert np.max(np.abs(lattice.gains_db(u) - AwvEvaluator(g, awv).gains_db(u))) <= 1e-9
        # a stack of steered beams is one matrix product
        assert AwvEvaluator(g, [awv, awv])._w is not None

    def test_blocks_must_tile_the_columns(self):
        awv = steering_phases(ArrayGeometry(4, 16), unit_vector(10.0, 5.0))
        with pytest.raises(ValueError):
            AwvEvaluator(ArrayGeometry(8, 8), awv)
        # none, short, late, an empty block, a gap, an overlap, a backward block
        for columns in ([], [(0, 7)], [(1, 8)], [(0, 8), (8, 8)], [(0, 3), (4, 8)], [(0, 5), (3, 8)],
                        [(0, 5), (5, 3), (3, 8)]):
            with pytest.raises(ValueError, match="tile"):
                steered_awv(ArrayGeometry(4, 8), [SteeredBlock(c0, c1, 0.1, 0.2, 0.0) for c0, c1 in columns])


class TestSampleDirections:
    def test_deterministic_per_seed(self):
        a = sample_directions(100, np.random.default_rng(5))
        b = sample_directions(100, np.random.default_rng(5))
        assert np.array_equal(a, b)
        c = sample_directions(100, np.random.default_rng(6))
        assert not np.array_equal(a, c)

    def test_covers_the_sphere(self):
        dirs = sample_directions(1000, np.random.default_rng(0))
        assert dirs.shape == (1000, 3)
        z = dirs[:, 2]
        assert max(z) > 0.95 and min(z) < -0.95
        for d in dirs:
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_global_phase_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    g = ArrayGeometry(4, 4)
    phases = rng.uniform(-math.pi, math.pi, 16)
    d = unit_vector(rng.uniform(-180, 180), rng.uniform(-90, 90))
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
    d = unit_vector(rng.uniform(-180, 180), rng.uniform(-90, 90))
    assert gain_db(g, awv, d) <= 10.0 * math.log10(16) + 1e-9
