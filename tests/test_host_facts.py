"""The numpy facts the bit-for-bit pins rely on, each on fixed inputs.

A digest in this suite pins the program and also the host's floating-point
kernels: numpy picks its SIMD kernels at run time, and some ufuncs round
otherwise on its AVX2 kernels than on its AVX-512 ones.  Each test here
states one fact a pin needs, so that on a host where a pin fails the fact
behind it fails beside it, named, with the kernel level it ran on.
"""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

try:
    _FEATURES = np._core._multiarray_umath.__cpu_features__
except AttributeError:  # numpy 1.x
    _FEATURES = np.core._multiarray_umath.__cpu_features__

# numpy 2 calls its AVX-512 dispatch level X86_V4, numpy 1 AVX512_SKX; both
# read False under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
AVX512 = bool(_FEATURES.get("X86_V4") or _FEATURES.get("AVX512_SKX"))
HOST = "numpy %s, AVX-512 kernels %s" % (np.__version__, "on" if AVX512 else "off")
# the key of a digest taken per kernel level: numpy 2.4.6 on one x86-64 host,
# with and without that variable
KERNELS = "AVX-512" if AVX512 else "AVX2"

# numpy's run-time dispatch then picks its AVX2 kernels on an AVX-512 host
AVX2_ONLY = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def fact(holds, what):
    assert holds, "host fact fails: %s (%s)" % (what, HOST)


def test_speed_fit_sums_rows_in_np_sums_order():
    # mobility._max_step_speed_dps adds each step's products w, x, y, z in
    # turn into one row; it keeps the bits of np.sum(axis=1) over an (n, 4)
    # product, and so the trace-file digests, only while this holds
    a = np.random.default_rng(7).standard_normal((100_001, 4))
    p = a[1:] * a[:-1]
    w, x, y, z = p.T
    fact(np.array_equal(np.sum(p, axis=1), ((w + x) + y) + z), "np.sum(axis=1) over (n, 4) is ((w + x) + y) + z")


def test_squared_distance_is_einsums_order():
    # Link.snr_at sums dx*dx + dz*dz + dy*dy, the bits of the einsum it
    # replaced, on which the event-log digests were taken
    v = np.random.default_rng(11).standard_normal((100_000, 3))
    x, y, z = v.T
    fact(np.array_equal(np.einsum("ij,ij->i", v, v), x * x + z * z + y * y),
         'np.einsum("ij,ij->i") over (n, 3) is x*x + z*z + y*y')


def _fma(a, b, c):
    """a * b + c rounded once: the exact sum, in fractions, to the nearest
    float (Python 3.11 has no math.fma)."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def test_three_vector_dot_is_two_fused_multiply_adds():
    # geometry.unit_toward takes its norm as sqrt(diff @ diff), and the
    # covrage_beam phase digests and every sweep direction keep their bits
    # only while that dot product is OpenBLAS's fused ddot; the plain sum
    # (x*x + y*y) + z*z rounds otherwise on 1,126 of these 5,000 vectors
    v = np.random.default_rng(23).uniform(-8.0, 8.0, (5_000, 3))
    fused = plain = 0
    for x, y, z in v.tolist():
        diff = np.array([x, y, z])
        fused += float(diff @ diff) == _fma(z, z, _fma(y, y, x * x))
        plain += float(diff @ diff) == (x * x + y * y) + z * z
    fact(fused == len(v) > plain, "v @ v over a 3-vector is fma(z, z, fma(y, y, x*x)) (%d of %d)" % (fused, len(v)))


def test_complex_exp_is_cos_plus_j_sin():
    # antenna._cis builds e^{jx} from np.cos and np.sin, the bits of the
    # np.exp(1j * x) it replaced in the phase and weight digests
    x = np.random.default_rng(13).uniform(-400.0, 400.0, 200_000)
    cis = np.empty(x.shape, dtype=complex)
    np.cos(x, out=cis.real), np.sin(x, out=cis.imag)
    fact(np.array_equal(np.exp(1j * x), cis), "np.exp(1j * x) is cos x + j sin x")


# SHA-256 of np.log10 and np.arccos over seeded inputs in the ranges the
# link path feeds them, per kernel level.  The two levels differ on 821 and
# 400 of the inputs, and so do the five link-batch digests of
# test_link_batch_digests.py
LOG10 = {
    "AVX-512": "0596f4945edfa26887295ef54fb6660b498290ca48df3f1aab9e4743fd440e3f",
    "AVX2": "3dba548e158df1d8c940c51af169ac0eaac447d05eb2e0e095a4db02347551bb",
}
ARCCOS = {
    "AVX-512": "6e1732d692e68537dc6587f0b109a4593da1ce0b2e2fd2a01cc32306c3ea67fc",
    "AVX2": "abc1548338e447ff56dcffaf838fcaeaf2b0352025153eebb52c26c41a6e5442",
}


def _link_inputs():
    rng = np.random.default_rng(17)
    # field magnitudes (AwvEvaluator.gains_db) and the free-space path loss
    # argument 4 pi d f / c (channel.free_space_path_loss_db)
    mags = 10.0 ** rng.uniform(-6.0, 0.0, 20_000)
    path = 4.0 * math.pi * rng.uniform(0.5, 8.0, 20_000) * 60e9 / 299_792_458.0
    # |q0 . q1| of consecutive trace samples (TraceSet's segment table)
    dots = np.cos(rng.uniform(0.0, 0.05, 20_000))
    return np.concatenate([mags, path]), dots


def digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def test_log10_bytes_on_link_inputs():
    fact(digest(np.log10(_link_inputs()[0])) == LOG10[KERNELS], "np.log10 bytes on the link inputs")


def test_arccos_bytes_on_link_inputs():
    fact(digest(np.arccos(_link_inputs()[1])) == ARCCOS[KERNELS], "np.arccos bytes on the link inputs")


def test_trig_bytes_do_not_depend_on_the_array_around_an_element():
    # mobility._fit_scales takes cos, sin and arccos over the steps it
    # gathers, and reads them as the bytes of a pass over the whole array:
    # a gathered subset, or a slice at any offset, must give each element
    # the bytes it gets in the whole array, at a one-element and a
    # tail-only length as well as a long one
    rng = np.random.default_rng(19)
    half_turns = rng.uniform(-900.0, 900.0, 20_001) * rng.choice([1e-6, 1e-3, 1.0], 20_001)
    dots = np.cos(rng.uniform(0.0, 0.05, 20_001)) * rng.choice([-1.0, 1.0], 20_001)
    for f, x in ((np.cos, half_turns), (np.sin, half_turns), (np.arccos, dots)):
        whole = f(x)
        for n in (1, 7, 8_001):
            gathered = np.sort(rng.choice(x.size, n, replace=False))
            fact(f(x[gathered]).tobytes() == whole[gathered].tobytes(),
                 "np.%s of %d gathered elements is their bytes in the whole array" % (f.__name__, n))
            for start in rng.integers(0, x.size - n, 3).tolist():
                fact(f(x[start : start + n]).tobytes() == whole[start : start + n].tobytes(),
                     "np.%s of %d elements at offset %d is their bytes in the whole array" % (f.__name__, n, start))


@pytest.mark.parametrize(
    "env",
    # numpy's AVX2 kernels; and OpenBLAS on one thread, as perfbench runs
    # the simulator, where tier-1 runs on OpenBLAS's default thread pool
    [AVX2_ONLY, {"OPENBLAS_NUM_THREADS": "1"}],
    ids=["avx2_kernels", "one_blas_thread"],
)
def test_the_8x8_quasi_omni_weights_hold_in_a_child(env):
    # the simulator's 8x8 quasi-omni is one digest on either kernel level
    # and any BLAS thread count: its closed form takes sums, products and
    # quotients only, each correctly rounded, and makes no BLAS call
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    code = (
        "import hashlib, test_codebook as t\n"
        "synthesize, want = t.TestQuasiOmni.WEIGHT_DIGESTS['8x8_default']\n"
        "print(hashlib.sha256(synthesize().phases.tobytes()).hexdigest() == want)"
    )
    child = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, **env, PYTHONPATH=path),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    fact(child.stdout.split() == ["True"], "the 8x8_default weight digest holds under %s" % env)
