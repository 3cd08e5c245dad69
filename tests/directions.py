"""Random directions the tests sample gains and fields at."""

import math

import numpy as np


def sample_directions(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sphere-uniform random unit vectors, (n, 3), drawn from ``rng``: azimuth
    uniformly and elevation as asin(uniform(-1, 1)), so that directions are
    equidistributed on the sphere rather than piling up at the poles."""
    az = rng.uniform(-180.0, 180.0, size=n)
    el = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, size=n)))
    # geometry.unit_vector's float arithmetic, into one array
    xyz = []
    for a, e in zip(map(math.radians, az.tolist()), map(math.radians, el.tolist())):
        ce = math.cos(e)
        xyz += ce * math.cos(a), ce * math.sin(a), math.sin(e)
    return np.array(xyz).reshape(n, 3)
