"""Random directions the tests sample gains and fields at."""

import numpy as np

from xrsim.geometry import unit_vector


def sample_directions(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sphere-uniform random unit vectors, (n, 3), drawn from ``rng``: azimuth
    uniformly and elevation as asin(uniform(-1, 1)), so that directions are
    equidistributed on the sphere rather than piling up at the poles."""
    az = rng.uniform(-180.0, 180.0, size=n)
    el = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, size=n)))
    return np.array([unit_vector(a, e) for a, e in zip(az.tolist(), el.tolist())]).reshape(n, 3)
