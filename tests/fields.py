"""Per-element field sums the tests check the closed forms against."""

import math

import numpy as np


def block_field(geometry, positions, block, phases, u) -> complex:
    """Far-field contribution of the columns ``block.c0:block.c1`` of a
    weight vector with ``phases``, summed element by element; ``block`` is a
    :class:`xrsim.antenna.SteeredBlock`, whose steering and offset are not
    read, ``positions`` are the global element positions,
    ``geometry.element_positions()``, and ``u`` is a unit vector."""
    c0, c1 = block.c0, block.c1
    k = 2.0 * math.pi / geometry.wavelength
    pos = positions.reshape(geometry.rows, geometry.cols, 3)[:, c0:c1]
    ph = phases.reshape(geometry.rows, geometry.cols)[:, c0:c1]
    amplitude = 1.0 / math.sqrt(geometry.n_elements)
    total = np.exp(1j * (ph + k * (pos @ u))).sum()
    return amplitude * complex(total)
