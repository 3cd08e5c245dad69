"""Trajectory-covering receive beamforming (the `covrage` mode).

Instead of a single pencil beam, the headset array is logically split into
contiguous column blocks.  Each block steers at one point of the predicted
rotational trajectory of the AP direction in the headset frame, so the union
of sub-beams covers the whole arc the AP will sweep through between
beamforming updates.  Per-block phase offsets align adjacent blocks where
their lobes cross so the composite pattern has no destructive seams.  The
offsets come from the closed-form block fields the link is evaluated with,
:func:`antenna.block_fields`, and :func:`antenna.steered_awv` builds the beam.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .antenna import ArrayGeometry, Awv, SteeredBlock, block_fields, block_layout, steered_awv, _NULL_FIELD
from .geometry import Pose, Quaternion, _rotate, slerps, unit_toward

# most column blocks a composite beam is split into
K_MAX = 8
# fraction of the aperture-limited beamwidth formula 0.886 lambda / (n d)
_BEAMWIDTH_COEFF = 0.886


@dataclass(frozen=True)
class Trajectory:
    """Rotation of the headset from now (s=0) to the predicted orientation
    (s=1), together with the world-frame unit vector toward the AP."""

    q_now: Quaternion
    q_pred: Quaternion
    d_world: np.ndarray
    span_deg: float

    def directions(self, ss: Sequence[float]) -> list[tuple[float, float, float]]:
        """Unit vectors toward the AP in the headset frame at each s of
        ``ss``, from one slerp set-up, as tuples."""
        d = self.d_world.tolist()
        return [_rotate(w, -x, -y, -z, *d) for w, x, y, z in slerps(self.q_now, self.q_pred, ss)]


def trajectory_from_poses(pose_now: Pose, q_pred: Quaternion, ap_position: Sequence[float]) -> Trajectory:
    d_world = unit_toward(pose_now.position, ap_position)
    a = pose_now.orientation.rotate_inverse(d_world)
    b = q_pred.rotate_inverse(d_world)
    dot = max(-1.0, min(1.0, float(a @ b)))
    return Trajectory(pose_now.orientation, q_pred, d_world, math.degrees(math.acos(dot)))


def subarray_beamwidth_deg(cols_per_block: int, spacing_wavelengths: float) -> float:
    return math.degrees(_BEAMWIDTH_COEFF / (cols_per_block * spacing_wavelengths))


def choose_block_count(cols: int, spacing_wavelengths: float, span_deg: float) -> int:
    """The block count a fixed-point rule settles on: from k = 1, k becomes
    ceil(span / the beamwidth of a ``cols // k`` column block) for as long
    as that asks for more blocks than k, capped at :data:`K_MAX` or one
    column per block, whichever is fewer.

    A block's beam widens as k grows, so the first step, taken at the full
    array's narrow beam, can pass a smaller count whose wider blocks already
    cover the span: 64 columns at a 3.2 degree span give 3 where 2 cover.
    The result is not always the smallest covering count.
    """
    k_cap = min(K_MAX, cols)
    k = 1
    for _ in range(k_cap + 1):
        width = subarray_beamwidth_deg(cols // k, spacing_wavelengths)
        k_next = min(max(math.ceil(span_deg / width), 1), k_cap)
        if k_next <= k:
            break
        k = k_next
    return k


def plan_with_k(geometry: ArrayGeometry, trajectory: Trajectory, k: int) -> tuple[SteeredBlock, ...]:
    """The composite beam's k steered blocks: equal column blocks (remainder
    to the last), steered at the trajectory midpoints s=(i+0.5)/k and turned
    by their alignment offsets at the block boundaries s=i/k."""
    if k < 1 or k > geometry.cols:
        raise ValueError("block count must be in [1, cols]")
    edges = [i * (geometry.cols // k) for i in range(k)] + [geometry.cols]
    # the k block targets, then the k - 1 crossovers
    u = trajectory.directions([(i + 0.5) / k for i in range(k)] + [i / k for i in range(1, k)])
    blocks = [SteeredBlock(edges[i], edges[i + 1], u[i][1], u[i][2], 0.0) for i in range(k)]
    if k == 1:
        return tuple(blocks)
    layout = block_layout(geometry, blocks)
    return tuple(SteeredBlock(*b[:4], o) for b, o in zip(blocks, _alignment_offsets(geometry, layout, u[k:])))


def _alignment_offsets(geometry: ArrayGeometry, layout, crossovers) -> list[float]:
    """Sequential phase offsets of the blocks laid out in ``layout``: block 1
    is the reference; each later block is rotated so its field adds in phase
    with the accumulated field of all earlier blocks at the crossover
    direction between them.  A block whose field is a perfect null at the
    crossover keeps offset 0."""
    u = np.array(crossovers).reshape(-1, 3)
    fields = (block_fields(geometry, layout, u) / math.sqrt(geometry.n_elements)).T.tolist()
    offsets = [0.0]
    for i, at_crossover in enumerate(fields, start=1):
        acc = sum(at_crossover[j] * cmath.exp(1j * offsets[j]) for j in range(i))
        own = at_crossover[i]
        if abs(acc) < _NULL_FIELD or abs(own) < _NULL_FIELD:
            offsets.append(0.0)
        else:
            offsets.append(cmath.phase(acc) - cmath.phase(own))
    return offsets


def covrage_beam(geometry: ArrayGeometry, pose_now: Pose, q_pred: Quaternion, ap_position: Sequence[float]) -> Awv:
    """Composite receive beam covering the AP-direction arc from the current
    pose to the predicted orientation ``q_pred``.

    With no predicted rotation this degenerates to a single steered beam at
    the current AP direction.
    """
    trajectory = trajectory_from_poses(pose_now, q_pred, ap_position)
    k = choose_block_count(geometry.cols, geometry.spacing_wavelengths, trajectory.span_deg)
    return steered_awv(geometry, plan_with_k(geometry, trajectory, k))
