"""Reference end-to-end SNR the tests check the batched link path against."""

import numpy as np

from xrsim.antenna import ArrayGeometry, Awv, gain_db
from xrsim.channel import link_snr_db
from xrsim.geometry import Pose, ap_direction_in_hmd_frame


def snr_db(
    config,
    ap_pose: Pose,
    ap_geometry: ArrayGeometry,
    ap_awv: Awv,
    hmd_pose: Pose,
    hmd_geometry: ArrayGeometry,
    hmd_awv: Awv,
) -> float:
    """Reference end-to-end SNR between two posed arrays.

    Each end's gain is evaluated toward the other end in its own local frame;
    the same gain applies for transmit and receive, so the result is
    symmetric in which end transmits.
    """
    distance = float(np.linalg.norm(ap_pose.position - hmd_pose.position))
    d_at_hmd = ap_direction_in_hmd_frame(hmd_pose, ap_pose.position)
    d_at_ap = ap_direction_in_hmd_frame(ap_pose, hmd_pose.position)
    return link_snr_db(
        config,
        gain_db(ap_geometry, ap_awv.phases, d_at_ap),
        gain_db(hmd_geometry, hmd_awv.phases, d_at_hmd),
        distance,
    )
