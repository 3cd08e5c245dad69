"""Every link batch of a run, recorded: the MPDU starts the simulator
evaluated the link at and the SNR it got, as bytes, so that a test can pin
the floats of the link path and not only the outcomes they decide."""

import hashlib


def record_link_batches(sim) -> list[tuple[bytes, bytes]]:
    """Run ``sim``, a fresh :class:`xrsim.macsim.Simulator`, and return each
    link batch's starts and SNR bytes, in the order it evaluated them."""
    batches = []
    snr_at = sim.link.snr_at

    def recording(ts):
        snr = snr_at(ts)
        batches.append((ts.tobytes(), snr.tobytes()))
        return snr

    sim.link.snr_at = recording
    sim.run()
    return batches


def batches_digest(batches) -> str:
    """SHA-256 over the recorded batches, starts then SNR, batch by batch."""
    h = hashlib.sha256()
    for starts, snr in batches:
        h.update(starts)
        h.update(snr)
    return h.hexdigest()
