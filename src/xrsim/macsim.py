"""Event-driven downlink simulator.

The schedule is one slot per event kind: its pending event, if any, as a
``(time, rank, sequence)`` entry, else one at time inf, and the loop runs
the least.  At one instant events run in :data:`EVENT_KINDS` order: beacon
start, beamforming trigger, burst arrival, ``sim_end``, then the other kinds
in push order.  Beacons, triggers and bursts are periodic sources: event k
of one with period P runs at ``k * P`` for k < max(1, ceil(sim_time / P -
1e-9)).  A beacon or trigger pushes its own successor; the next arrival is
written, never pushed, wherever frames join the queue, array steps included.
The medium is busy while a BHI, sweep or MPDU end is pending.  Every
stochastic input is drawn before the first event runs: the rotation trace
and walk from the scenario seed; the quasi-omni pattern is a closed form
(:mod:`codebook`).  So two runs of the same config replay identically, down
to the bytes of the event log.

Medium model: drops and completions take the queue head and arrivals
append, so the MAC queue is ``frames[head:]``, the arrived frames neither
complete nor dropped.  Every burst's MPDUs are full size but the last
(:func:`config.burst_shape`), so the queue's one other state is ``sent``, the
head's delivered MPDU count.  A frame older than ``deadline`` is dropped.
Data MPDUs are non-preemptive; an MPDU in flight when a BHI (beacon header
interval) begins completes, and no transmission starts inside a BHI or sweep.
BHIs and sweeps never overlap each other.  A trigger only marks a sweep as
owed.  After every event, on a free medium, :meth:`Simulator._try_start_tx`
starts the owed sweep if it ends by the next target beacon transmission time
(TBTT, the pending beacon's start), and otherwise serves the queue.

Run service: up to the next event other than an arrival nothing but the MPDU
in flight and the known arrivals changes the MAC's state, so each start is
the previous MPDU's end or, on a drained queue, the next arrival.  So the
queue is served in array steps over the link batch (below), each up to the
next event, frame after frame.  The running sum of the batch's outcomes,
``snr >= snr_threshold_db``, gives a frame the attempt that completes it and
its first at the tail airtime; its attempts run back to back up to that one,
the last before a start at which it is stale, or one whose end is not the
next batch entry.  There the MAC decides as at an event.  A step stops at
the attempt that ends at or after the next event, the only one pushed as
``mpdu_tx_done``, at a start other than its batch entry bit for bit, or when
the queue drains with no arrival before that event.  A run of length 1 is
the plain one-event-per-MPDU schedule.  A step keeps no attempt: the retired
link batches' used prefixes are replayed into the log after the loop.

No MPDU starts before the first beamforming update: time 0 opens a BHI, at
whose end the owed t = 0 sweep starts (DTI) or the update itself happens
(A-BFT).  So there is no pre-sweep link state, and a quasi-omni pattern is
built only where it is a receive pattern: the headset's in the
``quasi_omni`` mode, and as the last entry of the ``sectors`` codebook.  The
AP transmits on steered sectors alone, so covrage builds none.

Link evaluation runs per beamforming epoch.  Between two updates the AWV
pair is fixed, so an MPDU's SNR is a function of its start time alone.  In
DTI mode no update comes before the next trigger, and a BHI changes neither
AWV; only while a sweep is owed, which may start at a BHI's end, does the
next TBTT bound the epoch, as it does on the A-BFT path, where every BHI end
beamforms.  Up to that horizon (or sim_time) the simulator predicts the
starts as the MAC takes them, every attempt with the outcome of the last
real one, and evaluates the link at all of them in one array computation
(:meth:`Link.snr_at`).  An array step uses an entry only when the MAC's
real start equals it bit for bit.  A mismatch or an update begins a new
batch.  The batch cap doubles after a batch is used to its end, so an epoch
takes a batch or two, and falls back to :data:`_LINK_BATCH` after a
mismatch; its ceiling bounds a batch's arrays.  Beside the link's SNRs a
batch keeps what a step reads: the delivered counts, a range or zeros where
every entry succeeds or none does; a break list when first read.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .antenna import ArrayGeometry, AwvEvaluator
from .channel import link_snr_db
from .codebook import cached_quasi_omni, generate_sector_codebook, steered_sectors
from .config import LINK_BATCH_CEILING, ConfigError, ScenarioConfig, burst_shape
from .covrage import covrage_beam
from .geometry import Pose, Quaternion, ap_direction_in_hmd_frame, predict_pose, rotate_into_frames
from .mobility import TraceSet, generate_rotation_trace, generate_walk, load_trace, pose_at, static_trace

# in the order they run at one instant; the kinds after sim_end share one
# rank and run in push order
EVENT_KINDS = ("beacon_start", "bf_trigger", "burst_arrival", "sim_end", "bhi_end", "sls_done", "mpdu_tx_done")
_RANK = {kind: min(i, EVENT_KINDS.index("sim_end") + 1) for i, kind in enumerate(EVENT_KINDS)}
# a slot whose kind has no pending event
_IDLE = {kind: (math.inf, _RANK[kind], 0, kind, None) for kind in EVENT_KINDS}

# ceiling-mounted array, boresight straight down (+x local -> -z world): a turn about y, (w, 0, s, 0)
AP_ORIENTATION = Quaternion.from_axis_angle((0.0, 1.0, 0.0), math.pi / 2.0)

# predicted MPDU start times per link-evaluation batch: the adaptive cap's
# floor; its ceiling is config.LINK_BATCH_CEILING, which the work cap counts
_LINK_BATCH = 128

# sweep candidates this close to the best gain (dB) tie; the lowest id wins
SWEEP_TIE_DB = 1e-9

# the event-log detail of an MPDU's end; mpdu is the burst's delivered count
_TX_DONE = "frame=%d mpdu=%d ok=%d start=%.9f"


@dataclass
class FrameRecord:
    """Lifecycle of one video frame; ``completed`` stays None if the sim ends
    or the queue drops it first."""

    frame_id: int
    created: float
    completed: Optional[float] = None
    delivered: bool = False


@dataclass
class RunResult:
    config: ScenarioConfig
    frames: list
    counters: dict
    events: Optional[list] = None  # (t, kind, detail) rows, formatted after the loop, in (time, rank) order
    tx_intervals: Optional[list] = None  # (start, end, ok, frame_id) per MPDU attempt, replayed after the loop
    bhi_intervals: Optional[list] = None
    sls_intervals: Optional[list] = None


def best_sector(gains_db: np.ndarray) -> int:
    """Sweep winner from the gains indexed by sector id: the lowest id whose
    gain is within :data:`SWEEP_TIE_DB` of the best."""
    return int((gains_db >= gains_db[gains_db.argmax()] - SWEEP_TIE_DB).argmax())


def _into_ap_frame(v: np.ndarray) -> np.ndarray:
    """The columns of a (3, M) array ``v`` turned into the AP's frame in place,
    x NaN: :func:`geometry.rotate_into_frames` with :data:`AP_ORIENTATION` up
    to a zero's sign.  Its x and z are 0, so with s' = -y only t_x = 2 (s' v_z),
    t_z = 2 (-(s' v_x)), u_y = v_y and u_z = (v_z + w t_z) - s' t_x are left."""
    w, s = AP_ORIENTATION.w, -AP_ORIENTATION.y
    tx, tz = 2.0 * (s * v[2]), 2.0 * -(s * v[0])
    v[2] = (v[2] + w * tz) - s * tx
    v[0] = math.nan
    return v


def write_event_log(path, events) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,kind,detail\n")
        for row in events:
            fh.write("%.9f,%s,%s\n" % row)


def _motion_seed(cfg: ScenarioConfig, child: int) -> np.random.SeedSequence:
    """Child ``child`` of ``SeedSequence(cfg.seed)``, as ``spawn`` makes it:
    child 0 draws the rotation trace and child 1 the walk."""
    return np.random.SeedSequence(cfg.seed, spawn_key=(child,))


def scenario_trace(cfg: ScenarioConfig) -> TraceSet:
    """The head-rotation trace a run of ``cfg`` reads: a motionless head over
    max(sim_time, 1 s), a trace generated at the ``rotation``'s peak speed,
    or the recorded file that ``rotation`` names."""
    if cfg.rotation == "static":
        return static_trace(max(cfg.sim_time, 1.0))
    if cfg.rotation in ("low", "high"):
        peak_dps = cfg.peak_dps_low if cfg.rotation == "low" else cfg.peak_dps_high
        return generate_rotation_trace(peak_dps, cfg.sim_time, cfg.trace_sample_rate, _motion_seed(cfg, 0))
    return load_trace(cfg.rotation)


def event_count(sim_time: float, period: float) -> int:
    """The count of a periodic source's events: k * period for k below it."""
    return max(1, int(math.ceil(sim_time / period - 1e-9)))


class Link:
    """The link of one scenario: the head trace and walk, both arrays, the
    sector sweeps and the AWV pair they set.  Build with a config; the MAC
    reads it through :meth:`snr_at` and :meth:`beamform`.

    Sector sweeps: the AP probes its 36 steered transmit sectors toward the
    headset, as the initiator's transmit sector sweep of IEEE 802.11ad does,
    and in the ``sectors`` mode the headset probes every entry of its
    codebook, the steered sectors and then the quasi-omni, toward the AP.
    Each sweep runs in one array pass over a batch of updates, a row per
    update (:meth:`_sweep_row`): a DTI batch holds one update, as the MAC
    decides when a sweep ends, and an A-BFT one the next BHI ends, up to
    :data:`LINK_BATCH_CEILING`, at times no MAC decision moves.  The winner
    is the lowest sector id within :data:`SWEEP_TIE_DB` of the best gain
    (:func:`best_sector`): mirror-image sectors about the probed direction
    tie up to rounding.  A gain shared by every candidate, such as the other
    end's quasi-omni listener, cannot move the winner, so the sweep leaves
    it out.

    A link batch forms each end's direction in y and z, all a gain reads (x
    is NaN): the headset's by :func:`geometry.rotate_into_frames`, the AP's
    fixed turn about y in closed form (:func:`_into_ap_frame`)."""

    def __init__(self, config: ScenarioConfig):
        self.cfg = cfg = config
        self.trace = scenario_trace(cfg)
        # only the covrage beam reads a prediction
        if cfg.rx_beamforming == "covrage" and cfg.prediction == "device" and not self.trace.has_device:
            raise ConfigError("prediction = device needs a trace with device-prediction columns")
        self.walk = generate_walk(
            cfg.x_bounds, cfg.y_bounds, cfg.walk_speed, cfg.walk_step_interval, cfg.sim_time, _motion_seed(cfg, 1)
        )
        self.ap_position = np.array(cfg.ap_position, dtype=float)
        self.ap_pose = Pose(0.0, self.ap_position, AP_ORIENTATION)

        self.ap_geometry = ArrayGeometry(cfg.ap_rows, cfg.ap_cols, cfg.spacing, cfg.carrier_hz)
        # the initiator's transmit sectors, stacked and indexed by sector id
        self.ap_sweep = AwvEvaluator(self.ap_geometry, steered_sectors(self.ap_geometry))

        rows, cols = cfg.hmd_shape()
        self.hmd_geometry = ArrayGeometry(rows, cols, cfg.spacing, cfg.carrier_hz)
        # the HMD quasi-omni is built only where it is a receive
        # pattern: the quasi_omni mode and the sectors codebook's last entry
        self.hmd_sweep = None
        if cfg.rx_beamforming == "sectors":
            codebook = generate_sector_codebook(self.hmd_geometry, cached_quasi_omni(self.hmd_geometry))
            self.hmd_sweep = AwvEvaluator(self.hmd_geometry, codebook)

        # the link's AWV pair, set by the sweeps, before which no MPDU
        # starts; only the quasi_omni mode's headset pattern is fixed
        self.ap_eval = None
        self.hmd_eval = None
        self._sector_links: dict = {}
        if cfg.rx_beamforming == "quasi_omni":
            self.hmd_eval = AwvEvaluator(self.hmd_geometry, cached_quasi_omni(self.hmd_geometry))
            self.hmd_label = "qo"
        self._rows = deque()  # the pending updates' (pose, AP gains, HMD gains) sweep rows

    def snr_at(self, ts: np.ndarray) -> np.ndarray:
        """Link SNR for the current AWV pair at an array of instants: the
        row-wise reference SNR of the posed arrays (``snr_db`` in
        ``tests/links.py``), equal to it up to rounding.  The batch is
        component-major from the walk and trace lookups to the budget, one
        contiguous row per component, so that no pass strides: what takes
        (M, 3) or (M, 4) rows reads the transposed view of a (3, M) or (4, M)
        array."""
        if self.ap_eval is None:
            raise RuntimeError("MPDU start before the first sweep at t=%.9f" % ts[0])
        toward = np.empty((3, len(ts)))  # from the AP to the headset
        dx, dy = np.subtract(self.walk.positions_at(ts).T, self.ap_position[:2, None], out=toward[:2])
        dz = toward[2] = self.cfg.hmd_height - self.ap_position[2]
        # np.einsum("ij,ij->i") over (M, 3) rows sums this, bit for bit with numpy
        # 2.4.6: 0 of 100,000 random rows differ (x*x + y*y + z*z: 22,705 do)
        distance = np.sqrt(dx * dx + dz * dz + dy * dy)
        toward /= distance
        d_at_hmd = rotate_into_frames(self.trace.orientations_at(ts), np.negative(toward).T)
        d_at_ap = _into_ap_frame(toward).T
        return link_snr_db(self.cfg, self.ap_eval.gains_db(d_at_ap), self.hmd_eval.gains_db(d_at_hmd), distance)

    def beamform(self, t: float) -> str:
        """Select the AP sector and refresh the HMD side at t; returns a log tag."""
        cfg = self.cfg
        hmd_pose, ap_gains, hmd_gains = self._sweep_row(t)
        self.ap_sector, self.ap_eval = self._sweep(self.ap_sweep, ap_gains)
        if cfg.rx_beamforming == "covrage":
            horizon = cfg.bf_interval if cfg.bf_location == "dti" else cfg.bi_duration
            q_pred = predict_pose(hmd_pose, horizon, cfg.prediction, self.trace, cfg.sim_time)
            awv = covrage_beam(self.hmd_geometry, hmd_pose, q_pred, self.ap_position)
            self.hmd_eval = AwvEvaluator(self.hmd_geometry, awv)
            self.hmd_label = "covrage"
        elif cfg.rx_beamforming == "sectors":
            best_id, self.hmd_eval = self._sweep(self.hmd_sweep, hmd_gains)
            self.hmd_label = "sector=%d" % best_id
        return "sector=%d hmd=%s" % (self.ap_sector, self.hmd_label)

    def _sweep_row(self, t: float) -> tuple:
        """The headset pose at the update t and both sweeps' gains: the
        batch's next row if its time is t bit for bit, else the first of a
        new batch, t and, on the A-BFT path, the BHI ends after it before
        sim_time; in DTI mode t alone, as the MAC decides when a sweep ends."""
        if not self._rows or self._rows[0][0].t != t:
            period, bhi, end = self.cfg.bi_duration, self.cfg.bhi_duration, self.cfg.sim_time
            ends = (j * period + bhi for j in range(max(0, int((t - bhi) / period)), event_count(end, period)))
            more = LINK_BATCH_CEILING - 1 if self.cfg.bf_location == "abft" else 0
            times = [t, *itertools.islice((e for e in ends if t < e < end), more)]
            poses = [pose_at(self.trace, self.walk, s, self.cfg.hmd_height) for s in times]
            # initiator sweep: every AP sector probed toward the headset
            ap = self.ap_sweep.gains_db(np.array([ap_direction_in_hmd_frame(self.ap_pose, p.position) for p in poses]))
            # responder sweep, in the sectors mode: every headset sector probed toward the AP
            hmd = itertools.repeat(None) if self.hmd_sweep is None else self.hmd_sweep.gains_db(
                np.array([ap_direction_in_hmd_frame(p, self.ap_position) for p in poses]))
            if np.isnan(ap).any() or self.hmd_sweep is not None and np.isnan(hmd).any():
                raise RuntimeError("NaN sweep gain in the batch from t=%.9f" % t)
            self._rows = deque(zip(poses, ap, hmd))
        # a row is taken once: released, it holds no memory past its update
        return self._rows.popleft()

    def _sweep(self, sweep: AwvEvaluator, gains: np.ndarray) -> tuple[int, AwvEvaluator]:
        """The winner of a sweep from its gains, indexed by sector id, and
        its link evaluator, built on the sector's first win and kept: a
        sector's weights never change."""
        best = best_sector(gains)
        if (sweep, best) not in self._sector_links:
            self._sector_links[sweep, best] = AwvEvaluator(sweep.geometry, sweep.awv[best])
        return best, self._sector_links[sweep, best]


class Simulator:
    """One scenario run.  Build with a config, call :meth:`run`."""

    def __init__(self, config: ScenarioConfig, collect_events: bool = False):
        self.cfg = config
        self.collect = collect_events
        self.link = Link(config)

        self.frames: list[FrameRecord] = []  # indexed by frame id
        self.head = 0  # the queue is frames[head:]
        self.sent = 0  # MPDUs of the head frame delivered
        self.burst_count, full_bits, tail_bits = burst_shape(config)
        self._full_airtime = self._airtime(full_bits)
        self._tail_airtime = self._airtime(tail_bits)

        self.sls_owed = False
        self._reserved_until = 0.0  # end of the latest BHI or sweep
        self._link_cap = _LINK_BATCH
        self._last_ok = True  # outcome of the latest attempt, which predicts the next
        self._batch_starts, self._batch_next = [], 0  # no link batch before the first sweep
        self._attempts = []  # under collect_events, each retired link batch's used (starts, SNRs)

        self.counters = dict.fromkeys(
            ("frames_total", "frames_delivered", "frames_dropped", "mpdu_attempts", "mpdu_failures", "sls_runs",
             "bf_updates", "bhi_count"), 0)
        self.events: list = []  # the handlers' (t, kind, detail) lines
        self.bhi_intervals: list = []
        self.sls_intervals: list = []

        self._slots = dict(_IDLE)
        self._seq = itertools.count()  # orders same-rank events at one instant
        periods = {"beacon_start": config.bi_duration, "burst_arrival": config.burst_interval}
        if config.bf_location == "dti":
            periods["bf_trigger"] = config.bf_interval
        # periodic source -> (period, event count)
        self._sources = {kind: (p, event_count(config.sim_time, p)) for kind, p in periods.items()}

    # -- event plumbing ---------------------------------------------------

    def _push(self, t: float, kind: str, payload=None) -> None:
        if self._slots[kind][0] != math.inf:
            raise RuntimeError("a %s event is already pending" % kind)
        self._slots[kind] = (t, _RANK[kind], next(self._seq), kind, payload)

    def _schedule(self, kind: str, k: int) -> None:
        """Push the k-th event of a periodic source, if it has one."""
        period, count = self._sources[kind]
        if k < count:
            self._push(k * period, kind, k)

    def _next_event_time(self) -> float:
        """Time of the next event but an arrival; it bounds a run of MPDUs."""
        s = self._slots
        return min(s["beacon_start"][0], s["bf_trigger"][0], s["sim_end"][0],
                   s["bhi_end"][0], s["sls_done"][0], s["mpdu_tx_done"][0])

    def _busy(self) -> bool:
        """Whether a BHI, sweep or MPDU holds the medium: its end is pending."""
        s = self._slots
        return s["bhi_end"][0] != math.inf or s["sls_done"][0] != math.inf or s["mpdu_tx_done"][0] != math.inf

    def _log(self, t: float, kind: str, detail: str) -> None:
        if self.collect:
            self.events.append((t, kind, detail))

    def _new_link_epoch(self) -> None:
        """Retire the link batch, keeping its used starts and SNRs under
        collect_events; called when either AWV changes, before a new batch is
        predicted and after the loop."""
        if self.collect and self._batch_next:
            self._attempts.append((self._batch_at[:self._batch_next], self._batch_snr[:self._batch_next]))
        self._batch_starts, self._batch_next = [], 0

    def _link_index(self, t: float) -> int:
        """Index in the link batch of an MPDU starting at t, which takes the
        entry: the batch's next entry when t is its predicted start bit for
        bit, else the first entry of a new batch predicted from t, the cap
        doubled (up to the ceiling) if the old batch was used to its end or
        reset to the floor if t missed it."""
        k = self._batch_next
        starts = self._batch_starts
        if k >= len(starts) or starts[k] != t:
            if k < len(starts):
                self._link_cap = _LINK_BATCH
            elif len(starts):
                self._link_cap = min(2 * self._link_cap, LINK_BATCH_CEILING)
            self._new_link_epoch()
            self._batch_starts = self._predicted_starts(t)
            self._batch_at = np.fromiter(self._batch_starts, float, len(self._batch_starts))
            self._batch_snr = self.link.snr_at(self._batch_at)
            if np.isnan(self._batch_snr).any():
                raise RuntimeError("NaN link SNR in the batch from t=%.9f" % t)
            # MPDUs delivered before each entry and after the last: a range or zeros if all or none succeed
            ok = self._batch_snr >= self.cfg.snr_threshold_db
            n, n_ok = len(ok), int(np.count_nonzero(ok))
            self._batch_done = range(n + 1) if n_ok == n else [0] + np.cumsum(ok).tolist() if n_ok else [0] * (n + 1)
            self._batch_breaks = [None, None]  # built on their first read (_next_break)
            k = 0
        self._batch_next = k + 1
        return k

    def _next_break(self, tail: int, i: int) -> int:
        """The first batch entry from i on not followed by its end at the full
        (``tail`` 0) or tail (1) airtime, else n + 1 (n entries): each list of
        them is built on its first read in a batch, and none is read for i >= n."""
        at, breaks = self._batch_at, self._batch_breaks
        if i < len(at) and breaks[tail] is None:
            air = self._tail_airtime if tail else self._full_airtime
            breaks[tail] = np.flatnonzero(at[:-1] + air != at[1:]).tolist() + [len(at) + 1]
        return breaks[tail][bisect_left(breaks[tail], i)] if i < len(at) else len(at) + 1

    def _predicted_starts(self, t: float) -> list:
        """t, at which the queue head starts, and the start times that follow
        while the head and every later burst are served, each from the later
        of its arrival and the previous MPDU's end, every attempt with the
        outcome of the last real one: after a success each MPDU goes at its
        first attempt, after a failure each burst's next MPDU is retried at
        its own airtime.  Frames that age out are dropped as
        :meth:`_next_start` would.  A DTI beacon header changes neither
        AWV, so a start at or after a TBTT moves to the later of itself and
        the BHI's end, where the MAC takes its next decision.  At most
        ``_link_cap`` starts, none at or after the horizon: the next trigger
        or sim_time, and the next TBTT on the A-BFT path, where every BHI end
        beamforms, or while a sweep is owed, which may start at a BHI's end."""
        cfg = self.cfg
        drop_age, cap, count = cfg.deadline, self._link_cap, self.burst_count
        horizon = min(self._slots["bf_trigger"][0], cfg.sim_time)
        tbtt, _, _, _, j = self._slots["beacon_start"]  # j: the index _schedule pushed
        if cfg.bf_location == "abft" or self.sls_owed:
            horizon, tbtt = min(horizon, tbtt), math.inf
        bound = min(horizon, tbtt)  # the one comparison per start
        full, tail = self._full_airtime, self._tail_airtime
        period, n_bursts = self._sources["burst_arrival"]
        bi, n_beacons = self._sources["beacon_start"]
        starts = []
        for k in range(self.head, n_bursts):
            arrival = k * period  # as _schedule computes it, bit for bit
            sent = self.sent if k == self.head else 0
            t = max(t, arrival)  # an idle medium waits for the arrival
            if self._last_ok:
                airtimes = itertools.chain(itertools.repeat(full, count - 1 - sent), (tail,))
            else:
                airtimes = itertools.repeat(full if sent < count - 1 else tail)
            for airtime in airtimes:
                if starts and t >= bound:
                    while tbtt <= t < horizon:
                        # the BHI ends as _reserve computes it; the next TBTT
                        # is taken as _schedule computes it
                        t = max(t, tbtt + cfg.bhi_duration)
                        j += 1
                        tbtt = j * bi if j < n_beacons else math.inf
                    if t >= horizon:
                        return starts
                    bound = min(horizon, tbtt)
                if t - arrival > drop_age:
                    break  # t stands still, so the rest of the frame is stale too
                if len(starts) == cap:
                    return starts
                starts.append(t)
                t = t + airtime
        return starts

    def _airtime(self, size_bits: int) -> float:
        return size_bits / self.cfg.phy_rate_bps + self.cfg.per_mpdu_overhead

    # -- beamforming ------------------------------------------------------

    def _apply_beamform(self, t: float) -> str:
        """Beamform the link at t, which begins a new link epoch; returns a log tag."""
        tag = self.link.beamform(t)
        self._new_link_epoch()
        self.counters["bf_updates"] += 1
        return tag

    # -- medium -----------------------------------------------------------

    def _reserve(self, t: float, duration: float, intervals: list) -> float:
        """Open a BHI or sweep window at t; returns its end."""
        if t < self._reserved_until:
            raise RuntimeError("BHI or sweep at t=%.9f overlaps one ending at %.9f" % (t, self._reserved_until))
        self._reserved_until = t + duration
        if self.collect:
            intervals.append((t, self._reserved_until))
        return self._reserved_until

    def _sls_fits(self, t: float) -> bool:
        """Whether a sweep that starts at t ends by the next TBTT."""
        return t + self.cfg.sls_duration <= self._slots["beacon_start"][0]

    def _begin_sls(self, t: float) -> None:
        self.counters["sls_runs"] += 1
        self._push(self._reserve(t, self.cfg.sls_duration, self.sls_intervals), "sls_done")

    def _admit(self, t: float) -> None:
        """Append every frame that has arrived by t to the queue, and write
        the next arrival into its slot."""
        if t < self._slots["burst_arrival"][0] < math.inf:
            return  # that arrival is already in its slot
        period, count = self._sources["burst_arrival"]
        k = len(self.frames)
        while k < count and k * period <= t:  # as _schedule computes it
            self.frames.append(FrameRecord(k, k * period))
            self.counters["frames_total"] = k = k + 1
        self._slots["burst_arrival"] = (k * period if k < count else math.inf,) + _IDLE["burst_arrival"][1:]

    def _next_start(self, t: float, horizon: float) -> Optional[float]:
        """The queue head's start on a free medium at t, once the frames that
        arrived by t join the queue and stale ones leave it; a drained queue
        waits for the next arrival.  None if none comes before the horizon."""
        self._admit(t)
        frames = self.frames
        while self.head < len(frames) and (t - frames[self.head].created) > self.cfg.deadline:
            self.head, self.sent = self.head + 1, 0
            self.counters["frames_dropped"] += 1
        if self.head == len(frames):
            t = self._slots["burst_arrival"][0]
            if t >= horizon:
                return None
            self._admit(t)
        return t

    def _try_start_tx(self, t: float) -> None:
        """The one decision after each event on a free medium: the owed sweep
        if it ends by the next TBTT, else the queue, served right here in array
        steps up to the next event (run service, see the module docstring)."""
        if self._busy():
            return
        # until the next event t only grows and the TBTT stays fixed, so a
        # sweep that does not fit now fits at no later decision either
        if self.sls_owed and self._sls_fits(t):
            self.sls_owed = False
            self._begin_sls(t)
            return
        horizon = self._next_event_time()
        t = self._next_start(t, horizon)
        while t is not None:
            if t < self._reserved_until:
                raise RuntimeError("MPDU start at t=%.9f inside a BHI or sweep" % t)
            t = self._step(t, horizon)

    def _step(self, t: float, horizon: float) -> Optional[float]:
        """One array step over the link batch from the queue head's start t,
        frame after frame, up to the first attempt that ends at or after the
        horizon (it is pushed as the next event) or the first start other
        than its batch entry, which is returned.  None if an attempt is
        pushed or the queue drains with no arrival before the horizon."""
        full, tail, deadline = self._full_airtime, self._tail_airtime, self.cfg.deadline
        k = self._link_index(t)
        starts, done = self._batch_starts, self._batch_done
        # no attempt after the one that reaches the horizon is in the step
        hi = max(k + 1, bisect_left(starts, horizon))
        i = k
        while True:
            created, base, left = self.frames[self.head].created, done[i], self.burst_count - self.sent
            tail_from = bisect_left(done, base + left - 1, i)
            full_break = self._next_break(0, i)
            # the frame's attempts run back to back up to the first that
            # completes it, is followed by a stale start or breaks the batch
            r = min(
                hi - 1, bisect_left(done, base + left, i + 1) - 1,
                bisect_left(starts, True, i + 1, hi, key=lambda s: s - created > deadline) - 1,
                full_break if full_break < tail_from else hi, self._next_break(1, tail_from),
            )
            end = starts[r] + (full if r < tail_from else tail)
            if end >= horizon:
                self.sent += done[r] - base
                self._push(end, "mpdu_tx_done", done[r + 1] > done[r])
                t = None
                break
            self._deliver(done[r + 1] - base, end)
            t = self._next_start(end, horizon)
            if t is None or r + 1 == hi or starts[r + 1] != t:
                break
            i = r + 1
        self._batch_next = r + 1
        self._last_ok = done[r + 1] > done[r]
        self.counters["mpdu_attempts"] += r + 1 - k
        self.counters["mpdu_failures"] += r + 1 - k - (done[r + 1] - done[k])
        return t

    def _deliver(self, n_ok: int, t: float) -> None:
        """Count ``n_ok`` more of the queue head's MPDUs delivered by attempts
        that end by t; a burst delivered whole completes its frame at t."""
        self.sent += n_ok
        if self.sent == self.burst_count:
            rec = self.frames[self.head]
            self.head, self.sent = self.head + 1, 0
            rec.completed = t
            rec.delivered = (t - rec.created) <= self.cfg.deadline
            self.counters["frames_delivered"] += rec.delivered

    # -- handlers ---------------------------------------------------------

    def _on_beacon_start(self, t: float, index: int) -> None:
        self._schedule("beacon_start", index + 1)
        self.counters["bhi_count"] += 1
        self._log(t, "beacon_start", "index=%d" % index)
        self._push(self._reserve(t, self.cfg.bhi_duration, self.bhi_intervals), "bhi_end")

    def _on_bhi_end(self, t: float, _) -> None:
        self._log(t, "bhi_end", self._apply_beamform(t) if self.cfg.bf_location == "abft" else "")

    def _on_bf_trigger(self, t: float, index: int) -> None:
        self._schedule("bf_trigger", index + 1)
        self.sls_owed = True
        # logged before the decision, which may serve MPDUs ending after t
        postponed = self._slots["bhi_end"][0] != math.inf or not self._sls_fits(t)
        waits = "pending" if self._busy() else "start"
        self._log(t, "bf_trigger", "postponed" if postponed else waits)

    def _on_sls_done(self, t: float, _) -> None:
        detail = self._apply_beamform(t)
        self._log(t, "sls_done", detail)

    def _on_burst_arrival(self, t: float, _) -> None:
        self._admit(t)

    def _on_mpdu_tx_done(self, t: float, ok: bool) -> None:
        # drops only run on a free medium, so the MPDU's frame is still the head
        self._deliver(int(ok), t)

    # -- loop -------------------------------------------------------------

    def run(self) -> RunResult:
        # every run opens with a beacon at t = 0
        if self.counters["bhi_count"]:
            raise RuntimeError("a Simulator runs once: build a new one for another run")
        for kind in self._sources:
            if kind != "burst_arrival":
                self._schedule(kind, 0)
        self._push(self.cfg.sim_time, "sim_end")
        self._admit(-math.inf)  # admits none: writes frame 0's arrival at t = 0

        slots, last_t = self._slots, 0.0
        while True:
            t, _, _, kind, payload = min(slots.values())
            slots[kind] = _IDLE[kind]
            if t < last_t:
                raise RuntimeError("event time ran back from %.9f to %.9f" % (last_t, t))
            last_t = t
            if kind == "sim_end":
                self._log(t, "sim_end", "")
                break
            getattr(self, "_on_" + kind)(t, payload)
            self._try_start_tx(t)
            # work conservation: a nonempty queue never waits on a free medium
            if self.head < len(self.frames) and not self._busy():
                raise RuntimeError("medium idle with pending data at t=%.9f" % t)

        self._new_link_epoch()
        logs = (*self._event_log(), self.bhi_intervals, self.sls_intervals) if self.collect else ()
        return RunResult(self.cfg, self.frames, dict(self.counters), *logs)

    def _event_log(self) -> tuple[list, list]:
        """The handlers' lines, one per admitted frame and one per attempt ending
        before sim_time, in (time, rank) order, derived lines first in a tie,
        and the ``tx_intervals`` rows, from one replay of the retired prefixes
        on the frame records: at a start the head leaves if its burst is done
        or by the MAC's drop rule, and its last MPDU takes the tail airtime."""
        frames, count, full, tail = self.frames, self.burst_count, self._full_airtime, self._tail_airtime
        threshold, deadline, sim_time = self.cfg.snr_threshold_db, self.cfg.deadline, self.cfg.sim_time
        lines = [(f.created, "burst_arrival", "frame=%d mpdus=%d" % (f.frame_id, count)) for f in frames]
        rows, head, sent = [], 0, 0  # sent: the head's MPDUs delivered so far
        for at, snr in self._attempts:
            for start, ok in zip(at.tolist(), (snr >= threshold).tolist()):
                while sent == count or (start - frames[head].created) > deadline:
                    head, sent = head + 1, 0
                end = start + (tail if sent == count - 1 else full)
                sent += ok
                rows.append((start, end, ok, head))
                if end < sim_time:
                    lines.append((end, "mpdu_tx_done", _TX_DONE % (head, sent, ok, start)))
        return sorted(lines + self.events, key=lambda row: (row[0], _RANK[row[1]])), rows


def run(config: ScenarioConfig, collect_events: bool = False) -> RunResult:
    """Run one scenario to completion and return every frame's record."""
    return Simulator(config, collect_events).run()
