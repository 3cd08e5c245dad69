"""Event-driven downlink simulator.

One heap of ``(time, rank, sequence)`` entries drives the beacon-interval
schedule, sector sweeps, burst traffic and per-MPDU transmission.  At one
instant events run in :data:`EVENT_KINDS` order: beacon start, beamforming
trigger, burst arrival, ``sim_end``, then the other kinds in push order.
Beacons, triggers and bursts are periodic sources that push their own
successor: event k of a source with period P runs at ``k * P`` for
k < max(1, ceil(sim_time / P - 1e-9)), so the heap stays a few entries
long.  Every stochastic input is drawn before the first event runs: the
rotation trace and walk from the scenario seed, the quasi-omni pattern from
the fixed seed of its synthesis budget (:mod:`codebook`).  So two runs of
the same config replay identically, down to the bytes of the event log.

Medium model: drops and completions take the queue head and arrivals
append, so the MAC queue is ``frames[head:]``, the arrived frames neither
complete nor dropped.  Every burst's MPDUs are full size but the last
(:func:`config.burst_shape`), so the queue's one other state is ``sent``, the
head's delivered MPDU count.  A frame older than ``deadline`` is dropped.
Data MPDUs are non-preemptive; an MPDU in flight when a BHI (beacon header
interval) begins completes, and no transmission starts inside a BHI or sweep.
BHIs and sweeps never overlap each other.  A trigger only marks a sweep as
owed.  Whenever the medium is free, :meth:`Simulator._try_start_tx` starts
the owed sweep if it ends by the next target beacon transmission time
(TBTT, the pending beacon's start), and otherwise serves the queue head.

Run service: between two heap events nothing but the MPDU in flight can
change the MAC's state, so each start is the previous one plus an airtime.
:meth:`Simulator._try_start_tx` therefore serves the queue head in array
steps over the link batch (below).  From a start that is the batch entry k,
the outcomes are ``snr >= snr_threshold_db``, the MPDU index before each
attempt is ``sent + cumsum(ok) - ok``, which gives each attempt its full or
tail airtime, and ``ends = starts + airtime``.  A step stops at the first
attempt that ends at or after the next heap event, completes the burst, is
followed by a start that fails the age check, or is followed by a batch
entry that differs from its end bit for bit.  The counters, the
``tx_intervals`` and the event lines come from the same arrays, with the
drop rule applied at each step's end as at every start of a heap
round-trip.  Only the MPDU that ends at or after the next heap event is
pushed as ``mpdu_tx_done``, so a tie with a heap time runs in
:data:`EVENT_KINDS` order as before.  A run of length 1 is the plain
one-event-per-MPDU schedule.

Sector sweeps: the AP probes its 36 steered transmit sectors toward the
headset, as the initiator's transmit sector sweep of IEEE 802.11ad does, and
in the ``sectors`` mode the headset probes every entry of its codebook, the
steered sectors and then the quasi-omni, toward the AP.  Each sweep is one
array pass over its stacked weight vectors.  The winner is the lowest sector
id whose gain is within :data:`SWEEP_TIE_DB` of the best
(:func:`best_sector`).  Mirror-image sectors about the probed direction have
equal gains up to rounding, so without the tolerance their order would be
decided by summation order.  A gain shared by every candidate, such as the
other end's quasi-omni listener, cannot move the winner, so the sweep leaves
it out.

No MPDU starts before the first beamforming update: time 0 opens a BHI, at
whose end the owed t = 0 sweep starts (DTI) or the update itself happens
(A-BFT).  So there is no pre-sweep link state, and a quasi-omni pattern is
built only where it is a receive pattern: the headset's in the
``quasi_omni`` mode, and as the last entry of the ``sectors`` codebook.  The
AP transmits on steered sectors alone, so covrage synthesizes none; at
64x64 that synthesis is the costliest set-up step.

Link evaluation runs per beamforming epoch.  Between two updates the AWV
pair is fixed, so an MPDU's SNR is a function of its start time alone, and
no update comes before the next TBTT or trigger.  Up to that horizon (or
sim_time) the queue is served back to back and bursts arrive at the known
times ``k * period``: each start is the previous MPDU's end, or the next
arrival if the queue has drained by then.  So the simulator predicts the
starts through the queued and the coming bursts up to the horizon, with the
age check at each and every attempt taking the outcome of the last real
one: after a success each MPDU goes once, after a failure each burst's next
MPDU is retried at its own airtime until its frame ages out.  It evaluates
the link at all of them in one array computation (:meth:`Simulator.snr_at`),
and an array step uses an entry only when the MAC's real start equals it
bit for bit.  A mismatch or an update begins a new batch.  The batch cap
doubles after a batch is used to its end, so an epoch takes a batch or two,
and falls back to :data:`_LINK_BATCH` after a mismatch, so an outcome that
changes and shifts every later start wastes little.  Its ceiling bounds a
batch's arrays (M x 64 complex values per M starts at 64x64): a one-second
epoch at 8 Gbps and 1000-byte MPDUs is 240,000 starts.  A step's arrays
stop at the next heap event, so a burst pays for its own entries only.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .antenna import ArrayGeometry, AwvEvaluator
from .channel import link_snr_db
from .codebook import cached_quasi_omni, generate_sector_codebook, steered_sectors
from .config import ConfigError, ScenarioConfig, burst_shape
from .covrage import covrage_beam
from .geometry import Pose, Quaternion, ap_direction_in_hmd_frame, predict_pose, rotate_into_frames
from .mobility import generate_rotation_trace, generate_walk, load_trace, pose_at, static_trace

# in the order they run at one instant; the kinds after sim_end share one
# rank and run in push order
EVENT_KINDS = (
    "beacon_start", "bf_trigger", "burst_arrival", "sim_end", "bhi_end", "sls_done", "mpdu_tx_done",
)
_RANK = {kind: min(i, EVENT_KINDS.index("sim_end") + 1) for i, kind in enumerate(EVENT_KINDS)}

# ceiling-mounted array, boresight straight down (+x local -> -z world)
AP_ORIENTATION = Quaternion.from_axis_angle((0.0, 1.0, 0.0), math.pi / 2.0)

# predicted MPDU start times per link-evaluation batch: the adaptive cap's
# floor and its ceiling
_LINK_BATCH = 128
_LINK_BATCH_CEILING = 16 * _LINK_BATCH

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


@dataclass(frozen=True)
class SimEvent:
    t: float
    kind: str
    payload: str = ""


@dataclass
class RunResult:
    config: ScenarioConfig
    frames: list
    counters: dict
    events: Optional[list] = None
    tx_intervals: Optional[list] = None  # (start, end, ok, frame_id)
    bhi_intervals: Optional[list] = None
    sls_intervals: Optional[list] = None


def best_sector(gains_db: np.ndarray) -> int:
    """Sweep winner from the gains indexed by sector id: the lowest id whose
    gain is within :data:`SWEEP_TIE_DB` of the best."""
    return int(np.argmax(gains_db >= gains_db.max() - SWEEP_TIE_DB))


def write_event_log(path, events) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,kind,detail\n")
        for ev in events:
            fh.write("%.9f,%s,%s\n" % (ev.t, ev.kind, ev.payload))


class Simulator:
    """One scenario run.  Build with a validated config, call :meth:`run`."""

    def __init__(self, config: ScenarioConfig, collect_events: bool = False):
        config.validate()
        self.cfg = config
        self.collect = collect_events

        self._build_motion()
        self._build_arrays()

        self.frames: list[FrameRecord] = []  # indexed by frame id
        self.head = 0  # the queue is frames[head:]
        self.sent = 0  # MPDUs of the head frame delivered
        self.burst_count, full_bits, tail_bits = burst_shape(config)
        self._full_airtime = self._airtime(full_bits)
        self._tail_airtime = self._airtime(tail_bits)

        self.in_bhi = False
        self.sls_active = False
        self.sls_owed = False
        self.tx_busy = False
        self.next_tbtt = 0.0  # every run opens with a beacon at t = 0
        self._reserved_until = 0.0  # end of the latest BHI or sweep
        self._link_cap = _LINK_BATCH
        self._last_ok = True  # outcome of the latest attempt, which predicts the next
        self._new_link_epoch()

        self.counters = {
            "frames_total": 0,
            "frames_delivered": 0,
            "frames_dropped": 0,
            "mpdu_attempts": 0,
            "mpdu_failures": 0,
            "sls_runs": 0,
            "bf_updates": 0,
            "bhi_count": 0,
        }
        self.events: list[SimEvent] = []
        self.tx_intervals: list = []
        self.bhi_intervals: list = []
        self.sls_intervals: list = []

        self._heap: list = []
        self._seq = itertools.count()
        periods = {"beacon_start": config.bi_duration, "burst_arrival": config.burst_interval}
        if config.bf_location == "dti":
            periods["bf_trigger"] = config.bf_interval
        # periodic source -> (period, event count)
        self._sources = {
            kind: (p, max(1, int(math.ceil(config.sim_time / p - 1e-9)))) for kind, p in periods.items()
        }
        # a DTI run opens with a trigger at t = 0, an A-BFT run has none
        self.next_trigger = 0.0 if "bf_trigger" in self._sources else math.inf

    # -- setup ------------------------------------------------------------

    def _build_motion(self) -> None:
        cfg = self.cfg
        ss = np.random.SeedSequence(cfg.seed)
        trace_seed, walk_seed = ss.spawn(2)
        if cfg.rotation == "static":
            self.trace = static_trace(max(cfg.sim_time, 1.0))
        elif cfg.rotation in ("low", "high"):
            peak_dps = cfg.peak_dps_low if cfg.rotation == "low" else cfg.peak_dps_high
            self.trace = generate_rotation_trace(peak_dps, cfg.sim_time, cfg.trace_sample_rate, trace_seed)
        else:
            self.trace = load_trace(cfg.rotation)
        if cfg.prediction == "device" and not self.trace.has_device:
            raise ConfigError("prediction = device needs a trace with device-prediction columns")
        self.walk = generate_walk(
            cfg.x_bounds,
            cfg.y_bounds,
            cfg.walk_speed,
            cfg.walk_step_interval,
            cfg.sim_time,
            walk_seed,
        )
        self.ap_position = np.array(cfg.ap_position, dtype=float)
        self.ap_pose = Pose(0.0, self.ap_position, AP_ORIENTATION)
        q = AP_ORIENTATION
        self._ap_quat = np.array([q.w, q.x, q.y, q.z])

    def _build_arrays(self) -> None:
        cfg = self.cfg
        self.ap_geometry = ArrayGeometry(cfg.ap_rows, cfg.ap_cols, cfg.spacing, cfg.carrier_hz)
        # the initiator's transmit sectors, stacked and indexed by sector id
        self.ap_sweep = AwvEvaluator(self.ap_geometry, steered_sectors(self.ap_geometry))

        rows, cols = cfg.hmd_shape()
        self.hmd_geometry = ArrayGeometry(rows, cols, cfg.spacing, cfg.carrier_hz)
        # the HMD quasi-omni is synthesized only where it is a receive
        # pattern: the quasi_omni mode and the sectors codebook's last entry
        self.hmd_sweep = None
        if cfg.rx_beamforming == "sectors":
            codebook = generate_sector_codebook(self.hmd_geometry, cached_quasi_omni(self.hmd_geometry))
            self.hmd_sweep = AwvEvaluator(self.hmd_geometry, codebook)

        # the link's AWV pair, set by the sweeps, before which no MPDU
        # starts; only the quasi_omni mode's headset pattern is fixed
        self.ap_eval = None
        self.hmd_eval = None
        if cfg.rx_beamforming == "quasi_omni":
            self.hmd_eval = AwvEvaluator(self.hmd_geometry, cached_quasi_omni(self.hmd_geometry))
            self.hmd_label = "qo"

    # -- event plumbing ---------------------------------------------------

    def _push(self, t: float, kind: str, payload=None) -> None:
        heapq.heappush(self._heap, (t, _RANK[kind], next(self._seq), kind, payload))

    def _schedule(self, kind: str, k: int) -> float:
        """Push the k-th event of a periodic source; returns its time, or
        inf when the source has no k-th event."""
        period, count = self._sources[kind]
        if k >= count:
            return math.inf
        self._push(k * period, kind, k)
        return k * period

    def _next_event_time(self) -> float:
        """Time of the next heap event, which bounds a run of MPDUs."""
        return self._heap[0][0] if self._heap else math.inf

    def _log(self, t: float, kind: str, detail: str) -> None:
        if self.collect:
            self.events.append(SimEvent(t, kind, detail))

    # -- channel ----------------------------------------------------------

    def _hmd_pose(self, t: float) -> Pose:
        return pose_at(self.trace, self.walk, t, self.cfg.hmd_height)

    def snr_at(self, ts: np.ndarray) -> np.ndarray:
        """Link SNR for the current AWV pair at an array of instants: the
        row-wise ``channel.snr_db`` of the posed arrays, equal to it up to
        rounding."""
        xy = self.walk.positions_at(ts)
        hmd_position = np.column_stack([xy, np.full(len(ts), self.cfg.hmd_height)])
        diff = hmd_position - self.ap_position
        distance = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        toward_hmd = diff / distance[:, None]
        d_at_ap = rotate_into_frames(self._ap_quat, toward_hmd)
        d_at_hmd = rotate_into_frames(self.trace.orientations_at(ts), -toward_hmd)
        return link_snr_db(
            self.cfg,
            self.ap_eval.gains_db(d_at_ap),
            self.hmd_eval.gains_db(d_at_hmd),
            distance,
        )

    def _new_link_epoch(self) -> None:
        """Forget the link batch; called whenever either AWV changes."""
        self._batch_starts = np.empty(0)
        self._batch_snr = np.empty(0)
        self._batch_next = 0

    def _link_index(self, t: float) -> int:
        """Index in the link batch of an MPDU starting at t, which takes the
        entry: the batch's next entry when t is its predicted start bit for
        bit, else the first entry of a new batch predicted from t, the cap
        doubled (up to the ceiling) if the old batch was used to its end or
        reset to the floor if t missed it."""
        k = self._batch_next
        starts = self._batch_starts
        if k >= len(starts) or starts[k] != t:
            if self.ap_eval is None:
                raise RuntimeError("MPDU start before the first sweep at t=%.9f" % t)
            if k < len(starts):
                self._link_cap = _LINK_BATCH
            elif len(starts):
                self._link_cap = min(2 * self._link_cap, _LINK_BATCH_CEILING)
            self._batch_starts = np.array(self._predicted_starts(t))
            self._batch_snr = self.snr_at(self._batch_starts)
            k = 0
        self._batch_next = k + 1
        return k

    def _predicted_starts(self, t: float) -> list:
        """t, at which the queue head starts, and the start times that follow
        while the head and every later burst are served, each from the later
        of its arrival and the previous MPDU's end, every attempt with the
        outcome of the last real one: after a success each MPDU goes at its
        first attempt, after a failure each burst's next MPDU is retried at
        its own airtime.  Frames that age out are dropped as
        :meth:`_drop_expired` would.  At most ``_link_cap`` starts, none at or
        after the horizon (next TBTT, next trigger, sim_time)."""
        drop_age, cap, count = self.cfg.deadline, self._link_cap, self.burst_count
        horizon = min(self.next_tbtt, self.next_trigger, self.cfg.sim_time)
        full, tail = self._full_airtime, self._tail_airtime
        period, n_bursts = self._sources["burst_arrival"]
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
                if t - arrival > drop_age:
                    break  # t stands still, so the rest of the frame is stale too
                if starts and (t >= horizon or len(starts) == cap):
                    return starts
                starts.append(t)
                t = t + airtime
        return starts

    def _airtime(self, size_bits: int) -> float:
        return size_bits / self.cfg.phy_rate_bps + self.cfg.per_mpdu_overhead

    # -- beamforming ------------------------------------------------------

    def _apply_beamform(self, t: float) -> str:
        """Select the AP sector and refresh the HMD side; returns a log tag."""
        cfg = self.cfg
        hmd_pose = self._hmd_pose(t)
        # initiator sweep: every AP sector probed toward the headset
        d_at_ap = ap_direction_in_hmd_frame(self.ap_pose, hmd_pose.position)
        self.ap_sector = best_sector(self.ap_sweep.gain_db(d_at_ap))
        self.ap_eval = AwvEvaluator(self.ap_geometry, self.ap_sweep.awv[self.ap_sector])

        if cfg.rx_beamforming == "covrage":
            horizon = cfg.bf_interval if cfg.bf_location == "dti" else cfg.bi_duration
            q_pred = predict_pose(hmd_pose, horizon, cfg.prediction, self.trace, cfg.sim_time)
            awv = covrage_beam(self.hmd_geometry, hmd_pose, q_pred, self.ap_position)
            self.hmd_eval = AwvEvaluator(self.hmd_geometry, awv)
            self.hmd_label = "covrage"
        elif cfg.rx_beamforming == "sectors":
            # responder sweep: every headset sector probed toward the AP
            d_at_hmd = ap_direction_in_hmd_frame(hmd_pose, self.ap_position)
            best_id = best_sector(self.hmd_sweep.gain_db(d_at_hmd))
            self.hmd_eval = AwvEvaluator(self.hmd_geometry, self.hmd_sweep.awv[best_id])
            self.hmd_label = "sector=%d" % best_id
        self._new_link_epoch()
        self.counters["bf_updates"] += 1
        return "sector=%d hmd=%s" % (self.ap_sector, self.hmd_label)

    # -- medium -----------------------------------------------------------

    def _reserve(self, t: float, duration: float, intervals: list) -> float:
        """Open a BHI or sweep window at t; returns its end."""
        if t < self._reserved_until:
            raise RuntimeError("BHI or sweep at t=%.9f overlaps one ending at %.9f" % (t, self._reserved_until))
        self._reserved_until = t + duration
        if self.collect:
            intervals.append((t, self._reserved_until))
        return self._reserved_until

    def _begin_sls(self, t: float) -> None:
        self.sls_active = True
        self.counters["sls_runs"] += 1
        self._push(self._reserve(t, self.cfg.sls_duration, self.sls_intervals), "sls_done")

    def _drop_expired(self, t: float) -> None:
        frames, deadline = self.frames, self.cfg.deadline
        while self.head < len(frames) and (t - frames[self.head].created) > deadline:
            self.head += 1
            self.sent = 0
            self.counters["frames_dropped"] += 1

    def _try_start_tx(self, t: float) -> None:
        """The one decision on a free medium: the owed sweep if it ends by
        the next TBTT, else the queue head.  The head's MPDUs that end
        strictly before the next heap event are served in array steps right
        here (run service, see the module docstring); only the MPDU that
        ends at or after that event goes through the heap."""
        if self.tx_busy or self.in_bhi or self.sls_active:
            return
        # until the next heap event t only grows and next_tbtt stays fixed,
        # so a sweep that does not fit now fits at no later MPDU end either
        if self.sls_owed and t + self.cfg.sls_duration <= self.next_tbtt:
            self.sls_owed = False
            self._begin_sls(t)
            return
        horizon = self._next_event_time()
        while t is not None:
            self._drop_expired(t)
            if self.head == len(self.frames):
                return
            if t < self._reserved_until:
                raise RuntimeError("MPDU start at t=%.9f inside a BHI or sweep" % t)
            t = self._serve_head(t, horizon)

    def _serve_head(self, t: float, horizon: float) -> Optional[float]:
        """One array step over the link batch: the queue head's attempts
        from t on, back to back, up to the first that ends at or after the
        horizon (it goes through the heap; returns None), completes the
        burst, is followed by a start that fails the age check, or is
        followed by a batch entry other than its end.  Returns the last
        attempt's end, at which the next decision is taken."""
        cfg, frame_id = self.cfg, self.head
        k = self._link_index(t)
        starts = self._batch_starts
        # no attempt after the one that reaches the horizon is in the step
        hi = max(k + 1, int(starts.searchsorted(horizon)))
        at = starts[k:hi]
        ok = self._batch_snr[k:hi] >= cfg.snr_threshold_db
        done = np.cumsum(ok)  # MPDUs delivered through each attempt
        left = self.burst_count - self.sent
        ends = at + np.where(done - ok < left - 1, self._full_airtime, self._tail_airtime)
        stop = (ends >= horizon) | (done == left) | (ends - self.frames[frame_id].created > cfg.deadline)
        follows = starts[k + 1 : hi + 1]
        stop[: len(follows)] |= ends[: len(follows)] != follows
        stop[len(follows) :] = True  # the batch's last entry
        n = int(stop.argmax()) + 1
        self._batch_next = k + n
        self._last_ok = bool(ok[n - 1])
        end = float(ends[n - 1])
        through_heap = end >= horizon
        completed = n - 1 if through_heap else n
        self.counters["mpdu_attempts"] += n
        self.counters["mpdu_failures"] += n - int(done[n - 1])
        if self.collect:
            at_l, ends_l, ok_l = at[:n].tolist(), ends[:n].tolist(), ok[:n].tolist()
            self.tx_intervals.extend(zip(at_l, ends_l, ok_l, itertools.repeat(frame_id)))
            sent = (self.sent + done[:completed]).tolist()
            for start, finish, mpdu, success in zip(at_l, ends_l, sent, ok_l):
                self._log(finish, "mpdu_tx_done", _TX_DONE % (frame_id, mpdu, success, start))
        if completed:
            self._deliver(int(done[completed - 1]), float(ends[completed - 1]))
        if through_heap:
            self.tx_busy = True
            self._push(end, "mpdu_tx_done", (self._last_ok, float(at[n - 1])))
            return None
        return end

    def _deliver(self, n_ok: int, t: float) -> None:
        """Count ``n_ok`` more of the queue head's MPDUs delivered by
        attempts that end by t; a burst delivered whole completes its frame
        at t."""
        self.sent += n_ok
        if self.sent == self.burst_count:
            rec = self.frames[self.head]
            self.head += 1
            self.sent = 0
            rec.completed = t
            rec.delivered = (t - rec.created) <= self.cfg.deadline
            if rec.delivered:
                self.counters["frames_delivered"] += 1

    # -- handlers ---------------------------------------------------------

    def _on_beacon_start(self, t: float, index: int) -> None:
        self.next_tbtt = self._schedule("beacon_start", index + 1)
        self.in_bhi = True
        self.counters["bhi_count"] += 1
        self._log(t, "beacon_start", "index=%d" % index)
        self._push(self._reserve(t, self.cfg.bhi_duration, self.bhi_intervals), "bhi_end")

    def _on_bhi_end(self, t: float, _) -> None:
        self.in_bhi = False
        detail = ""
        if self.cfg.bf_location == "abft":
            detail = self._apply_beamform(t)
        self._log(t, "bhi_end", detail)
        self._try_start_tx(t)

    def _on_bf_trigger(self, t: float, index: int) -> None:
        self.next_trigger = self._schedule("bf_trigger", index + 1)
        self.sls_owed = True
        # logged before the decision, which may serve MPDUs ending after t
        if self.in_bhi or t + self.cfg.sls_duration > self.next_tbtt:
            detail = "postponed"
        elif self.tx_busy or self.sls_active:
            detail = "pending"
        else:
            detail = "start"
        self._log(t, "bf_trigger", detail)
        self._try_start_tx(t)

    def _on_sls_done(self, t: float, _) -> None:
        self.sls_active = False
        detail = self._apply_beamform(t)
        self._log(t, "sls_done", detail)
        self._try_start_tx(t)

    def _on_burst_arrival(self, t: float, frame_id: int) -> None:
        self._schedule("burst_arrival", frame_id + 1)
        self.frames.append(FrameRecord(frame_id, t))
        self.counters["frames_total"] += 1
        self._log(t, "burst_arrival", "frame=%d mpdus=%d" % (frame_id, self.burst_count))
        self._try_start_tx(t)

    def _on_mpdu_tx_done(self, t: float, payload) -> None:
        ok, start = payload
        self.tx_busy = False
        # drops only run on a free medium, so the MPDU's frame is still the head
        frame_id, sent = self.head, self.sent + int(ok)
        self._deliver(int(ok), t)
        if self.collect:
            self._log(t, "mpdu_tx_done", _TX_DONE % (frame_id, sent, ok, start))
        self._try_start_tx(t)

    # -- loop -------------------------------------------------------------

    def run(self) -> RunResult:
        for kind in self._sources:
            self._schedule(kind, 0)
        self._push(self.cfg.sim_time, "sim_end")
        handlers = {kind: getattr(self, "_on_" + kind) for kind in EVENT_KINDS if kind != "sim_end"}

        last_t = 0.0
        while self._heap:
            t, _, _, kind, payload = heapq.heappop(self._heap)
            if t < last_t:
                raise RuntimeError("event time ran back from %.9f to %.9f" % (last_t, t))
            last_t = t
            if kind == "sim_end":
                self._log(t, "sim_end", "")
                break
            handlers[kind](t, payload)
            # work conservation: a nonempty queue never waits on a free medium
            if self.head < len(self.frames) and not (self.tx_busy or self.in_bhi or self.sls_active):
                raise RuntimeError("medium idle with pending data at t=%.9f" % t)

        logs = (self.events, self.tx_intervals, self.bhi_intervals, self.sls_intervals) if self.collect else ()
        return RunResult(self.cfg, self.frames, dict(self.counters), *logs)


def run(config: ScenarioConfig, collect_events: bool = False) -> RunResult:
    """Run one scenario to completion and return every frame's record."""
    return Simulator(config, collect_events).run()
