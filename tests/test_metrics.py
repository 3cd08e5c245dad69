"""Reliability, latency CDF and the run output files."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim.config import ScenarioConfig
from xrsim.macsim import FrameRecord
from xrsim.metrics import FrameFormatError, quantile, read_frame_records, summarize, write_outputs

DEADLINE = 0.020


def cdf_value(cdf, latency):
    """Step-function lookup: fraction of frames with latency <= the argument."""
    i = bisect_right([pair[0] for pair in cdf], latency)
    return cdf[i - 1][1] if i else 0.0


def frame(fid, created, latency):
    if latency is None:
        return FrameRecord(fid, created, None, False)
    return FrameRecord(fid, created, created + latency, latency <= DEADLINE)


class TestSummarize:
    def test_single_delivered_frame(self):
        s = summarize([frame(0, 0.0, 0.005)], DEADLINE)
        assert s.reliability == 1.0
        assert s.lost_count == 0
        assert s.latency_cdf == ((0.005, 1.0),)
        assert s.min_latency == s.p50_latency == s.max_latency == 0.005

    def test_one_loss_in_two_thousand(self):
        records = [frame(i, i * 0.01, 0.0065) for i in range(1999)]
        records.append(frame(1999, 19.99, 0.025))
        s = summarize(records, DEADLINE)
        assert s.reliability == pytest.approx(0.9995)
        assert s.lost_count == 1
        assert s.frame_count == 2000

    def test_never_completed_frames_only_grow_the_denominator(self):
        records = [frame(i, 0.0, 0.005) for i in range(5)]
        records += [frame(5 + i, 0.0, None) for i in range(5)]
        s = summarize(records, DEADLINE)
        assert s.reliability == 0.5
        assert s.lost_count == 5
        assert s.latency_cdf[-1] == (0.005, 0.5)
        assert s.max_latency == 0.005

    def test_late_completion_extends_the_cdf_past_the_deadline(self):
        records = [frame(i, 0.0, 0.010) for i in range(3)] + [frame(3, 0.0, 0.030)]
        s = summarize(records, DEADLINE)
        assert s.reliability == 0.75
        assert cdf_value(s.latency_cdf, 0.030) == 1.0
        assert s.latency_cdf[-1][0] > DEADLINE

    def test_deadline_boundary_counts_as_delivered(self):
        s = summarize([frame(0, 0.0, DEADLINE)], DEADLINE)
        assert s.reliability == 1.0

    def test_equal_latencies_collapse_to_one_step(self):
        s = summarize([frame(0, 0.0, 0.004), frame(1, 0.0, 0.004)], DEADLINE)
        assert s.latency_cdf == ((0.004, 1.0),)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([], DEADLINE)

    def test_quantile_rule(self):
        assert quantile([], 0.5) is None
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.99) == 4.0
        assert quantile([5.0], 0.5) == 5.0

    def test_quantiles_are_nearest_rank_over_completed_frames(self):
        # ten completions in reverse order, plus one frame that never completes
        lats = [k * 1e-3 for k in range(1, 11)]
        records = [frame(i, 0.0, lat) for i, lat in enumerate(reversed(lats))]
        s = summarize(records + [frame(10, 0.0, None)], DEADLINE)
        assert (s.p50_latency, s.p90_latency, s.p99_latency) == (lats[4], lats[8], lats[9])
        s = summarize([frame(0, 0.0, None)], DEADLINE)
        assert (s.p50_latency, s.p90_latency, s.p99_latency) == (None, None, None)

    @given(
        latencies=st.lists(
            st.one_of(
                st.none(),
                st.floats(min_value=1e-4, max_value=0.05, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_cdf_at_the_deadline_is_the_reliability(self, latencies):
        # created = 0 keeps completed - created == latency exact, so the
        # deadline boundary is not blurred by float subtraction
        records = [frame(i, 0.0, lat) for i, lat in enumerate(latencies)]
        s = summarize(records, DEADLINE)
        assert cdf_value(s.latency_cdf, DEADLINE) == s.reliability
        completed = [lat for lat in latencies if lat is not None]
        if completed:
            assert s.latency_cdf[-1][1] == pytest.approx(len(completed) / len(latencies))
        fracs = [f for _, f in s.latency_cdf]
        assert fracs == sorted(fracs)
        assert s.lost_count == len(latencies) - sum(
            1 for lat in completed if lat <= DEADLINE
        )


class TestCdfValue:
    def test_below_the_first_step_is_zero(self):
        s = summarize([frame(0, 0.0, 0.005)], DEADLINE)
        assert cdf_value(s.latency_cdf, 0.004) == 0.0

    def test_steps_are_right_continuous(self):
        s = summarize([frame(0, 0.0, 0.004), frame(1, 0.0, 0.008)], DEADLINE)
        assert cdf_value(s.latency_cdf, 0.004) == 0.5
        assert cdf_value(s.latency_cdf, 0.0079) == 0.5
        assert cdf_value(s.latency_cdf, 0.008) == 1.0


class TestOutputs:
    def test_frame_csv_round_trip(self, tmp_path):
        records = [frame(0, 0.0, 0.0065), frame(1, 0.01, None), frame(2, 0.02, 0.021)]
        s = summarize(records, DEADLINE)
        path = tmp_path / "frames.csv"
        write_outputs(s, records, frames_path=path, header_lines=["sim_time = 2.0"])
        back, deadline = read_frame_records(path)
        assert [(r.frame_id, r.created, r.completed, r.delivered) for r in back] == [
            (r.frame_id, r.created, r.completed, r.delivered) for r in records
        ]
        assert deadline == ScenarioConfig().deadline  # the echo names none
        assert path.read_text().startswith("# sim_time = 2.0\n")

    def test_summary_file_contents(self, tmp_path):
        records = [frame(i, 0.0, 0.0065) for i in range(1999)] + [frame(1999, 0.0, 0.025)]
        s = summarize(records, DEADLINE)
        path = tmp_path / "summary.txt"
        write_outputs(s, records, summary_path=path)
        text = path.read_text()
        assert "reliability=0.9995\n" in text
        assert "frame_count=2000\n" in text
        assert "lost_count=1\n" in text
        assert "min_latency_ms=6.500000\n" in text

    def test_summary_with_no_completions(self, tmp_path):
        records = [frame(0, 0.0, None), frame(1, 0.01, None)]
        s = summarize(records, DEADLINE)
        path = tmp_path / "summary.txt"
        write_outputs(s, records, summary_path=path)
        text = path.read_text()
        assert "reliability=0.0000\n" in text
        assert "min_latency_ms=none\n" in text

    def test_cdf_csv_shape(self, tmp_path):
        records = [frame(0, 0.0, 0.004), frame(1, 0.0, 0.008)]
        s = summarize(records, DEADLINE)
        path = tmp_path / "cdf.csv"
        write_outputs(s, records, cdf_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "latency_ms,fraction"
        assert lines[1] == "4.000000000,0.500000000"
        assert lines[2] == "8.000000000,1.000000000"

    def test_byte_deterministic(self, tmp_path):
        records = [frame(i, i * 0.01, 0.0065 if i % 3 else None) for i in range(30)]
        s = summarize(records, DEADLINE)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_outputs(s, records, frames_path=a)
        write_outputs(s, records, frames_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_frame_row_raises(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text("frame_id,created_s,completed_s,delivered\n0,0.0,1.0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_frame_records(path)

    def test_delivered_row_without_completion_raises_naming_its_line(self, tmp_path):
        # read back as FrameRecord(completed=None, delivered=True), a record
        # write_outputs never writes
        path = tmp_path / "frames.csv"
        path.write_text("frame_id,created_s,completed_s,delivered\n1,0.01,0.02,1\n0,0.0,,1\n")
        with pytest.raises(FrameFormatError, match="line 3: malformed frame row '0,0.0,,1'"):
            read_frame_records(path)
