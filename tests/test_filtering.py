import math
from contextlib import contextmanager
from itertools import accumulate, pairwise
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrkit import (
    AlignmentError,
    ConfidenceFrame,
    EventSequence,
    FilterState,
    INSTALL,
    REMOVE,
    Procedure,
    ProbStream,
    SimConfig,
    StateDetection,
    StreamOrderError,
    StructureError,
    asd_stream_probs,
    filter_step,
    filter_stream,
    fuse,
    fuse_streams,
    run_filter,
    simulate,
)
from psrkit import fileio, filtering

from oracles import filter_fold
from util import constant_stream


@pytest.fixture(scope="module")
def quad():
    """Four install-only steps; no removal actions, so steps emit once ever."""
    return Procedure(
        components=("a", "b", "c", "d"),
        actions=(0, 1, 2, 3),
        action_effects={i: (i, INSTALL) for i in range(4)},
        fps=10,
    )


# Install and remove of three components: steps 0-2 install, 3-5 remove.
TOGGLE = Procedure(
    components=("a", "b", "c"),
    actions=tuple(range(6)),
    action_effects={i: (i % 3, INSTALL if i < 3 else REMOVE) for i in range(6)},
    fps=10,
)


def random_stream(rng, n_steps, n_frames, density=0.3):
    rows = [
        np.where(rng.random(n_steps) < density, rng.random(n_steps), 0.0)
        for _ in range(n_frames)
    ]
    return ProbStream.dense(np.reshape(rows, (n_frames, n_steps)), "temporal")


class TestFilterStep:
    def test_accumulation_trace(self, quad):
        state = FilterState(procedure=quad, threshold=1.0)
        expected = [0.4, 0.8, 1.2]
        emitted_at = None
        for f, acc in zip((1, 2, 3), expected):
            before = state.accumulators[0]
            _, out = filter_step(state, ConfidenceFrame(f, (0.4, 0.0, 0.0, 0.0)))
            if out:
                emitted_at = f
                assert before + 0.4 == pytest.approx(acc)
            else:
                assert state.accumulators[0] == pytest.approx(acc)
        assert emitted_at == 3
        assert state.accumulators[0] == 0.0  # reset on emission

    def test_decay_rate(self, quad):
        state = FilterState(procedure=quad, threshold=5.0)
        filter_step(state, ConfidenceFrame(0, (1.0, 0.0, 0.0, 0.0)))
        assert state.accumulators[0] == 1.0
        zero = ConfidenceFrame(frame=1, probs=(0.0,) * 4, stream_id="temporal")
        filter_step(state, zero)
        assert state.accumulators[0] == 0.75

    def test_all_zero_stream(self, quad):
        seq = run_filter(ProbStream.dense(np.zeros((50, 4))), quad, threshold=0.5)
        assert len(seq) == 0

    def test_out_of_order_rejected(self, quad):
        state = FilterState(procedure=quad, threshold=1.0)
        filter_step(state, ConfidenceFrame(frame=5, probs=(0.0,) * 4))
        with pytest.raises(StreamOrderError):
            filter_step(state, ConfidenceFrame(frame=5, probs=(0.0,) * 4))

    @pytest.mark.parametrize("frame", [math.nan, math.inf, -math.inf, 1.5, 2.0, True, "3"])
    def test_frame_must_be_an_integer(self, frame):
        with pytest.raises(StructureError, match="frame"):
            ConfidenceFrame(frame, (1.0,) * 4)
        assert ConfidenceFrame(np.int64(3), (1.0,) * 4).frame == 3

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceFrame(frame=0, probs=(1.2, 0.0))
        with pytest.raises(ValueError):
            ConfidenceFrame(frame=0, probs=(-0.1, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 17, 34])
    def test_non_finite_probability_rejected(self, bad, at):
        probs = [0.0] * 35
        probs[at] = bad
        with pytest.raises(ValueError, match="frame 3"):
            ConfidenceFrame(frame=3, probs=tuple(probs))

    @pytest.mark.parametrize("kwargs", [
        {"threshold": math.nan},
        {"threshold": math.inf},
        {"threshold": 0.0},
        {"threshold": 1.0, "evidence_floor": math.nan},
        {"threshold": 1.0, "evidence_floor": math.inf},
        {"threshold": 1.0, "decay": math.nan},
    ])
    def test_bad_parameters_rejected(self, quad, kwargs):
        with pytest.raises(ValueError, match="nan|inf|0.0"):
            FilterState(procedure=quad, **kwargs)

    @pytest.mark.parametrize("name", ["threshold", "decay", "evidence_floor"])
    def test_boolean_parameters_rejected(self, quad, name):
        with pytest.raises(ValueError, match=name.replace("_", " ")):
            FilterState(procedure=quad, **{"threshold": 1.0, name: True})

    @pytest.mark.parametrize("name", ["accumulators", "last_kind", "last_frame"])
    def test_running_state_is_not_an_argument(self, quad, name):
        with pytest.raises(TypeError, match=name):
            FilterState(procedure=quad, threshold=1.0, **{name: None})
        state = FilterState(procedure=quad, threshold=1.0)
        assert state.last_frame is None and state.last_kind == [None] * quad.n_components
        assert state.accumulators.tolist() == [0.0] * quad.n_steps

    def test_wrong_length_rejected(self, quad):
        state = FilterState(procedure=quad, threshold=1.0)
        with pytest.raises(Exception):
            filter_step(state, ConfidenceFrame(frame=0, probs=(0.0,) * 3))


class TestRunFilter:
    def test_closed_form_emission_frame(self, quad):
        for t, p in [(1.0, 0.4), (1.0, 0.5), (2.0, 0.25), (6.0, 0.9), (1.0, 1.0), (0.9, 0.3)]:
            frames = constant_stream(4, 0, p, range(1, 60))
            seq = run_filter(frames, quad, threshold=t)
            expected = math.ceil((t - 1e-9) / p)
            assert seq.events[0].frame == expected, (t, p)
            assert expected == math.ceil(t / p)

    def test_single_spike_at_threshold(self, quad):
        frames = constant_stream(4, 2, 1.0, [7])
        seq = run_filter(frames, quad, threshold=1.0)
        assert [(e.action, e.frame) for e in seq.events] == [(2, 7)]

    def test_doubling_threshold_never_earlier(self, quad):
        rng = np.random.default_rng(5)
        for _ in range(30):
            frames = random_stream(rng, 4, 80)
            low = run_filter(frames, quad, threshold=0.8)
            high = run_filter(frames, quad, threshold=1.6)
            lows = {e.action: e.frame for e in low.events}
            for e in high.events:
                assert lows[e.action] <= e.frame

    def test_retention_one_always_emits(self, quad):
        rng = np.random.default_rng(6)
        probs = rng.uniform(0.01, 0.2, size=(400, 4))
        seq = run_filter(ProbStream.dense(probs), quad, threshold=5.0, decay=1.0)
        assert {e.action for e in seq.events} == {0, 1, 2, 3}

    def test_isolated_spikes_below_threshold_never_emit(self, quad):
        probs = np.zeros((600, 4))
        probs[50::50, 0] = 0.5
        seq = run_filter(ProbStream.dense(probs), quad, threshold=1.0, decay=0.75)
        assert len(seq) == 0

    def test_dominance_more_evidence_never_later(self, quad):
        rng = np.random.default_rng(7)
        for _ in range(40):
            base = random_stream(rng, 4, 100)
            f_idx = int(rng.integers(100))
            k = int(rng.integers(4))
            probs = base.probs.copy()
            probs[f_idx, k] = min(1.0, probs[f_idx, k] + float(rng.uniform(0.1, 0.5)))
            boosted = ProbStream(base.frames, probs, "temporal")
            first_base = {
                e.action: e.frame for e in run_filter(base, quad, threshold=1.5).events
            }
            first_boost = {
                e.action: e.frame
                for e in run_filter(boosted, quad, threshold=1.5).events
            }
            for action, frame in first_base.items():
                assert action in first_boost
                assert first_boost[action] <= frame

    def test_chunking_equivalence(self, quad):
        rng = np.random.default_rng(8)
        for _ in range(25):
            frames = random_stream(rng, 4, 120, density=0.4)
            whole = run_filter(frames, quad, threshold=1.2)
            state = FilterState(procedure=quad, threshold=1.2)
            events = []
            i = 0
            while i < len(frames):
                size = int(rng.integers(1, 17))
                for f in frames[i : i + size]:
                    _, out = filter_step(state, f)
                    events.extend(out)
                i += size
            assert [
                (e.action, e.frame) for e in whole.events
            ] == [(e.action, e.frame) for e in events]


@contextmanager
def emit_only_on_crossings():
    """Within the block, `filter_stream` may call `_emit` only on a row where
    an eligible accumulator is at or above the threshold (or a threshold
    within EMIT_TOL of zero makes every row one)."""
    emit = filtering._emit

    def screened(state, frame):
        floor = state.threshold - filtering.EMIT_TOL
        effects = map(state.procedure.effect, state.procedure.actions)
        assert floor <= 0.0 or any(
            acc >= floor and state.last_kind[c] != kind
            for acc, (c, kind) in zip(state.accumulators.tolist(), effects)
        ), f"_emit called at frame {frame} with no eligible crossing"
        return emit(state, frame)

    with patch.object(filtering, "_emit", screened):
        yield


def check_against_fold(frames, rows, threshold, decay, floor, cuts=(), per_frame=(False,)):
    """Filter `rows` in chunks split at `cuts`, each chunk block-wise or one
    frame at a time, and compare with the reference fold: same events and
    bitwise-equal state. Also checks `run_filter`, and that the blocks call
    `_emit` only on crossings. Returns the events."""
    stream = ProbStream(frames, np.array(rows, dtype=float).reshape(len(frames), 6))
    state = FilterState(procedure=TOGGLE, threshold=threshold, decay=decay,
                        evidence_floor=floor)
    ref_events, history, ref_kind, ref_last = filter_fold(
        TOGGLE, frames, rows, threshold, decay, floor
    )
    events = []
    for (lo, hi), one_by_one in zip(pairwise([0, *cuts, len(frames)]), per_frame):
        if one_by_one:
            for f in stream[lo:hi]:
                events.extend(filter_step(state, f)[1])
            continue
        with emit_only_on_crossings():
            events.extend(filter_stream(state, stream[lo:hi]))

    assert events == ref_events
    final = history[-1] if history else np.zeros(6)
    assert state.accumulators.tobytes() == final.tobytes()
    assert state.last_kind == ref_kind
    assert state.last_frame == ref_last

    with emit_only_on_crossings():
        whole = run_filter(stream, TOGGLE, threshold, decay, floor)
    assert whole == EventSequence.from_events(ref_events, video_id="video", fps=10)
    return events


class TestFilterStream:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_chunking_equals_frame_fold(self, data):
        gaps = data.draw(st.lists(st.integers(1, 4), max_size=60))
        frames = list(accumulate(gaps, initial=data.draw(st.integers(0, 5))))[:-1]
        value = st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0)
        row = st.just([0.0] * 6) | st.lists(value, min_size=6, max_size=6)
        cuts = sorted(set(data.draw(st.lists(st.integers(0, len(frames)), max_size=8))))
        check_against_fold(
            frames,
            [data.draw(row) for _ in frames],
            threshold=data.draw(st.floats(0.05, 3.0)),
            decay=data.draw(st.floats(0.05, 1.0)),
            floor=data.draw(st.just(0.0) | st.floats(0.0, 0.5)),
            cuts=cuts,
            per_frame=data.draw(st.lists(st.booleans(), min_size=len(cuts) + 1,
                                         max_size=len(cuts) + 1)),
        )

    @pytest.mark.parametrize("decay", [0.999, 1.0])
    def test_silent_runs_longer_than_a_block_equal_frame_fold(self, decay):
        """Silent runs of 255, 256, 686 and 299 rows decay 256 rows at a time,
        bitwise as the fold, across cuts."""
        rows = [[0.0] * 6 for _ in range(1500)]
        for t in (0, 256, 513, 1200):
            rows[t] = [0.3, 0.0, 0.0, 0.1, 0.0, 0.0]
        for cuts in ((), (300, 1000)):
            check_against_fold(list(range(1500)), rows, threshold=5.0, decay=decay, floor=0.0,
                               cuts=cuts, per_frame=(False,) * 3)

    def test_held_crossing_emits_on_a_silent_frame(self):
        # Step 0 (install a) is held at frames 1 and 2; the remove of a at
        # frame 2 reopens it, and frame 3 carries no evidence at all.
        rows = [[1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0],
                [1.0, 0, 0, 1.0, 0, 0], [0.0] * 6]
        events = check_against_fold([0, 1, 2, 3], rows, 0.5, 0.75, 0.0)
        assert [(e.action, e.frame) for e in events] == [(0, 0), (3, 2), (0, 3)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_long_silent_runs_equal_frame_fold(self, data):
        """Evidence rows between silent runs of 0 to 300 rows, in any chunking.

        A silent row is all zero or, under an evidence floor, below it. One
        kind of evidence segment holds a crossing and releases it with an
        opposite emission on the row just before the run that follows.
        """
        floor = data.draw(st.sampled_from([0.0, 0.25]))
        quiet = st.just([0.0] * 6)
        if floor:
            quiet |= st.lists(st.floats(0.0, floor), min_size=6, max_size=6)
        value = st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0)
        released = [[1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 1.0, 0, 0]]
        rows = []
        for _ in range(data.draw(st.integers(0, 5))):
            rows.extend(data.draw(quiet) for _ in range(data.draw(st.integers(0, 300))))
            if data.draw(st.booleans()):
                rows.extend(released)
            else:
                rows.append(data.draw(st.lists(value, min_size=6, max_size=6)))
        rows.extend(data.draw(quiet) for _ in range(data.draw(st.integers(0, 300))))
        frames = (data.draw(st.integers(0, 5)) + np.arange(len(rows))).tolist()
        cuts = sorted(set(data.draw(st.lists(st.integers(0, len(frames)), max_size=4))))
        check_against_fold(
            frames,
            rows,
            threshold=data.draw(st.sampled_from([0.5, 1e-10]) | st.floats(0.05, 3.0)),
            decay=data.draw(st.just(1.0) | st.just(0.75) | st.floats(0.05, 1.0)),
            floor=floor,
            cuts=cuts,
            per_frame=data.draw(st.lists(st.booleans(), min_size=len(cuts) + 1,
                                         max_size=len(cuts) + 1)),
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_tight_bounds_equal_frame_fold(self, data):
        """Streams on which the bound on the eligible accumulators is tight.

        Segments: adds of 0.1 that sum to within EMIT_TOL of a threshold of
        1.0 or 0.3; rows whose largest add ties another; an install held at
        the threshold and released by its remove, followed by an evidence row
        or a silent one; cells under and at an evidence floor; silent runs.
        Thresholds include ones at or within EMIT_TOL of zero, and retention
        1.0.
        """
        floor = data.draw(st.sampled_from([0.0, 0.1, 0.25]))
        value = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, floor / 2, floor]) | st.floats(0.0, 1.0)
        step = st.integers(0, 5)
        rows = []
        for _ in range(data.draw(st.integers(0, 8))):
            kind = data.draw(st.sampled_from(["tenths", "tie", "release", "floor", "any", "quiet"]))
            if kind == "tenths":
                k = data.draw(step)
                rows.extend([0.1 if j == k else 0.0 for j in range(6)] for _ in range(10))
            elif kind == "tie":
                row = data.draw(st.lists(value, min_size=6, max_size=6))
                a, b = data.draw(st.lists(step, min_size=2, max_size=2, unique=True))
                row[a] = row[b] = data.draw(value)
                rows.append(row)
            elif kind == "release":  # install c held, then its remove reopens it
                c = data.draw(st.integers(0, 2))
                install = [1.0 if j == c else 0.0 for j in range(6)]
                rows.extend([install] * data.draw(st.integers(1, 3)))
                rows.append([1.0 if j in (c, c + 3) else 0.0 for j in range(6)])
                rows.append(data.draw(st.just([0.0] * 6) | st.lists(value, min_size=6, max_size=6)))
            elif kind == "floor":
                rows.append(data.draw(st.lists(st.sampled_from([0.0, floor / 2, floor]) | value,
                                               min_size=6, max_size=6)))
            elif kind == "any":
                rows.append(data.draw(st.lists(value, min_size=6, max_size=6)))
            else:
                rows.extend([[0.0] * 6] * data.draw(st.integers(1, 40)))
        frames = (data.draw(st.integers(0, 5)) + np.arange(len(rows))).tolist()
        cuts = sorted(set(data.draw(st.lists(st.integers(0, len(frames)), max_size=4))))
        check_against_fold(
            frames,
            rows,
            threshold=data.draw(st.sampled_from([1.0, 0.3, 0.5, filtering.EMIT_TOL, 1e-10])
                                | st.floats(0.05, 3.0)),
            decay=data.draw(st.sampled_from([1.0, 0.75]) | st.floats(0.05, 1.0)),
            floor=floor,
            cuts=cuts,
            per_frame=data.draw(st.lists(st.booleans(), min_size=len(cuts) + 1,
                                         max_size=len(cuts) + 1)),
        )

    def test_ten_tenths_cross_a_threshold_of_one(self):
        # 0.1 summed ten times is 0.9999999999999999, within EMIT_TOL of 1.0
        rows = [[0.1, 0, 0, 0, 0, 0]] * 10 + [[0.0] * 6]
        events = check_against_fold(list(range(11)), rows, 1.0, 0.75, 0.0)
        assert [(e.action, e.frame) for e in events] == [(0, 9)]

    def test_threshold_within_tolerance_of_zero(self):
        # Under a threshold of 1e-10 every accumulator crosses, a reset one
        # too, so each install and then each remove emits on every row, on
        # the silent ones as well.
        rows = [[1.0, 0, 0, 0, 0, 0]] + [[0.0] * 6] * 3
        events = check_against_fold([0, 1, 2, 3], rows, 1e-10, 0.75, 0.0)
        assert [(e.action, e.frame) for e in events] == [
            (k, f) for f in range(4) for k in range(6)
        ]

    def test_continues_a_stepped_state(self, quad):
        state = FilterState(procedure=quad, threshold=1.0)
        filter_step(state, ConfidenceFrame(0, (0.6, 0.0, 0.0, 0.0)))
        with pytest.raises(StreamOrderError):
            filter_stream(state, ProbStream([0], [[0.6, 0, 0, 0]]))
        out = filter_stream(state, ProbStream([1], [[0.6, 0, 0, 0]]))
        assert [(e.action, e.frame) for e in out] == [(0, 1)]

    def test_wrong_width_rejected(self, quad):
        state = FilterState(procedure=quad, threshold=1.0)
        with pytest.raises(StructureError, match="expected 4"):
            filter_stream(state, ProbStream.dense(np.zeros((3, 5))))


class TestProbStream:
    def test_validated_at_construction(self):
        with pytest.raises(StructureError):
            ProbStream([0, 1], np.zeros((3, 2)))
        with pytest.raises(StructureError):
            ProbStream([0.0, 1.0], np.zeros((2, 2)))
        with pytest.raises(StructureError):
            ProbStream([-1, 0], np.zeros((2, 2)))
        with pytest.raises(StreamOrderError, match="frame 4 arrived after frame 4"):
            ProbStream([2, 4, 4], np.zeros((3, 2)))
        with pytest.raises(StructureError):
            ProbStream.dense(np.zeros((2, 2)), kind="other")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 1.5])
    def test_bad_probability_names_frame(self, bad):
        probs = np.zeros((4, 35))
        probs[2, 34] = bad
        with pytest.raises(ValueError, match="frame 12"):
            ProbStream([10, 11, 12, 13], probs)

    def test_read_only_copy(self):
        probs = np.zeros((2, 2))
        stream = ProbStream.dense(probs)
        probs[0, 0] = 1.0
        assert stream.probs[0, 0] == 0.0
        with pytest.raises(ValueError):
            stream.probs[0, 0] = 1.0
        with pytest.raises(ValueError):
            stream.frames[0] = 5

    def test_public_constructors_copy_and_check(self):
        frames, probs = np.array([0, 2, 5]), np.array([[0.5, 0.0], [1.0, 0.25], [0.0, 0.0]])
        for stream in (ProbStream(frames, probs, "temporal"), ProbStream.dense(probs)):
            assert not np.shares_memory(stream.probs, probs)
            assert not np.shares_memory(stream.frames, frames)
            assert not stream.probs.flags.writeable and not stream.frames.flags.writeable
        for bad in (math.nan, 1.5, -0.5):
            with pytest.raises(ValueError, match="frame 2"):
                ProbStream(frames, np.where(probs == 1.0, bad, probs))
            with pytest.raises(ValueError, match="frame 1"):
                ProbStream.dense(np.where(probs == 1.0, bad, probs))
        with pytest.raises(StreamOrderError, match="frame 2 arrived after frame 5"):
            ProbStream([0, 5, 2], probs)

    def test_built_streams_are_read_only_and_their_own(self, toy, tmp_path):
        """Streams psrkit builds adopt arrays it made: read-only, and sharing
        no memory with any array a caller holds."""
        rng = np.random.default_rng(3)
        frames = np.arange(40)
        caller = [frames, rng.random((40, toy.n_steps)), rng.random((40, toy.n_steps))]
        asd, temporal = ProbStream(frames, caller[1], "asd"), ProbStream(frames, caller[2], "temporal")
        dets = [StateDetection(5, toy.states[1], 0.9), StateDetection(9, toy.states[2], 0.8)]
        fileio.serialize_temporal_stream({"v": temporal}, tmp_path / "t.jsonl")
        config = SimConfig(procedure=toy, n_videos=1, tail_frames=30, seed=4)
        built = {
            "fuse_streams": fuse_streams(asd, temporal),
            "asd_stream_probs": asd_stream_probs(dets, toy, 40),
            "parse_temporal_stream": fileio.parse_temporal_stream(tmp_path / "t.jsonl")["v"],
            "simulate": simulate(config)[0].temporal_frames,
        }
        for name, stream in built.items():
            assert not stream.frames.flags.writeable, name
            assert not stream.probs.flags.writeable, name
            for array in (*caller, asd.probs, temporal.probs):
                assert not np.shares_memory(stream.probs, array), name
                assert not np.shares_memory(stream.frames, array), name
        assert built["fuse_streams"] == ProbStream(frames, 0.5 * caller[1] + 0.5 * caller[2])
        assert built["parse_temporal_stream"] == temporal

    def test_frame_view(self):
        stream = ProbStream([3, 7], [[0.25, 0.0], [0.5, 1.0]], "temporal")
        frames = [ConfidenceFrame(3, (0.25, 0.0), "temporal"),
                  ConfidenceFrame(7, (0.5, 1.0), "temporal")]
        assert len(stream) == 2
        assert list(stream) == frames
        assert hash(frames[0].probs) == hash((0.25, 0.0))
        assert stream[-1:] == stream[1:] == ProbStream.from_frames(frames[1:])
        assert stream.probs[1].tolist() == [0.5, 1.0]
        with pytest.raises(TypeError, match="by slice"):
            stream[0]
        assert ProbStream.from_frames(frames) == stream
        assert stream != ProbStream([3, 7], [[0.25, 0.0], [0.5, 1.0]], "asd")

    def test_stream_id_checked_as_the_stream_kind(self):
        frame = ConfidenceFrame(0, (0.5,), "other")
        with pytest.raises(StructureError, match="kind must be one of"):
            ProbStream.from_frames([frame])

    def test_ragged_frames_rejected(self):
        frames = [ConfidenceFrame(0, (0.1, 0.2)), ConfidenceFrame(1, (0.1,))]
        with pytest.raises(StructureError, match="frame 1"):
            ProbStream.from_frames(frames)


class TestEligibility:
    def test_no_reemission_without_opposing_event(self, toy):
        # hammer install step 0 forever; it must emit exactly once
        frames = constant_stream(34, 0, 0.9, range(100))
        seq = run_filter(frames, toy, threshold=0.5)
        assert [(e.action, e.kind) for e in seq.events] == [(0, "install")]

    def test_remove_reopens_install(self, toy):
        probs = np.zeros((5, 34))
        probs[[0, 1, 2, 4], 0] = 0.9
        probs[3, 17] = 0.9  # remove of component 0
        seq = run_filter(ProbStream.dense(probs), toy, threshold=0.5)
        assert [(e.action, e.frame) for e in seq.events] == [(0, 0), (17, 3), (0, 4)]

    def test_simultaneous_crossings_ascending(self, toy):
        probs = np.zeros((1, 34))
        probs[0, [8, 0, 4]] = 0.9
        seq = run_filter(ProbStream.dense(probs), toy, threshold=0.5)
        assert [e.action for e in seq.events] == [0, 4, 8]


class TestFuse:
    def test_equal_inputs_idempotent(self):
        a = ConfidenceFrame(frame=3, probs=(0.2, 0.7), stream_id="asd")
        b = ConfidenceFrame(frame=3, probs=(0.2, 0.7), stream_id="temporal")
        assert fuse(a, b).probs == a.probs

    def test_half_and_half(self):
        a = ConfidenceFrame(frame=0, probs=(1.0,), stream_id="asd")
        b = ConfidenceFrame(frame=0, probs=(0.0,), stream_id="temporal")
        assert fuse(a, b).probs == (0.5,)

    def test_silent_state_stream(self):
        a = ConfidenceFrame(frame=0, probs=(0.0, 0.0), stream_id="asd")
        b = ConfidenceFrame(frame=0, probs=(0.6, 0.0), stream_id="temporal")
        assert fuse(a, b).probs == (0.3, 0.0)

    def test_commutative_and_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            pa = tuple(rng.random(5))
            pb = tuple(rng.random(5))
            a = ConfidenceFrame(frame=1, probs=pa, stream_id="asd")
            b = ConfidenceFrame(frame=1, probs=pb, stream_id="temporal")
            ab, ba = fuse(a, b), fuse(b, a)
            assert ab.probs == ba.probs
            for x, y, z in zip(pa, pb, ab.probs):
                assert min(x, y) - 1e-12 <= z <= max(x, y) + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_stream_fusion_symmetric_under_swap(self, data):
        n_frames, n_steps = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 5))
        value = st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0)
        rows = st.lists(st.lists(value, min_size=n_steps, max_size=n_steps),
                        min_size=n_frames, max_size=n_frames)
        frames = np.arange(n_frames) * data.draw(st.integers(1, 3))
        a = ProbStream(frames, np.reshape(data.draw(rows), (n_frames, n_steps)), "asd")
        b = ProbStream(frames, np.reshape(data.draw(rows), (n_frames, n_steps)), "temporal")
        ab, ba = fuse_streams(a, b), fuse_streams(b, a)
        assert np.array_equal(ab.frames, ba.frames)
        assert ab.probs.tobytes() == ba.probs.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fused_values_stay_in_range_unclamped(self, data):
        """Halving a value in [0, 1] is exact, or rounds down for a subnormal,
        so the two halves sum to at most 1.0: the average needs no clamp."""
        n_frames, n_steps = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 5))
        edges = st.sampled_from([0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0)])
        value = edges | st.floats(0.0, 1.0)
        rows = st.lists(st.lists(value, min_size=n_steps, max_size=n_steps),
                        min_size=n_frames, max_size=n_frames)
        a = ProbStream.dense(data.draw(rows), "asd")
        b = ProbStream.dense(data.draw(rows), "temporal")
        fused = fuse_streams(a, b)
        assert fused.probs.max() <= 1.0
        by_frame = [fuse(x, y).probs for x, y in zip(a, b)]
        assert fused.probs.tobytes() == np.array(by_frame).tobytes()
        assert fuse_streams(b, a).probs.tobytes() == fused.probs.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stream_fusion_is_the_frame_fold_bit_for_bit(self, data):
        """Signed zeros included: a state row of +0.0 cells turns a temporal
        -0.0 into +0.0, while a -0.0 state cell keeps a -0.0 half as it is."""
        n_frames, n_steps = data.draw(st.integers(0, 10)), data.draw(st.integers(0, 4))
        row = st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), min_size=n_steps, max_size=n_steps)
        state_row = st.just([0.0] * n_steps) | row
        frames = np.arange(n_frames) + data.draw(st.integers(0, 3))
        a = ProbStream(frames, np.reshape([data.draw(state_row) for _ in frames], (n_frames, n_steps)),
                       "asd")
        b = ProbStream(frames, np.reshape([data.draw(row) for _ in frames], (n_frames, n_steps)),
                       "temporal")
        by_frame = np.reshape([fuse(x, y).probs for x, y in zip(a, b)], (n_frames, n_steps))
        assert fuse_streams(a, b).probs.tobytes() == by_frame.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fused_frame_equals_the_checked_one(self, data):
        n_steps = data.draw(st.integers(0, 6))
        value = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 0, 1]) | st.floats(0.0, 1.0)
        probs = st.lists(value, min_size=n_steps, max_size=n_steps)
        a = ConfidenceFrame(4, data.draw(probs), "asd")
        b = ConfidenceFrame(4, data.draw(probs), "temporal")
        fused = fuse(a, b)
        checked = ConfidenceFrame(a.frame, [0.5 * x + 0.5 * y for x, y in zip(a.probs, b.probs)],
                                  "fused")
        assert fused == checked and type(fused.probs) is tuple
        assert all(type(p) is float for p in fused.probs)
        assert np.array(fused.probs).tobytes() == np.array(checked.probs).tobytes()

    def test_frame_mismatch(self):
        a = ConfidenceFrame(frame=0, probs=(0.1,), stream_id="asd")
        b = ConfidenceFrame(frame=1, probs=(0.1,), stream_id="temporal")
        with pytest.raises(AlignmentError):
            fuse(a, b)

    def test_length_mismatch(self):
        a = ConfidenceFrame(frame=0, probs=(0.1,), stream_id="asd")
        b = ConfidenceFrame(frame=0, probs=(0.1, 0.2), stream_id="temporal")
        with pytest.raises(AlignmentError):
            fuse(a, b)

    def test_stream_fusion_length_mismatch(self):
        a = [ConfidenceFrame(frame=0, probs=(0.1,), stream_id="asd")]
        with pytest.raises(AlignmentError):
            fuse_streams(a, [])

    def test_stream_fusion_frame_mismatch(self):
        a = ProbStream([0, 1], [[0.1], [0.2]], "asd")
        b = ProbStream([0, 2], [[0.1], [0.2]], "temporal")
        with pytest.raises(AlignmentError, match="1 vs 2"):
            fuse_streams(a, b)

    def test_stream_fusion_equals_frame_fusion(self):
        rng = np.random.default_rng(10)
        a = random_stream(rng, 5, 40)
        b = random_stream(rng, 5, 40)
        frames = [fuse(x, y) for x, y in zip(a, b)]
        assert fuse_streams(a, b) == ProbStream.from_frames(frames)
        assert fuse_streams(list(a), b) == fuse_streams(a, list(b)) == fuse_streams(a, b)
