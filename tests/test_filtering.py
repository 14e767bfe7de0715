import math
from itertools import accumulate, pairwise

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
    StreamOrderError,
    StructureError,
    filter_step,
    filter_stream,
    fuse,
    fuse_streams,
    run_filter,
)

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


def random_stream(rng, n_steps, n_frames, density=0.3, start=0):
    frames = []
    for f in range(start, start + n_frames):
        probs = np.where(
            rng.random(n_steps) < density, rng.random(n_steps), 0.0
        )
        frames.append(ConfidenceFrame(frame=f, probs=tuple(probs), stream_id="temporal"))
    return frames


class TestFilterStep:
    def test_accumulation_trace(self, quad):
        state = FilterState(procedure=quad, threshold=1.0)
        expected = [0.4, 0.8, 1.2]
        emitted_at = None
        for f, acc in zip((1, 2, 3), expected):
            before = state.accumulators[0]
            _, out = filter_step(
                state, constant_stream(4, 0, 0.4, [f])[0]
            )
            if out:
                emitted_at = f
                assert before + 0.4 == pytest.approx(acc)
            else:
                assert state.accumulators[0] == pytest.approx(acc)
        assert emitted_at == 3
        assert state.accumulators[0] == 0.0  # reset on emission

    def test_decay_rate(self, quad):
        state = FilterState(procedure=quad, threshold=5.0)
        filter_step(state, constant_stream(4, 0, 1.0, [0])[0])
        assert state.accumulators[0] == 1.0
        zero = ConfidenceFrame(frame=1, probs=(0.0,) * 4, stream_id="temporal")
        filter_step(state, zero)
        assert state.accumulators[0] == 0.75

    def test_all_zero_stream(self, quad):
        frames = [
            ConfidenceFrame(frame=f, probs=(0.0,) * 4, stream_id="temporal")
            for f in range(50)
        ]
        seq = run_filter(frames, quad, threshold=0.5)
        assert len(seq) == 0

    def test_out_of_order_rejected(self, quad):
        state = FilterState(procedure=quad, threshold=1.0)
        filter_step(state, ConfidenceFrame(frame=5, probs=(0.0,) * 4))
        with pytest.raises(StreamOrderError):
            filter_step(state, ConfidenceFrame(frame=5, probs=(0.0,) * 4))

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
        frames = [
            ConfidenceFrame(frame=f, probs=tuple(probs[f]), stream_id="temporal")
            for f in range(400)
        ]
        seq = run_filter(frames, quad, threshold=5.0, decay=1.0)
        assert {e.action for e in seq.events} == {0, 1, 2, 3}

    def test_isolated_spikes_below_threshold_never_emit(self, quad):
        frames = []
        for f in range(600):
            p = 0.5 if f % 50 == 0 and f > 0 else 0.0
            frames.append(ConfidenceFrame(frame=f, probs=(p, 0.0, 0.0, 0.0)))
        seq = run_filter(frames, quad, threshold=1.0, decay=0.75)
        assert len(seq) == 0

    def test_dominance_more_evidence_never_later(self, quad):
        rng = np.random.default_rng(7)
        for _ in range(40):
            base = random_stream(rng, 4, 100)
            f_idx = int(rng.integers(100))
            k = int(rng.integers(4))
            boosted = list(base)
            probs = list(boosted[f_idx].probs)
            probs[k] = min(1.0, probs[k] + float(rng.uniform(0.1, 0.5)))
            boosted[f_idx] = ConfidenceFrame(
                frame=base[f_idx].frame, probs=tuple(probs), stream_id="temporal"
            )
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


def check_against_fold(frames, rows, threshold, decay, floor, cuts=(), per_frame=(False,)):
    """Filter `rows` in chunks split at `cuts`, each chunk block-wise or one
    frame at a time, and compare with the reference fold: same events and
    bitwise-equal state. Also checks `run_filter` and its recorded
    accumulators. Returns the events."""
    stream = ProbStream(frames, np.array(rows, dtype=float).reshape(len(frames), 6))
    state = FilterState(procedure=TOGGLE, threshold=threshold, decay=decay,
                        evidence_floor=floor)
    events = []
    for (lo, hi), one_by_one in zip(pairwise([0, *cuts, len(frames)]), per_frame):
        if one_by_one:
            for f in stream[lo:hi]:
                events.extend(filter_step(state, f)[1])
        else:
            events.extend(filter_stream(state, stream[lo:hi]))

    ref_events, history, ref_kind, ref_last = filter_fold(
        TOGGLE, frames, rows, threshold, decay, floor
    )
    assert events == ref_events
    final = history[-1] if history else np.zeros(6)
    assert state.accumulators.tobytes() == final.tobytes()
    assert state.last_kind == ref_kind
    assert state.last_frame == ref_last

    record = np.empty(stream.probs.shape)
    whole = run_filter(stream, TOGGLE, threshold, decay, floor, record=record)
    assert whole == EventSequence.from_events(ref_events, video_id="video", fps=10)
    assert record.tobytes() == np.array(history).reshape(record.shape).tobytes()
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

    def test_held_crossing_emits_on_a_silent_frame(self):
        # Step 0 (install a) is held at frames 1 and 2; the remove of a at
        # frame 2 reopens it, and frame 3 carries no evidence at all.
        rows = [[1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0],
                [1.0, 0, 0, 1.0, 0, 0], [0.0] * 6]
        events = check_against_fold([0, 1, 2, 3], rows, 0.5, 0.75, 0.0)
        assert [(e.action, e.frame) for e in events] == [(0, 0), (3, 2), (0, 3)]

    def test_continues_a_stepped_state(self, quad):
        state = FilterState(procedure=quad, threshold=1.0)
        filter_step(state, constant_stream(4, 0, 0.6, [0])[0])
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

    def test_frame_view(self):
        stream = ProbStream([3, 7], [[0.25, 0.0], [0.5, 1.0]], "temporal")
        frames = [ConfidenceFrame(3, (0.25, 0.0), "temporal"),
                  ConfidenceFrame(7, (0.5, 1.0), "temporal")]
        assert len(stream) == 2
        assert list(stream) == frames
        assert stream[-1] == frames[1]
        assert hash(stream[0].probs) == hash((0.25, 0.0))
        assert stream[1:] == ProbStream.from_frames(frames[1:])
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
        frames = []
        for f in range(3):
            probs = [0.0] * 34
            probs[0] = 0.9
            frames.append(ConfidenceFrame(frame=f, probs=tuple(probs)))
        probs = [0.0] * 34
        probs[17] = 0.9  # remove of component 0
        frames.append(ConfidenceFrame(frame=3, probs=tuple(probs)))
        probs = [0.0] * 34
        probs[0] = 0.9
        frames.append(ConfidenceFrame(frame=4, probs=tuple(probs)))
        seq = run_filter(frames, toy, threshold=0.5)
        assert [(e.action, e.frame) for e in seq.events] == [(0, 0), (17, 3), (0, 4)]

    def test_simultaneous_crossings_ascending(self, toy):
        probs = [0.0] * 34
        probs[8] = probs[0] = probs[4] = 0.9
        seq = run_filter(
            [ConfidenceFrame(frame=0, probs=tuple(probs))], toy, threshold=0.5
        )
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
        w = data.draw(st.just(0.5) | st.floats(0.0, 1.0))
        ab, ba = fuse_streams(a, b, w, 1.0 - w), fuse_streams(b, a, 1.0 - w, w)
        assert np.array_equal(ab.frames, ba.frames)
        assert ab.probs.tobytes() == ba.probs.tobytes()

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

    def test_custom_weights_validated(self):
        a = ConfidenceFrame(frame=0, probs=(0.4,), stream_id="asd")
        b = ConfidenceFrame(frame=0, probs=(0.8,), stream_id="temporal")
        assert fuse(a, b, 0.25, 0.75).probs[0] == pytest.approx(0.7)
        with pytest.raises(ValueError):
            fuse(a, b, 0.9, 0.9)

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
        frames = [fuse(x, y, 0.3, 0.7) for x, y in zip(a, b)]
        assert fuse_streams(a, b, 0.3, 0.7) == ProbStream.from_frames(frames)
        assert fuse_streams(ProbStream.from_frames(a), b, 0.3, 0.7) == fuse_streams(
            a, ProbStream.from_frames(b), 0.3, 0.7
        )

    def test_accepted_weights_never_raise(self):
        # The weights sum to 1 + 5e-13, inside the accepted tolerance.
        a = ConfidenceFrame(frame=0, probs=(1.0, 0.5), stream_id="asd")
        b = ConfidenceFrame(frame=0, probs=(1.0, 0.5), stream_id="temporal")
        assert fuse(a, b, 0.6000000000005, 0.4).probs == (1.0, 0.5 * 0.6000000000005 + 0.5 * 0.4)
        fused = fuse_streams([a], [b], 0.6000000000005, 0.4)
        assert fused[0] == fuse(a, b, 0.6000000000005, 0.4)
