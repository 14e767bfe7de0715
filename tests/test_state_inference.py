import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrkit import (
    AssemblyState,
    INSTALL,
    Procedure,
    REMOVE,
    StateDetection,
    StreamOrderError,
    StructureError,
    UnknownTransitionError,
    asd_stream_probs,
    evaluate,
    infer_steps,
    nominal_events,
    run_filter,
    state_diff,
)

from oracles import naive_asd_probs

# Install and remove of components a, b, c; without action 5, removing c
# is an unknown transition.
TOGGLE3 = Procedure(
    components=("a", "b", "c"),
    actions=tuple(range(6)),
    action_effects={i: (i % 3, INSTALL if i < 3 else REMOVE) for i in range(6)},
    fps=10,
)
NO_REMOVE_C = Procedure(
    components=("a", "b", "c"),
    actions=tuple(range(5)),
    action_effects={i: (i % 3, INSTALL if i < 3 else REMOVE) for i in range(5)},
    fps=10,
)


def det(toy, state_idx, frame, conf=0.9):
    return StateDetection(frame=frame, state=toy.states[state_idx], confidence=conf)


class TestInferSteps:
    def test_from_initial(self, toy):
        steps = infer_steps(None, det(toy, 1, 50), toy)
        assert steps == [0, 4, 8]
        assert [toy.effect(a) for a in steps] == [(0, INSTALL), (4, INSTALL), (8, INSTALL)]

    def test_same_state_empty(self, toy):
        d = det(toy, 3, 10)
        assert infer_steps(d, det(toy, 3, 20), toy) == []

    def test_reverse_is_removals(self, toy):
        steps = infer_steps(det(toy, 1, 10), det(toy, 0, 20), toy)
        assert steps == [17, 21, 25]
        assert [toy.effect(a) for a in steps] == [(0, REMOVE), (4, REMOVE), (8, REMOVE)]

    def test_unknown_transition_reported(self, toy):
        # a single-component procedure view with no remove action
        from psrkit import Procedure

        proc = Procedure(
            components=("a", "b"),
            actions=(0, 1),
            action_effects={0: (0, INSTALL), 1: (1, INSTALL)},
            fps=10,
        )
        prev = StateDetection(frame=0, state=AssemblyState((1, 0)), confidence=1.0)
        nxt = StateDetection(frame=5, state=AssemblyState((0, 1)), confidence=1.0)
        with pytest.raises(UnknownTransitionError) as err:
            infer_steps(prev, nxt, proc)
        assert "remove" in str(err.value)
        assert "at frame 5" in str(err.value) and err.value.frame == 5

    def test_round_trip_over_all_table_pairs(self, toy):
        for i, a in enumerate(toy.states):
            for j, b in enumerate(toy.states):
                prev = StateDetection(frame=0, state=a, confidence=1.0)
                nxt = StateDetection(frame=1, state=b, confidence=1.0)
                steps = infer_steps(prev, nxt, toy)
                bits = list(a.bits)
                for action in steps:
                    component, kind = toy.effect(action)
                    bits[component] = 1 if kind == INSTALL else 0
                assert tuple(bits) == b.bits


class TestAsdStreamProbs:
    def test_single_detection(self, toy):
        frames = asd_stream_probs([det(toy, 1, 50)], toy, video_len=60)
        assert len(frames) == 60
        hot = frames.probs[50].tolist()
        assert {k for k, p in enumerate(hot) if p > 0} == {0, 4, 8}
        assert all(p == 0.9 for p in (hot[0], hot[4], hot[8]))
        assert all(max(f.probs) == 0.0 for f in frames if f.frame != 50)

    def test_returns_one_dense_state_stream(self, toy):
        stream = asd_stream_probs([det(toy, 1, 50)], toy, video_len=60)
        assert stream.kind == "asd"
        assert stream.probs.shape == (60, toy.n_steps)
        assert stream.frames.tolist() == list(range(60))
        assert np.flatnonzero(stream.probs[50]).tolist() == [0, 4, 8]

    def test_nan_min_confidence_rejected(self, toy):
        with pytest.raises(ValueError, match="nan"):
            asd_stream_probs([det(toy, 1, 5)], toy, video_len=10, min_confidence=float("nan"))

    def test_repeated_state_goes_quiet(self, toy):
        frames = asd_stream_probs(
            [det(toy, 1, 10), det(toy, 1, 11), det(toy, 1, 12)], toy, video_len=20
        )
        assert max(frames.probs[10]) == 0.9
        assert max(frames.probs[11]) == 0.0
        assert max(frames.probs[12]) == 0.0

    def test_no_detections(self, toy):
        frames = asd_stream_probs([], toy, video_len=5)
        assert all(max(f.probs) == 0.0 for f in frames)

    def test_skipped_states_emit_all_diffs(self, toy):
        frames = asd_stream_probs([det(toy, 2, 30)], toy, video_len=40)
        hot = {k for k, p in enumerate(frames.probs[30]) if p > 0}
        assert hot == {0, 1, 4, 5, 8}

    def test_confidence_gate(self, toy):
        frames = asd_stream_probs(
            [det(toy, 1, 10, conf=0.2), det(toy, 1, 20, conf=0.9)],
            toy,
            video_len=30,
            min_confidence=0.5,
        )
        assert max(frames.probs[10]) == 0.0
        assert max(frames.probs[20]) == 0.9

    @pytest.mark.parametrize("frame", [np.nan, np.inf, -np.inf, 1.5, 2.0, True, "3"])
    def test_frame_must_be_an_integer(self, toy, frame):
        with pytest.raises(StructureError, match="frame"):
            StateDetection(frame, toy.states[1], 0.9)
        frame = StateDetection(np.int64(3), toy.states[1], 0.9).frame
        assert frame == 3 and type(frame) is int

    def test_boolean_confidence_rejected(self, toy):
        with pytest.raises(StructureError, match="confidence"):
            StateDetection(3, toy.states[1], True)

    @pytest.mark.parametrize("name, value", [
        ("video_len", 2.5), ("video_len", True), ("video_len", "10"), ("min_confidence", True),
    ])
    def test_non_numbers_and_booleans_rejected(self, toy, name, value):
        with pytest.raises(ValueError, match=name):
            asd_stream_probs([det(toy, 1, 5)], toy, **{"video_len": 10, name: value})
        assert len(asd_stream_probs([det(toy, 1, 5)], toy, video_len=np.int64(10))) == 10

    def test_out_of_order_detections(self, toy):
        with pytest.raises(StreamOrderError):
            asd_stream_probs([det(toy, 1, 10), det(toy, 2, 10)], toy, video_len=20)

    def test_never_touches_unchanged_components(self, toy):
        rng = np.random.default_rng(4)
        prev_idx = 0
        frame = 0
        dets = []
        for _ in range(6):
            idx = int(rng.integers(len(toy.states)))
            frame += int(rng.integers(1, 30))
            dets.append(det(toy, idx, frame))
        frames = asd_stream_probs(dets, toy, video_len=frame + 1)
        accepted = toy.states[0]
        for d in dets:
            hot = {
                k for k, p in enumerate(frames.probs[d.frame]) if p > 0
            }
            changed = {
                toy.step_index(toy.action_for(c, kind))
                for c, kind in state_diff(accepted, d.state)
            }
            assert hot == changed
            if changed:
                accepted = d.state


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_skipping_repeated_states_matches_inferring_every_detection(self, data):
        """Repeats, flicker back to an earlier state, the confidence gate and
        an unknown transition give what `infer_steps` on every detection gives."""
        bits = st.tuples(*[st.integers(0, 1)] * 3)
        seen, dets, frame = [], [], -1
        for _ in range(data.draw(st.integers(0, 25))):
            frame += data.draw(st.integers(1, 3))
            if seen and data.draw(st.booleans()):  # a repeat or a flicker back
                state = data.draw(st.sampled_from(seen))
            else:
                state = data.draw(bits)
                seen.append(state)
            confidence = data.draw(st.sampled_from([0.2, 0.5, 0.9, 1.0]))
            dets.append(StateDetection(frame, AssemblyState(state), confidence))
        video_len = frame + data.draw(st.integers(0, 4))  # may cut off the last one
        min_confidence = data.draw(st.sampled_from([0.0, 0.5, 0.95]))
        proc = data.draw(st.sampled_from([TOGGLE3, NO_REMOVE_C]))
        if video_len <= 0:
            return
        try:
            expected = naive_asd_probs(dets, proc, video_len, min_confidence)
        except Exception as e:
            with pytest.raises(type(e)) as got:
                asd_stream_probs(dets, proc, video_len, min_confidence)
            assert str(got.value) == str(e)
            return
        stream = asd_stream_probs(dets, proc, video_len, min_confidence)
        assert stream.probs.tobytes() == expected.tobytes()


class TestGoldenPipeline:
    def test_nominal_sequence_recognized_in_order(self, toy):
        frames = [100 * (i + 1) for i in range(11)]
        dets = [det(toy, i + 1, f) for i, f in enumerate(frames)]
        stream = asd_stream_probs(dets, toy, video_len=1200)
        pred = run_filter(stream, toy, threshold=0.5)
        gt = nominal_events(toy, frames)
        assert [e.action for e in pred.events] == [e.action for e in gt.events]
        assert len(pred) == 17
        assert all(e.kind == INSTALL for e in pred.events)
        report = evaluate(gt, pred)
        assert report.pos == 1.0
        assert report.f1 == 1.0
        assert report.tau_s == 0.0
