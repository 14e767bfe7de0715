import math

import pytest
from hypothesis import given, strategies as st

from psrkit import (
    INSTALL,
    REMOVE,
    AssemblyState,
    EventSequence,
    Procedure,
    StepEvent,
    StructureError,
    UnknownTransitionError,
    cumulative_state,
    nominal_events,
    state_diff,
)

from util import seq_of


class TestAssemblyState:
    def test_round_trip_string(self):
        s = AssemblyState.from_string("10001000100000000", state_id=1)
        assert s.to_string() == "10001000100000000"
        assert s.width == 17
        assert s.state_id == 1

    def test_rejects_garbage(self):
        with pytest.raises(StructureError):
            AssemblyState.from_string("10x01")
        with pytest.raises(StructureError, match="got 5"):
            AssemblyState.from_string(5)
        with pytest.raises(StructureError):
            AssemblyState(())


class TestStateDiff:
    def test_initial_to_first(self):
        a = AssemblyState.from_string("0" * 17)
        b = AssemblyState.from_string("10001000100000000")
        assert state_diff(a, b) == [(0, INSTALL), (4, INSTALL), (8, INSTALL)]

    def test_first_to_second(self):
        a = AssemblyState.from_string("10001000100000000")
        b = AssemblyState.from_string("11001100100000000")
        assert state_diff(a, b) == [(1, INSTALL), (5, INSTALL)]

    def test_identical_states(self):
        a = AssemblyState.from_string("1010")
        assert state_diff(a, a) == []

    def test_width_mismatch(self):
        with pytest.raises(StructureError):
            state_diff(AssemblyState.from_string("10"), AssemblyState.from_string("100"))

    @given(st.lists(st.booleans(), min_size=1, max_size=24), st.data())
    def test_round_trip_and_flip(self, bits_a, data):
        bits_b = data.draw(
            st.lists(st.booleans(), min_size=len(bits_a), max_size=len(bits_a))
        )
        a = AssemblyState(tuple(int(b) for b in bits_a))
        b = AssemblyState(tuple(int(b) for b in bits_b))
        diff = state_diff(a, b)
        rebuilt = list(a.bits)
        for c, kind in diff:
            rebuilt[c] = 1 if kind == INSTALL else 0
        assert tuple(rebuilt) == b.bits
        back = state_diff(b, a)
        assert {c for c, _ in diff} == {c for c, _ in back}
        flipped = {(c, INSTALL if k == REMOVE else REMOVE) for c, k in back}
        assert flipped == set(diff)


class TestTransitionActions:
    @pytest.fixture()
    def partial(self):
        """Two components that can be installed but never removed."""
        return Procedure(
            components=("a", "b"),
            actions=(0, 1),
            action_effects={0: (0, INSTALL), 1: (1, INSTALL)},
            fps=10,
            states=tuple(AssemblyState.from_string(b) for b in ("00", "11", "01")),
        )

    def test_component_order_and_kinds(self, toy):
        assert toy.transition_actions(toy.states[0], toy.states[1]) == [0, 4, 8]
        assert toy.transition_actions(toy.states[2], toy.states[1]) == [18, 22]
        assert toy.transition_actions(toy.states[3], toy.states[3]) == []

    def test_uncovered_change_raises(self, partial):
        with pytest.raises(UnknownTransitionError) as err:
            partial.transition_actions(partial.states[1], partial.states[2])
        assert (err.value.component, err.value.kind) == (0, REMOVE)

    def test_nominal_events_raises_for_a_missing_action(self, partial):
        with pytest.raises(UnknownTransitionError, match="'remove' of component 0"):
            nominal_events(partial, [10, 20])


class TestCumulativeState:
    def test_no_events(self, toy):
        seq = EventSequence((), video_id="e", fps=10)
        assert cumulative_state(seq, toy, 1000).bits == (0,) * 17

    def test_last_write_wins(self, toy):
        seq = EventSequence.from_events(
            [toy.make_event(0, 10), toy.make_event(17, 20)], fps=10
        )
        assert cumulative_state(seq, toy, 15).bits[0] == 1
        assert cumulative_state(seq, toy, 25).bits[0] == 0

    def test_reaches_table_state(self, toy):
        seq = EventSequence.from_events(
            [toy.make_event(a, 10) for a in (0, 4, 8)], fps=10
        )
        state = cumulative_state(seq, toy, 10)
        assert state.to_string() == "10001000100000000"
        assert state.state_id == 1

    def test_stable_between_events(self, toy):
        seq = EventSequence.from_events(
            [toy.make_event(0, 10), toy.make_event(4, 50)], fps=10
        )
        for f in range(10, 50):
            assert cumulative_state(seq, toy, f).bits == cumulative_state(seq, toy, 10).bits

    def test_component_out_of_range(self, toy):
        bad = StepEvent(action=0, component=99, kind=INSTALL, correct=True, frame=5)
        seq = EventSequence((bad,), fps=10)
        with pytest.raises(StructureError):
            cumulative_state(seq, toy, 10)


class TestEventSequence:
    def test_sorted_with_action_ties(self, toy):
        seq = EventSequence.from_events(
            [toy.make_event(8, 10), toy.make_event(0, 10), toy.make_event(4, 10)],
            fps=10,
        )
        assert seq.actions() == [0, 4, 8]

    def test_duplicate_frame_action_rejected(self, toy):
        with pytest.raises(StructureError):
            EventSequence.from_events(
                [toy.make_event(0, 10), toy.make_event(0, 10)], fps=10
            )

    def test_correct_only_filter(self):
        seq = seq_of([(1, 10), (2, 20, False), (3, 30)])
        assert seq.correct_only().actions() == [1, 3]

    @pytest.mark.parametrize("fps", [0, -1.0, math.nan, math.inf, -math.inf])
    def test_fps_must_be_finite_positive(self, fps):
        with pytest.raises(StructureError, match="fps"):
            EventSequence((), fps=fps)


class TestProcedureValidation:
    def test_duplicate_action_ids(self):
        with pytest.raises(StructureError):
            Procedure(
                components=("a",),
                actions=(0, 0),
                action_effects={0: (0, INSTALL)},
                fps=10,
            )

    def test_component_out_of_range(self):
        with pytest.raises(StructureError):
            Procedure(
                components=("a",),
                actions=(0,),
                action_effects={0: (3, INSTALL)},
                fps=10,
            )

    def test_duplicate_effects(self):
        with pytest.raises(StructureError):
            Procedure(
                components=("a", "b"),
                actions=(0, 1),
                action_effects={0: (0, INSTALL), 1: (0, INSTALL)},
                fps=10,
            )

    def test_states_must_change(self):
        s = AssemblyState.from_string("10")
        with pytest.raises(StructureError):
            Procedure(
                components=("a", "b"),
                actions=(0,),
                action_effects={0: (0, INSTALL)},
                fps=10,
                states=(s, s),
            )

    def test_bad_fps(self):
        for fps in (0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(StructureError, match="fps"):
                Procedure(
                    components=("a",),
                    actions=(0,),
                    action_effects={0: (0, INSTALL)},
                    fps=fps,
                )


class TestToyProcedure:
    def test_shape(self, toy):
        assert toy.n_components == 17
        assert toy.n_steps == 34
        assert len(toy.states) == 12
        assert toy.states[0].to_string() == "0" * 17
        assert toy.states[-1].to_string() == "1" * 17

    def test_consecutive_states_differ_as_installs(self, toy):
        for a, b in zip(toy.states, toy.states[1:]):
            diff = state_diff(a, b)
            assert diff, "every transition installs something"
            assert all(kind == INSTALL for _, kind in diff)

    def test_nominal_order(self, toy):
        gt = nominal_events(toy, [100 * (i + 1) for i in range(11)])
        assert gt.actions() == [0, 4, 8, 1, 5, 9, 10, 2, 6, 3, 13, 7, 16, 14, 11, 12, 15]

    def test_action_labels(self, toy):
        assert toy.action_label(8) == "install headlamp"
        assert toy.action_label(17) == "remove left damping fork"
