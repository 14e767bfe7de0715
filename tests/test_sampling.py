import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psrkit import (
    EventSequence,
    StructureError,
    audit_kfs_batch,
    clip_indices,
    clip_label,
    cumulative_state,
    kcas_pmf,
    kfs_batch,
    nominal_events,
    sample_clip_ends,
    state_occurrences,
)

from oracles import naive_bits, naive_clip_label, naive_occurrences
from util import random_event_set


class TestKcasPmf:
    def test_normalized(self):
        dist = kcas_pmf([1000, 1400], video_len=2000, sigma=45, delta=80, w=256)
        assert abs(dist.pmf.sum() - 1.0) < 1e-9

    def test_support_excludes_short_ends(self):
        dist = kcas_pmf([500], video_len=1000, w=256)
        assert dist.support[0] == 256
        assert dist.support[-1] == 999
        assert len(dist.pmf) == len(dist.support)

    def test_symmetry_about_isolated_completion(self):
        t = 1200
        dist = kcas_pmf([t], video_len=2 * t - 255, sigma=45, delta=80, w=256)
        center = t - dist.start
        for k in range(1, 400):
            assert abs(dist.pmf[center - k] - dist.pmf[center + k]) < 1e-12

    def test_modes_at_plus_minus_delta(self):
        t = 1200
        dist = kcas_pmf([t], video_len=2400, sigma=45, delta=80, w=256)
        center = t - dist.start
        left = int(np.argmax(dist.pmf[:center]))
        right = center + int(np.argmax(dist.pmf[center:]))
        assert dist.start + left == t - 80
        assert dist.start + right == t + 80

    def test_dip_at_completion(self):
        t = 1200
        dist = kcas_pmf([t], video_len=2400, sigma=45, delta=80, w=256)
        center = t - dist.start
        assert dist.pmf[center] < dist.pmf[center - 80]
        assert dist.pmf[center] < dist.pmf[center + 80]

    def test_coincident_completions_merge(self):
        single = kcas_pmf([900], video_len=2000)
        double = kcas_pmf([900, 900], video_len=2000)
        assert np.array_equal(single.pmf, double.pmf)
        assert double.completion_frames == (900,)

    def test_uniform_fallback_without_completions(self, caplog):
        with caplog.at_level("WARNING"):
            dist = kcas_pmf([], video_len=500, w=100)
        assert "uniform" in caplog.text
        assert np.allclose(dist.pmf, dist.pmf[0])
        assert abs(dist.pmf.sum() - 1.0) < 1e-9

    def test_video_too_short(self):
        with pytest.raises(ValueError):
            kcas_pmf([10], video_len=256, w=256)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            kcas_pmf([10], video_len=500, sigma=0)

    @pytest.mark.parametrize("name,value", [
        ("sigma", math.nan), ("sigma", math.inf), ("sigma", -math.inf),
        ("delta", math.nan), ("delta", math.inf), ("delta", -math.inf),
    ])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite"):
            kcas_pmf([300], video_len=500, **{name: value})


class TestSampleClipEnds:
    def test_deterministic(self):
        dist = kcas_pmf([700], video_len=1500)
        a = sample_clip_ends(dist, 500, seed=42)
        b = sample_clip_ends(dist, 500, seed=42)
        assert np.array_equal(a, b)
        c = sample_clip_ends(dist, 500, seed=43)
        assert not np.array_equal(a, c)

    def test_degenerate_point_mass(self):
        dist = kcas_pmf([250], video_len=257, w=256)
        draws = sample_clip_ends(dist, 100, seed=0)
        assert set(draws.tolist()) == {256}

    def test_draws_inside_support(self):
        dist = kcas_pmf([400], video_len=900, w=256)
        draws = sample_clip_ends(dist, 2000, seed=1)
        assert draws.min() >= 256
        assert draws.max() <= 899

    def test_frequencies_track_pmf(self):
        dist = kcas_pmf([700], video_len=1400)
        draws = sample_clip_ends(dist, 200_000, seed=2)
        counts = np.bincount(draws - dist.start, minlength=len(dist.pmf))
        assert np.abs(counts / len(draws) - dist.pmf).max() < 5e-3

    def test_needs_positive_n(self):
        dist = kcas_pmf([400], video_len=900)
        with pytest.raises(ValueError):
            sample_clip_ends(dist, 0, seed=0)


class TestClipIndices:
    def test_stride_four(self):
        spec = clip_indices(1000, w=256, n_w=64)
        assert spec.indices[0] == 748
        assert spec.indices[-1] == 1000
        assert len(spec.indices) == 64
        assert {b - a for a, b in zip(spec.indices, spec.indices[1:])} == {4}

    def test_full_window(self):
        spec = clip_indices(9, w=10, n_w=10)
        assert spec.indices == tuple(range(0, 10))

    def test_single_frame(self):
        assert clip_indices(500, w=64, n_w=1).indices == (500,)

    def test_non_divisible(self):
        spec = clip_indices(100, w=10, n_w=3)
        assert spec.indices == (94, 97, 100)

    def test_too_many_samples(self):
        with pytest.raises(ValueError):
            clip_indices(100, w=8, n_w=9)

    def test_end_too_early(self):
        with pytest.raises(ValueError):
            clip_indices(100, w=256, n_w=4)


class TestClipLabel:
    def test_single_install(self, toy):
        seq = EventSequence.from_events([toy.make_event(3, 50)], fps=10)
        label = clip_label(seq, toy, 0, 100)
        assert label[3] == 1
        assert sum(label) == 1

    def test_remove_then_reinstall_cancels(self, toy):
        seq = EventSequence.from_events(
            [toy.make_event(3, 10), toy.make_event(20, 50), toy.make_event(3, 80)],
            fps=10,
        )
        assert sum(clip_label(seq, toy, 20, 100)) == 0

    def test_two_installs(self, toy):
        seq = EventSequence.from_events(
            [toy.make_event(3, 50), toy.make_event(7, 60)], fps=10
        )
        label = clip_label(seq, toy, 0, 100)
        assert label[3] == 1 and label[7] == 1 and sum(label) == 2

    def test_same_endpoints_zero(self, toy):
        seq = EventSequence.from_events([toy.make_event(3, 50)], fps=10)
        assert sum(clip_label(seq, toy, 120, 120)) == 0

    def test_backwards_clip_rejected(self, toy):
        seq = EventSequence((), fps=10)
        with pytest.raises(ValueError):
            clip_label(seq, toy, 10, 5)

    def test_matches_naive_replay(self, toy):
        rng = np.random.default_rng(10)
        for _ in range(300):
            seq = random_event_set(rng, toy, n_events=int(rng.integers(0, 12)), max_frame=200)
            start = int(rng.integers(0, 200))
            end = start + int(rng.integers(0, 200))
            flat = [(e.frame, e.component, e.kind) for e in seq.events]
            assert clip_label(seq, toy, start, end) == naive_clip_label(
                flat, toy.n_components, start, end
            )


class TestStateOccurrences:
    def test_nominal_occurrences(self, toy):
        frames = [100 * (i + 1) for i in range(11)]
        gt = nominal_events(toy, frames)
        occ = state_occurrences(gt, toy)
        assert occ == [(f, i + 1) for i, f in enumerate(frames)]

    def test_partial_transition_not_counted(self, toy):
        seq = EventSequence.from_events([toy.make_event(0, 10)], fps=10)
        assert state_occurrences(seq, toy) == []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_replay_matches_naive(self, toy, data):
        """cumulative_state and state_occurrences against a dict replay, on a
        nominal prefix (transitions may share a frame) plus random installs,
        removes and partial transitions."""
        n = toy.n_components
        events = {}
        frame = 0
        n_transitions = data.draw(st.integers(0, len(toy.states) - 1))
        for prev, nxt in zip(toy.states, toy.states[1:n_transitions + 1]):
            frame += data.draw(st.integers(0, 6))
            for c in range(n):  # toy action c installs component c
                if nxt.bits[c] != prev.bits[c]:
                    events[frame, c] = toy.make_event(c, frame)
        noise = st.tuples(st.integers(0, 80), st.integers(0, toy.n_steps - 1))
        for f, action in data.draw(st.lists(noise, max_size=12)):
            events[f, action] = toy.make_event(action, f)
        seq = EventSequence.from_events(events.values(), fps=toy.fps)
        flat = [(e.frame, e.component, e.kind) for e in seq.events]
        known = {s.bits: s.state_id for s in toy.states}
        assert state_occurrences(seq, toy) == naive_occurrences(flat, n, known)
        for f in range(0, 90, 3):
            state = cumulative_state(seq, toy, f)
            assert state.bits == naive_bits(flat, n, f)
            assert state.state_id == known.get(state.bits)


class TestKfsBatch:
    @pytest.fixture()
    def videos(self, toy):
        rng = np.random.default_rng(77)
        out = {}
        for v in range(3):
            cursor = 0
            frames = []
            for _ in range(11):
                cursor += int(rng.integers(40, 120))
                frames.append(cursor)
            out[f"v{v}"] = nominal_events(toy, frames, video_id=f"v{v}")
        return out

    @pytest.mark.parametrize("t_f", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_t_f_rejected(self, toy, videos, t_f):
        with pytest.raises(ValueError, match="t_f must be a finite non-negative"):
            kfs_batch(videos, toy, t_f=t_f, n_sample=4)

    def test_batch_law(self, toy, videos):
        spec = kfs_batch(videos, toy, t_f=2.0, n_sample=16, seed=5)
        assert len(spec.entries) == 176
        assert spec.n_state == 11
        per_state = {}
        for e in spec.entries:
            per_state[e.state_id] = per_state.get(e.state_id, 0) + 1
        assert set(per_state) == set(range(1, 12))
        assert all(count == 16 for count in per_state.values())
        audit_kfs_batch(spec, videos, toy)

    def test_window_bound(self, toy, videos):
        spec = kfs_batch(videos, toy, t_f=2.0, n_sample=16, seed=6)
        occ = {}
        for vid, seq in videos.items():
            for frame, sid in state_occurrences(seq, toy):
                occ.setdefault(sid, []).append((vid, frame))
        for e in spec.entries:
            assert any(
                v == e.video_id and 0 <= e.frame - f < 20 for v, f in occ[e.state_id]
            )

    def test_small_pool_falls_back_to_replacement(self, toy, videos, caplog):
        one = {"v0": videos["v0"]}
        with caplog.at_level("WARNING"):
            spec = kfs_batch(one, toy, t_f=0.1, n_sample=16, seed=7)
        assert "replacement" in caplog.text
        assert len(spec.entries) == 176
        audit_kfs_batch(spec, one, toy)

    def test_synthetic_entries(self, toy, videos):
        pool = {sid: [f"cad-{sid}-{i}" for i in range(10)] for sid in range(1, 12)}
        spec = kfs_batch(
            videos, toy, t_f=2.0, n_sample=8, n_syn=8, synthetic_pool=pool, seed=8
        )
        assert len(spec.entries) == 176
        real = [e for e in spec.entries if e.source == "real"]
        syn = [e for e in spec.entries if e.source == "synthetic"]
        assert len(real) == 88 and len(syn) == 88
        assert all(e.ref.startswith(f"cad-{e.state_id}-") for e in syn)
        audit_kfs_batch(spec, videos, toy)

    def test_missing_synthetic_pool(self, toy, videos):
        with pytest.raises(ValueError):
            kfs_batch(videos, toy, t_f=2.0, n_sample=8, n_syn=8)

    def test_unreached_states_skipped(self, toy, caplog):
        full = nominal_events(toy, [100 * (i + 1) for i in range(11)])
        truncated = EventSequence.from_events(
            [e for e in full.events if e.frame <= 300], fps=10
        )
        with caplog.at_level("WARNING"):
            spec = kfs_batch({"v": truncated}, toy, t_f=2.0, n_sample=4, seed=9)
        assert spec.n_state == 3
        assert "never occurs" in caplog.text

    def test_deterministic(self, toy, videos):
        a = kfs_batch(videos, toy, t_f=2.0, n_sample=16, seed=10)
        b = kfs_batch(videos, toy, t_f=2.0, n_sample=16, seed=10)
        assert a == b
        c = kfs_batch(videos, toy, t_f=2.0, n_sample=16, seed=11)
        assert a != c

    def test_audit_catches_tampering(self, toy, videos):
        import dataclasses

        spec = kfs_batch(videos, toy, t_f=2.0, n_sample=16, seed=12)
        bad_entry = dataclasses.replace(spec.entries[0], frame=10_000)
        bad = dataclasses.replace(spec, entries=(bad_entry,) + spec.entries[1:])
        with pytest.raises(StructureError):
            audit_kfs_batch(bad, videos, toy)
