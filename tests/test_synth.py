"""Scenario validation, deterministic generation, and ground-truth fidelity."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepmon import events
from sleepmon.analysis import EpochClass
from sleepmon.session import load_session, sessions_equal, write_session
from sleepmon.synth import (AMBIENT_LUMA, BED_DEPTH, BLOB_LUMA_OFFSET, BODY_DEPTH, CALM,
                            FULL_TURN, LEAVE_BED, LIGHT_OFF, LIGHT_ON, LIGHT_STEP, LIMB_MOVE,
                            PRESETS, RETURN_BED, TALK, TINY_TWITCH, Scenario, TimelineItem,
                            _blob_rect, _body_rect, _chaos_active, _chaos_value, _DEPTH_KINDS,
                            generate, preset, read_scenario, validate_scenario, with_seed,
                            write_scenario)


def scenario(duration=40, seed=5, items=()):
    return Scenario(duration=duration, seed=seed, timeline=tuple(items))


class TestValidation:
    def test_empty_timeline_ok(self):
        validate_scenario(scenario())

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown timeline kind"):
            validate_scenario(scenario(items=[TimelineItem(15, 18, "jump")]))

    def test_item_outside_duration(self):
        with pytest.raises(ValueError):
            validate_scenario(scenario(items=[TimelineItem(30, 45, TINY_TWITCH)]))

    def test_non_integer_times(self):
        with pytest.raises(ValueError, match="integer seconds"):
            validate_scenario(scenario(items=[TimelineItem(15.5, 18, TINY_TWITCH)]))

    def test_magnitude_range(self):
        with pytest.raises(ValueError):
            validate_scenario(scenario(items=[TimelineItem(15, 18, TINY_TWITCH, 1.5)]))

    def test_items_inside_warm_up_rejected(self):
        with pytest.raises(ValueError, match="warm-up"):
            validate_scenario(scenario(items=[TimelineItem(5, 8, FULL_TURN)]))

    def test_overlapping_depth_items(self):
        items = [TimelineItem(15, 20, LIMB_MOVE), TimelineItem(18, 22, FULL_TURN)]
        with pytest.raises(ValueError, match="overlaps"):
            validate_scenario(scenario(items=items))

    def test_audio_may_overlap_depth(self):
        items = [TimelineItem(15, 20, LIMB_MOVE), TimelineItem(15, 20, TALK)]
        validate_scenario(scenario(items=items))

    def test_unpaired_leave(self):
        with pytest.raises(ValueError, match="matching return_bed"):
            validate_scenario(scenario(items=[TimelineItem(15, 17, LEAVE_BED)]))

    def test_return_without_leave(self):
        with pytest.raises(ValueError, match="without a preceding leave_bed"):
            validate_scenario(scenario(items=[TimelineItem(15, 17, RETURN_BED)]))

    def test_movement_during_absence(self):
        items = [TimelineItem(15, 17, LEAVE_BED), TimelineItem(20, 23, FULL_TURN),
                 TimelineItem(32, 34, RETURN_BED)]
        with pytest.raises(ValueError, match="while out of view"):
            validate_scenario(scenario(items=items))

    def test_short_absence_rejected(self):
        items = [TimelineItem(15, 17, LEAVE_BED), TimelineItem(22, 24, RETURN_BED)]
        with pytest.raises(ValueError, match="absence must last"):
            validate_scenario(scenario(items=items))

    def test_light_state_machine(self):
        with pytest.raises(ValueError, match="already off"):
            validate_scenario(scenario(items=[TimelineItem(15, 16, LIGHT_OFF)]))
        items = [TimelineItem(15, 16, LIGHT_ON), TimelineItem(20, 21, LIGHT_ON)]
        with pytest.raises(ValueError, match="already on"):
            validate_scenario(scenario(items=items))

    def test_generate_wraps_as_invalid_timeline(self):
        with pytest.raises(ValueError, match="invalid timeline"):
            generate(scenario(items=[TimelineItem(15, 18, "jump")]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["depth_noise", "luma_noise", "audio_noise"])
    def test_non_finite_noise_rejected(self, field, value):
        bad = replace(scenario(), **{field: value})
        with pytest.raises(ValueError, match="noise levels must be finite"):
            validate_scenario(bad)
        with pytest.raises(ValueError, match="noise levels must be finite"):
            generate(bad)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("field", ["depth_noise", "luma_noise", "audio_noise"])
    def test_non_finite_noise_in_scenario_file_rejected(self, tmp_path, field, text):
        path = tmp_path / "sc.txt"
        write_scenario(scenario(), path)
        lines = [f"{field}={text}" if line.startswith(field + "=") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="noise levels must be finite"):
            validate_scenario(read_scenario(path))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        sc = scenario(duration=15, items=[TimelineItem(12, 14, TINY_TWITCH)])
        s1, t1 = generate(sc)
        s2, t2 = generate(sc)
        assert sessions_equal(s1, s2)
        assert t1.classes == t2.classes

    def test_different_seed_differs(self):
        sc = scenario(duration=5)
        s1, _ = generate(sc)
        s2, _ = generate(with_seed(sc, 6))
        assert not np.array_equal(s1.depth_frame(0), s2.depth_frame(0))

    def test_light_items_leave_depth_untouched(self):
        base = scenario(duration=20)
        lit = scenario(duration=20, items=[TimelineItem(15, 16, LIGHT_ON)])
        s1, _ = generate(base)
        s2, _ = generate(lit)
        for i in range(0, 600, 37):
            assert np.array_equal(s1.depth_frame(i), s2.depth_frame(i))
        assert not np.array_equal(s1.color_frame(16 * 30), s2.color_frame(16 * 30))


class TestDisturbanceMagnitudes:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kind_ordering(self, seed):
        fractions = {}
        calm_s, _ = generate(scenario(duration=16, seed=seed))
        for kind in (TINY_TWITCH, LIMB_MOVE, FULL_TURN):
            sc = scenario(duration=16, seed=seed, items=[TimelineItem(12, 15, kind)])
            s, _ = generate(sc)
            roi = s.manifest.roi
            diffs = []
            for i in range(12 * 30, 15 * 30):
                a = s.depth_frame(i)[roi[1]:roi[1] + roi[3], roi[0]:roi[0] + roi[2]]
                b = calm_s.depth_frame(i)[roi[1]:roi[1] + roi[3], roi[0]:roi[0] + roi[2]]
                diffs.append(np.mean(a != b))
            fractions[kind] = np.mean(diffs)
        assert fractions[FULL_TURN] > fractions[LIMB_MOVE] > fractions[TINY_TWITCH] > 0


class TestGroundTruth:
    def test_classes_and_efficiency_consistent(self):
        sc = scenario(duration=60, items=[
            TimelineItem(15, 18, TINY_TWITCH), TimelineItem(25, 28, FULL_TURN),
            TimelineItem(40, 43, LIMB_MOVE)])
        _, truth = generate(sc)
        wake = {EpochClass.FULL_POSTURE_CHANGE, EpochClass.LIMB_MOVEMENT,
                EpochClass.OUT_OF_VIEW}
        expected = 1.0 - sum(c in wake for c in truth.classes) / 60
        assert truth.efficiency == expected
        assert truth.classes[15] == EpochClass.TINY_MOVEMENT
        assert truth.classes[26] == EpochClass.FULL_POSTURE_CHANGE
        assert truth.classes[41] == EpochClass.LIMB_MOVEMENT

    def test_absence_labeled_out_of_view(self):
        sc = scenario(duration=60, items=[
            TimelineItem(15, 17, LEAVE_BED), TimelineItem(40, 42, RETURN_BED)])
        _, truth = generate(sc)
        assert truth.classes[15] == EpochClass.FULL_POSTURE_CHANGE
        assert truth.classes[17:40] == [EpochClass.OUT_OF_VIEW] * 23
        assert truth.classes[40] == EpochClass.FULL_POSTURE_CHANGE
        assert truth.motion_spans == [(15, 16), (40, 41)]

    def test_tiny_items_are_not_motion_events(self):
        sc = scenario(duration=30, items=[TimelineItem(15, 18, TINY_TWITCH)])
        _, truth = generate(sc)
        assert truth.motion_spans == []
        assert truth.classes[16] == EpochClass.TINY_MOVEMENT

    def test_contiguous_items_merge_into_one_event(self):
        sc = scenario(duration=30, items=[
            TimelineItem(15, 18, LIMB_MOVE), TimelineItem(18, 21, FULL_TURN)])
        _, truth = generate(sc)
        assert truth.motion_spans == [(15, 20)]

    def test_event_log_export_shape(self):
        sc = scenario(duration=40, items=[
            TimelineItem(15, 18, FULL_TURN), TimelineItem(25, 26, LIGHT_ON),
            TimelineItem(30, 33, TALK)])
        _, truth = generate(sc)
        text = events.format_event_log(truth.events)
        lines = text.splitlines()
        assert lines[0] == events.EVENT_LOG_HEADER
        assert len(lines) == 4
        parsed = events.parse_event_log(text)
        assert parsed["motion"][0].start_epoch == 15
        assert parsed["light"][0].start_epoch == 25
        assert parsed["noise"][0].end_epoch == 32


class TestPipelineAgreement:
    def test_empty_timeline_detects_nothing(self):
        session, _ = generate(scenario(duration=40))
        res = events.run_detector(session)
        assert all(len(v) == 0 for v in res.events.values())

    def test_scripted_items_detected_at_their_seconds(self):
        sc = scenario(duration=60, items=[
            TimelineItem(20, 23, FULL_TURN), TimelineItem(40, 43, TALK)])
        session, truth = generate(sc)
        res = events.run_detector(session)
        assert [(e.start_epoch, e.end_epoch) for e in res.events["motion"]] == truth.motion_spans
        assert [(e.start_epoch, e.end_epoch) for e in res.events["noise"]] == truth.noise_spans


class TestPresets:
    def test_preset_names(self):
        for name in PRESETS:
            validate_scenario(preset(name))

    def test_unknown_preset_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="posture_test"):
            preset("nap")

    def test_posture_test_shape(self):
        sc = preset("posture_test")
        assert sc.duration == 600
        turns = [it for it in sc.timeline if it.kind == FULL_TURN]
        assert [it.start for it in turns] == [120, 240, 360, 480]
        _, truth = generate(sc)
        assert len(truth.motion_spans) == 4

    def test_trouble_has_lower_truth_efficiency(self):
        _, trouble = generate(preset("trouble_sleeping"))
        _, good = generate(preset("successful_sleeping"))
        assert trouble.efficiency < good.efficiency
        assert len(trouble.motion_spans) > len(good.motion_spans)

    def test_successful_has_exactly_one_light_on(self):
        sc = preset("successful_sleeping")
        assert sum(1 for it in sc.timeline if it.kind == LIGHT_ON) == 1

    def test_seed_override(self):
        assert preset("posture_test", seed=9).seed == 9


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        sc = Scenario(duration=120, seed=77, timeline=(
            TimelineItem(15, 18, TINY_TWITCH, 0.25),
            TimelineItem(30, 31, LIGHT_ON, 1.0),
            TimelineItem(40, 41, LIGHT_OFF, 1.0),
            TimelineItem(50, 53, CALM, 0.0),
        ), depth_noise=1.5, frame_width=64, frame_height=56, roi=(4, 4, 48, 32))
        path = tmp_path / "sc.txt"
        write_scenario(sc, path)
        assert read_scenario(path) == sc

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sc.txt"
        path.write_text("duration=10\nwhat=1\n")
        with pytest.raises(ValueError, match="unknown scenario key"):
            read_scenario(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "sc.txt"
        path.write_text("duration=10\n")
        with pytest.raises(ValueError, match="missing keys"):
            read_scenario(path)


class SeedSynth:
    """The whole-second float64 depth and color builders the per-frame ones
    replaced, kept verbatim (with the per-second setup of ``generate``) as the
    oracle."""

    def __init__(self, scenario):
        self.scenario = scenario
        dur = scenario.duration
        self.fps = scenario.video_rate
        self.fh, self.fw = scenario.frame_height, scenario.frame_width
        self.roi = tuple(scenario.roi)
        self.body = _body_rect(self.roi)
        self.depth_item = [None] * dur
        self.light_level = np.full(dur, AMBIENT_LUMA, np.float64)
        level = AMBIENT_LUMA
        for idx, item in enumerate(scenario.timeline):
            if item.kind in _DEPTH_KINDS and item.kind != CALM:
                for s in range(item.start, item.end):
                    self.depth_item[s] = (idx, item)
            elif item.kind == LIGHT_ON:
                level += LIGHT_STEP
                self.light_level[item.start:] = level
            elif item.kind == LIGHT_OFF:
                level -= LIGHT_STEP
                self.light_level[item.start:] = level
        self.body_present = np.ones(dur, bool)
        absence_from = None
        for item in scenario.timeline:
            if item.kind == LEAVE_BED:
                absence_from = item.start
            elif item.kind == RETURN_BED:
                self.body_present[absence_from:item.start] = False
                absence_from = None

    def disturbance(self, sec: int):
        """(rect, active flags, chaos values) for the depth item this second."""
        fps, roi = self.fps, self.roi
        entry = self.depth_item[sec]
        if entry is None:
            return None, None, None
        idx, item = entry
        rect = _blob_rect(item.kind, item.magnitude, roi, idx)
        locals_ = fps * sec + np.arange(fps) - fps * item.start
        active = np.array([_chaos_active(item.kind, lf) for lf in locals_])
        values = np.array([_chaos_value(lf) for lf in locals_])
        return rect, active, values

    def build_depth(self, sec: int) -> np.ndarray:
        scenario, fps, fh, fw, body = self.scenario, self.fps, self.fh, self.fw, self.body
        base = np.full((fh, fw), float(BED_DEPTH))
        if self.body_present[sec]:
            t, l, bh, bw = body
            base[t:t + bh, l:l + bw] = BODY_DEPTH
        frames = np.repeat(base[None, :, :], fps, axis=0)
        rect, active, values = self.disturbance(sec)
        if rect is not None:
            t, l, bh, bw = rect
            for j in range(fps):
                if active[j]:
                    frames[j, t:t + bh, l:l + bw] = values[j]
        noise = np.random.default_rng([scenario.seed, 0, sec]).normal(
            0.0, scenario.depth_noise, (fps, fh, fw))
        return np.clip(np.rint(frames + noise), 0, 2047).astype(np.uint16)

    def build_color(self, sec: int) -> np.ndarray:
        scenario, fps, fh, fw = self.scenario, self.fps, self.fh, self.fw
        frames = np.full((fps, fh, fw), self.light_level[sec])
        rect, active, _ = self.disturbance(sec)
        if rect is not None:
            t, l, bh, bw = rect
            for j in range(fps):
                if active[j]:
                    frames[j, t:t + bh, l:l + bw] += BLOB_LUMA_OFFSET
        noise = np.random.default_rng([scenario.seed, 1, sec]).normal(
            0.0, scenario.luma_noise, (fps, fh, fw))
        gray = np.clip(np.rint(frames + noise), 0, 255).astype(np.uint8)
        return np.repeat(gray[:, :, :, None], 3, axis=3)


# Every item kind; a movement, a light on and talk start together just after
# the return, so a disturbance also meets the body plane and a lit scene.
ORACLE_TIMELINE = (
    TimelineItem(0, 12, CALM, 0.0), TimelineItem(12, 13, TINY_TWITCH, 0.2),
    TimelineItem(13, 14, LIMB_MOVE, 0.7), TimelineItem(14, 15, FULL_TURN, 1.0),
    TimelineItem(15, 17, LEAVE_BED, 1.0), TimelineItem(17, 18, LIGHT_ON, 0.5),
    TimelineItem(21, 22, LIGHT_OFF, 0.5), TimelineItem(29, 31, RETURN_BED, 1.0),
    TimelineItem(31, 33, LIMB_MOVE, 0.4), TimelineItem(31, 32, LIGHT_ON, 0.5),
    TimelineItem(31, 32, TALK, 0.5))


@st.composite
def oracle_scenarios(draw):
    fw, fh = draw(st.integers(16, 40)), draw(st.integers(16, 40))
    w, h = draw(st.integers(16, fw)), draw(st.integers(16, fh))
    noise = st.sampled_from([0.0, 0.5, 2.0, 37.5])
    return Scenario(duration=33, seed=draw(st.integers(0, 2 ** 64 - 1)),
                    timeline=ORACLE_TIMELINE, depth_noise=draw(noise),
                    luma_noise=draw(noise), frame_width=fw, frame_height=fh,
                    roi=(draw(st.integers(0, fw - w)), draw(st.integers(0, fh - h)), w, h),
                    video_rate=draw(st.sampled_from([1, 7, 30])))


class TestPerFrameSynthOracle:
    @settings(max_examples=30, deadline=None)
    @given(oracle_scenarios())
    def test_every_frame_bit_equal_to_seed_synth(self, sc):
        session, _ = generate(sc)
        ref = SeedSynth(sc)
        fps = sc.video_rate
        for sec in range(sc.duration):
            depth, color = ref.build_depth(sec), ref.build_color(sec)
            for j in range(fps):
                d, c = session.depth[sec * fps + j], session.color[sec * fps + j]
                assert d.dtype == np.uint16 and c.dtype == np.uint8
                assert np.array_equal(d, depth[j]), (sec, j)
                assert np.array_equal(c, color[j]), (sec, j)


def _short_session():
    return generate(Scenario(duration=4, seed=11, frame_width=20, frame_height=18,
                             roi=(2, 1, 16, 16), video_rate=5))[0]


class TestGeneratedFrameStore:
    def test_indices_agree_with_loaded_store(self, tmp_path):
        gen = _short_session()
        write_session(gen, tmp_path / "s")
        loaded = load_session(tmp_path / "s")
        n = gen.manifest.frame_count
        for name in ("depth", "color"):
            g, m = getattr(gen, name), getattr(loaded, name)
            for i in range(-n, n):
                assert np.array_equal(g[i], m[i]), (name, i)
            assert np.array_equal(g[np.int64(-1)], m[n - 1])
            for store in (g, m):
                for bad in (-n - 1, n):
                    with pytest.raises(IndexError):
                        store[bad]
                with pytest.raises(TypeError):
                    store[1.0]

    def test_held_frames_survive_later_seconds(self):
        gen = _short_session()
        fps = gen.manifest.video_rate
        depth, color = gen.depth[fps + 2], gen.color[fps + 2]
        want = depth.copy(), color.copy()
        for sec in (2, 3):
            gen.depth[sec * fps]
            gen.color[sec * fps]
        assert np.array_equal(depth, want[0])
        assert np.array_equal(color, want[1])

    @pytest.mark.parametrize("order", ["backwards", "shuffled"])
    def test_read_order_does_not_change_bytes(self, order):
        in_order, other = _short_session(), _short_session()
        n = in_order.manifest.frame_count
        idx = (range(n - 1, -1, -1) if order == "backwards"
               else np.random.default_rng(3).permutation(n))
        for name in ("depth", "color"):
            want = [getattr(in_order, name)[i].copy() for i in range(n)]
            got = {int(i): getattr(other, name)[i].copy() for i in idx}
            for i in range(n):
                assert np.array_equal(got[i], want[i]), (name, i)
