"""Command-line surface: outputs, formats, exit codes, determinism."""

import filecmp
import itertools
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepmon import analysis, cli, session
from sleepmon.cli import _match_spans, main
from sleepmon.events import Event, format_event_log
from sleepmon.kvtext import to_pairs, write_pairs
from sleepmon.scoring import format_scores_csv
from sleepmon.synth import (FULL_TURN, LIGHT_ON, TALK, Scenario, TimelineItem,
                            write_scenario)


def small_scenario(duration=40, seed=11, items=None):
    if items is None:
        items = (TimelineItem(15, 18, FULL_TURN, 0.5),
                 TimelineItem(25, 26, LIGHT_ON, 0.5),
                 TimelineItem(30, 33, TALK, 0.5))
    return Scenario(duration=duration, seed=seed, timeline=tuple(items))


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    write_scenario(small_scenario(), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_session_and_ground_truth(self, tmp_path, scenario_file):
        out = tmp_path / "s1"
        assert run("generate", "--scenario", scenario_file, "--out", out) == 0
        for name in ("manifest.txt", "depth.raw", "color.raw", "audio.raw",
                     "groundtruth.log"):
            assert (out / name).is_file()

    def test_deterministic_across_invocations(self, tmp_path, scenario_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run("generate", "--scenario", scenario_file, "--out", a)
        run("generate", "--scenario", scenario_file, "--out", b)
        for name in ("manifest.txt", "depth.raw", "color.raw", "audio.raw",
                     "groundtruth.log"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_seed_changes_streams(self, tmp_path, scenario_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run("generate", "--scenario", scenario_file, "--out", a)
        run("generate", "--scenario", scenario_file, "--seed", 99, "--out", b)
        assert not filecmp.cmp(a / "depth.raw", b / "depth.raw", shallow=False)

    def test_talk_item_at_44100_hz(self, tmp_path):
        path = tmp_path / "scenario.txt"
        write_scenario(replace(small_scenario(), audio_rate=44100), path)
        assert run("generate", "--scenario", path, "--out", tmp_path / "s") == 0
        assert (tmp_path / "s" / "audio.raw").stat().st_size == 2 * 40 * 44100

    @pytest.mark.parametrize("audio_rate", [20, 1])
    def test_audio_rate_below_video_rate_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                                     audio_rate):
        path = tmp_path / "scenario.txt"
        write_scenario(Scenario(duration=15, seed=3, audio_rate=audio_rate), path)
        out = tmp_path / "s"
        assert run("generate", "--scenario", path, "--out", out) == 1
        assert "audio_rate must be >= video_rate" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_lists_valid_names(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--preset", "nap", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "posture_test" in capsys.readouterr().err

    def test_preset_flag_is_exclusive_with_scenario(self, tmp_path, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--preset", "posture_test", "--scenario",
                  str(scenario_file), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestDetect:
    @pytest.fixture
    def session_dir(self, tmp_path, scenario_file):
        out = tmp_path / "sess"
        run("generate", "--scenario", scenario_file, "--out", out)
        return out

    def test_outputs_written(self, tmp_path, session_dir):
        out = tmp_path / "det"
        assert run("detect", "--session", session_dir, "--out", out) == 0
        for name in ("events.log", "scores.csv", "epochs.csv", "config_used.txt"):
            assert (out / name).is_file()
        text = (out / "config_used.txt").read_text()
        assert "depth_threshold=0.02" in text
        assert "workers=1" in text

    def test_partial_config_gets_defaults_echoed(self, tmp_path, session_dir):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("depth_threshold=0.03\n")
        out = tmp_path / "det"
        assert run("detect", "--session", session_dir, "--config", cfg, "--out", out) == 0
        text = (out / "config_used.txt").read_text()
        assert "depth_threshold=0.03" in text
        assert "color_threshold=0.05" in text  # default applied and echoed

    def test_unknown_config_key_fails(self, tmp_path, session_dir, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("depth_thresh=0.03\n")
        code = run("detect", "--session", session_dir, "--config", cfg,
                   "--out", tmp_path / "det")
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_gmm_config_exits_1(self, tmp_path, session_dir, capsys, value):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"gmm_match_k={value}\n")
        code = run("detect", "--session", session_dir, "--config", cfg,
                   "--out", tmp_path / "det")
        assert code == 1
        assert "match_k must be finite" in capsys.readouterr().err
        assert not (tmp_path / "det").exists()

    def test_corrupt_session_exits_nonzero(self, tmp_path, session_dir, capsys):
        (session_dir / "depth.raw").unlink()
        code = run("detect", "--session", session_dir, "--out", tmp_path / "det")
        assert code == 1
        assert "corrupt session" in capsys.readouterr().err

    def test_audio_rate_below_video_rate_exits_1_at_load(self, tmp_path, session_dir, capsys):
        manifest = session_dir / "manifest.txt"
        text = manifest.read_text()
        assert "audio_rate=16000\n" in text
        manifest.write_text(text.replace("audio_rate=16000\n", "audio_rate=20\n"))
        code = run("detect", "--session", session_dir, "--out", tmp_path / "det")
        assert code == 1
        err = capsys.readouterr().err
        assert "manifest mismatch: audio_rate 20 is below video_rate 30" in err
        assert "empty chunk" not in err
        assert not (tmp_path / "det").exists()

    def test_detected_events_match_ground_truth(self, tmp_path, session_dir):
        out = tmp_path / "det"
        run("detect", "--session", session_dir, "--out", out)
        code = run("compare", "--events", out / "events.log",
                   "--truth", session_dir / "groundtruth.log", "--tolerance", 2)
        assert code == 0

    def test_byte_identical_reruns_and_worker_independence(self, tmp_path, session_dir):
        out1, out2, out3 = tmp_path / "d1", tmp_path / "d2", tmp_path / "d3"
        cfg = tmp_path / "workers.txt"
        cfg.write_text("workers=2\n")
        run("detect", "--session", session_dir, "--out", out1)
        run("detect", "--session", session_dir, "--out", out2)
        run("detect", "--session", session_dir, "--config", cfg, "--out", out3)
        for name in ("events.log", "scores.csv", "epochs.csv"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
            assert filecmp.cmp(out1 / name, out3 / name, shallow=False), name


class TestReport:
    def test_all_calm_session(self, tmp_path):
        sc_path = tmp_path / "calm.txt"
        write_scenario(small_scenario(items=()), sc_path)
        sess, det = tmp_path / "sess", tmp_path / "det"
        run("generate", "--scenario", sc_path, "--out", sess)
        run("detect", "--session", sess, "--out", det)
        assert run("report", "--session", sess, "--detect", det) == 0
        text = (det / "report.txt").read_text()
        assert "calmness_pct=100.00" in text
        assert "sleep_efficiency=1.0000" in text

    def test_percentages_sum_to_hundred(self, tmp_path, scenario_file):
        sess, det = tmp_path / "sess", tmp_path / "det"
        run("generate", "--scenario", scenario_file, "--out", sess)
        run("detect", "--session", sess, "--out", det)
        run("report", "--session", sess, "--detect", det)
        values = dict(line.split("=") for line in
                      (det / "report.txt").read_text().splitlines())
        total = sum(float(values[k]) for k in
                    ("full_posture_changes_pct", "limb_movements_pct",
                     "tiny_movements_pct", "calmness_pct", "out_of_view_pct"))
        assert abs(total - 100.0) <= 0.1

    def test_missing_detection_outputs(self, tmp_path, scenario_file, capsys):
        sess = tmp_path / "sess"
        run("generate", "--scenario", scenario_file, "--out", sess)
        code = run("report", "--session", sess, "--detect", tmp_path / "nope")
        assert code == 1


STREAMS = ("depth.raw", "color.raw", "audio.raw")


def library_report(depth, light, noise, video_rate):
    """report.txt as the library path computes it from the raw depth scores."""
    return analysis.format_report(analysis.sleep_report(depth, light, noise, video_rate))


def write_detection(root, roi_w, roi_h, video_rate, counts, light=(), noise=()):
    """A manifest-only session plus detection outputs with depth scores counts/area."""
    sess, det = root / "sess", root / "det"
    sess.mkdir()
    det.mkdir()
    man = session.SessionManifest(depth_width=roi_w, depth_height=roi_h, color_width=roi_w,
                                  color_height=roi_h, video_rate=video_rate, audio_rate=1,
                                  frame_count=len(counts), roi=(0, 0, roi_w, roi_h))
    write_pairs(sess / session.MANIFEST_NAME, to_pairs(man))
    depth = np.asarray(counts) / (roi_w * roi_h)
    zeros = np.zeros(len(depth))
    (det / "scores.csv").write_text(format_scores_csv(
        {"depth": depth, "color": zeros, "audio": zeros}))
    (det / "events.log").write_text(format_event_log(
        {"motion": [], "light": list(light), "noise": list(noise)}))
    return sess, det, depth


class TestReportPath:
    """``report`` reads the manifest and the detection outputs, and nothing else."""

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pristine")
        write_scenario(small_scenario(), root / "scenario.txt")
        sess, det = root / "sess", root / "det"
        run("generate", "--scenario", root / "scenario.txt", "--out", sess)
        run("detect", "--session", sess, "--out", det)
        assert run("report", "--session", sess, "--detect", det) == 0
        return sess, det

    @pytest.fixture
    def detected(self, tmp_path, pristine):
        sess, det = (shutil.copytree(src, tmp_path / src.name) for src in pristine)
        return sess, det, (det / "report.txt").read_bytes()

    def test_report_without_stream_files_is_identical(self, detected):
        sess, det, before = detected
        for name in STREAMS:
            (sess / name).unlink()
        (det / "report.txt").unlink()
        assert run("report", "--session", sess, "--detect", det) == 0
        assert (det / "report.txt").read_bytes() == before

    def test_report_never_loads_the_session(self, detected, monkeypatch):
        sess, det, before = detected

        def refuse(path):
            raise AssertionError("report loaded the session streams")

        monkeypatch.setattr(cli, "load_session", refuse)
        monkeypatch.setattr(session, "load_session", refuse)
        assert run("report", "--session", sess, "--detect", det) == 0
        assert (det / "report.txt").read_bytes() == before

    def test_missing_manifest_exits_1(self, detected, capsys):
        sess, det, _ = detected
        (sess / "manifest.txt").unlink()
        assert run("report", "--session", sess, "--detect", det) == 1
        assert "corrupt session" in capsys.readouterr().err

    def test_scores_row_count_must_equal_frame_count(self, detected, capsys):
        sess, det, _ = detected
        lines = (det / "scores.csv").read_text().splitlines(keepends=True)
        (det / "scores.csv").write_text("".join(lines[:-1]))
        assert run("report", "--session", sess, "--detect", det) == 1
        assert "manifest mismatch: scores.csv holds 1199 frames" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["swap", "gap"])
    def test_frame_column_must_count_from_zero(self, detected, capsys, edit):
        sess, det, _ = detected
        lines = (det / "scores.csv").read_text().splitlines(keepends=True)
        if edit == "swap":
            lines[5], lines[6] = lines[6], lines[5]
        else:
            lines[6] = "9999" + lines[6][lines[6].index(","):]
        (det / "scores.csv").write_text("".join(lines))
        assert run("report", "--session", sess, "--detect", det) == 1
        assert "frame column" in capsys.readouterr().err

    def test_overlapping_event_log_exits_1(self, detected, capsys):
        sess, det, _ = detected
        with open(det / "events.log", "a") as fh:
            fh.write("noise,30,31,0.3,0,0\nnoise,31,32,0.3,0,0\n")
        assert run("report", "--session", sess, "--detect", det) == 1
        assert "not sorted and disjoint" in capsys.readouterr().err

    @pytest.mark.parametrize("roi_w, roi_h, counts, line", [
        # roi 127x21: a peak of 8/2667 = 0.0029996 is below the 0.003 absence
        # ceiling, but scores.csv holds it as 0.003000.  An exit spike then
        # eleven such epochs make the subject out of view in the library.
        (127, 21, [0] * 5 + [1333] + [8] * 11 + [1333] + [0] * 62, "out_of_view_pct=13.75"),
        # roi 55x29: seven frames at 9/1595 give an activity count of 4, Cole
        # sleep; their six-decimal values give 5, Cole wake.
        (55, 29, [9] * 7 + [0] * 53, "cole_sleep_efficiency=1.0000"),
    ])
    def test_scores_near_a_boundary_classified_as_library(self, tmp_path, roi_w, roi_h,
                                                          counts, line):
        sess, det, depth = write_detection(tmp_path, roi_w, roi_h, 1, counts)
        expected = library_report(depth, [], [], 1)
        assert line in expected.splitlines()
        assert run("report", "--session", sess, "--detect", det) == 0
        assert (det / "report.txt").read_text() == expected

    @settings(max_examples=30, deadline=None)
    @given(roi_w=st.integers(1, 1500), roi_h=st.integers(1, 700),
           video_rate=st.integers(1, 3), seconds=st.integers(1, 150),
           extra=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
    def test_report_equals_library_report(self, tmp_path_factory, roi_w, roi_h, video_rate,
                                          seconds, extra, seed):
        roi_h = min(roi_h, (10 ** 6 - 1) // roi_w)
        area = roi_w * roi_h
        rng = np.random.default_rng(seed)
        # Runs of 1-15 epochs near one class boundary, each frame a few pixels
        # off its run's level: rounding to six decimals would move classes, the
        # out-of-view overlay and the Cole/Sadeh counts.
        levels = np.array([0, 0.003, 0.005, 0.02, 0.10, 0.30, 1.0])
        n = seconds * video_rate + min(extra, video_rate - 1)
        level = np.repeat(rng.choice(levels, n), rng.integers(1, 16, n) * video_rate)[:n]
        counts = np.clip(np.rint(level * area) + rng.integers(-2, 3, n), 0, area)

        def spans(channel):
            ends = np.sort(rng.choice(seconds + 1, 2 * min(3, seconds // 2), replace=False))
            return [Event(channel, int(s), int(e) - 1, 0.5, 0, 0) for s, e in ends.reshape(-1, 2)]

        light, noise = spans("light"), spans("noise")
        sess, det, depth = write_detection(tmp_path_factory.mktemp("rep"), roi_w, roi_h,
                                           video_rate, counts, light, noise)
        assert run("report", "--session", sess, "--detect", det) == 0
        assert (det / "report.txt").read_text() == library_report(depth, light, noise,
                                                                  video_rate)


def brute_force_matching(detected, truth, tolerance):
    """Size of a maximum matching of overlapping spans, by trying every pairing."""
    for k in range(min(len(detected), len(truth)), 0, -1):
        for dets in itertools.combinations(detected, k):
            for truths in itertools.permutations(truth, k):
                if all(d.start_epoch - tolerance <= t.end_epoch
                       and t.start_epoch <= d.end_epoch + tolerance
                       for d, t in zip(dets, truths)):
                    return k
    return 0


@st.composite
def sorted_disjoint_spans(draw):
    spans, end = [], -1
    for gap, length in draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 5)),
                                     max_size=5)):
        start = end + gap
        end = start + length
        spans.append(Event("motion", start, end, 0.1, 0, 0))
    return spans


class TestMatchSpans:
    @settings(max_examples=200, deadline=None)
    @given(detected=sorted_disjoint_spans(), truth=sorted_disjoint_spans(),
           tolerance=st.integers(0, 4))
    def test_greedy_is_a_maximum_matching(self, detected, truth, tolerance):
        matched, _, _ = _match_spans(detected, truth, tolerance)
        assert matched == brute_force_matching(detected, truth, tolerance)

    def test_shuffled_detections_can_undercount(self):
        # Why logs must be sorted: out of order, the wide span takes the
        # truth span the narrow one needed.
        wide, narrow = Event("motion", 0, 10, 0.1, 0, 0), Event("motion", 0, 0, 0.1, 0, 0)
        truth = [Event("motion", 0, 0, 0.1, 0, 0), Event("motion", 8, 8, 0.1, 0, 0)]
        assert _match_spans([wide, narrow], truth, 0)[0] == 1
        assert brute_force_matching([wide, narrow], truth, 0) == 2


class TestCompare:
    def _log(self, path, rows):
        header = "channel,start_epoch,end_epoch,peak_score,clip_start,clip_end"
        path.write_text("\n".join([header] + rows) + "\n")

    def test_identical_logs(self, tmp_path, capsys):
        log = tmp_path / "e.log"
        self._log(log, ["motion,5,7,0.200000,120,269"])
        assert run("compare", "--events", log, "--truth", log) == 0
        out = capsys.readouterr().out
        assert "channel=motion precision=1.0000 recall=1.0000" in out

    def test_missed_event_lowers_recall(self, tmp_path, capsys):
        det, truth = tmp_path / "d.log", tmp_path / "t.log"
        self._log(det, [])
        self._log(truth, ["motion,5,7,0.200000,120,269"])
        assert run("compare", "--events", det, "--truth", truth) == 1
        assert "recall=0.0000" in capsys.readouterr().out

    def test_spurious_event_lowers_precision(self, tmp_path, capsys):
        det, truth = tmp_path / "d.log", tmp_path / "t.log"
        self._log(det, ["motion,5,7,0.200000,120,269", "motion,40,41,0.1,1170,1289"])
        self._log(truth, ["motion,5,7,0.200000,120,269"])
        assert run("compare", "--events", det, "--truth", truth) == 1
        assert "precision=0.5000" in capsys.readouterr().out

    def test_shift_within_tolerance_matches(self, tmp_path):
        det, truth = tmp_path / "d.log", tmp_path / "t.log"
        self._log(det, ["motion,7,9,0.200000,180,329"])
        self._log(truth, ["motion,5,5,0.200000,120,209"])
        assert run("compare", "--events", det, "--truth", truth, "--tolerance", 2) == 0
        assert run("compare", "--events", det, "--truth", truth, "--tolerance", 1) == 1

    @pytest.mark.parametrize("rows", [
        ["motion,40,41,0.1,1170,1289", "motion,5,7,0.200000,120,269"],
        ["motion,5,7,0.200000,120,269", "motion,7,9,0.200000,180,329"],
    ])
    def test_unsorted_or_overlapping_log_fails(self, tmp_path, capsys, rows):
        det, truth = tmp_path / "d.log", tmp_path / "t.log"
        self._log(det, rows)
        self._log(truth, ["motion,5,7,0.200000,120,269"])
        assert run("compare", "--events", det, "--truth", truth) == 1
        assert run("compare", "--events", truth, "--truth", det) == 1
        assert "not sorted and disjoint" in capsys.readouterr().err

    def test_malformed_log_fails(self, tmp_path, capsys):
        det, truth = tmp_path / "d.log", tmp_path / "t.log"
        det.write_text("nonsense\n")
        self._log(truth, [])
        assert run("compare", "--events", det, "--truth", truth) == 1


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
