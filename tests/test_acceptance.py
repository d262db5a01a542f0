"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy scenario runs
(the hour-long and twenty-minute presets) are shared across criteria through
module-scoped fixtures.
"""

import filecmp
import hashlib
import time

import numpy as np
import pytest

from sleepmon import actigraphy, analysis, events, scoring, synth
from sleepmon.cli import main

from test_events import detect_ref
from test_actigraphy import cole_ref, sadeh_ref


def _analyze(name):
    scenario = synth.preset(name)
    session, truth = synth.generate(scenario)
    result = events.run_detector(session)
    report = analysis.sleep_report(result.scores["depth"], result.events["light"],
                                   result.events["noise"], scenario.video_rate)
    return {"truth": truth, "result": result, "report": report}


# sha256 of the formatted detect artifacts of the two long presets, pinned
# like tests/test_golden.py: a change that moves them changes behaviour.
LONG_PRESET_GOLDEN = {
    "trouble_sleeping": {
        "events.log":
            "f5c2c49035f0c3799c3c70bb1f4e4cdf11fec971c394ab1c7871be36ec535d9a",
        "scores.csv":
            "b62dd075ce68eafadd5e893bda805d8594efec8698d58ae4bfe54d68bd5ed4d0",
        "epochs.csv":
            "b05a3940d825c4f53ffa6524e900abf6b4d85af3dcc094308ca9da1b456e6b03",
    },
    "successful_sleeping": {
        "events.log":
            "a6d9857b91824f2c6aa50159a4daef57dcb833c0490f0ee7f423cfce4b2adec3",
        "scores.csv":
            "77162fa82bb1623bd2e0b6cb036b2e391227d930af1ab6558fe392da08218c1f",
        "epochs.csv":
            "8a41f652ba1a2e03116bbe037b344d24e1b7fc01066a171143b27c52f587d074",
    },
}


@pytest.fixture(scope="module")
def trouble_run():
    return _analyze("trouble_sleeping")


@pytest.fixture(scope="module")
def successful_run():
    return _analyze("successful_sleeping")


def test_criterion_1_posture_change_protocol(tmp_path):
    """Four scripted turns detected as exactly four motion events, in time."""
    sess, det = tmp_path / "sess", tmp_path / "det"
    assert main(["generate", "--preset", "posture_test", "--out", str(sess)]) == 0
    t0 = time.perf_counter()
    assert main(["detect", "--session", str(sess), "--out", str(det)]) == 0
    elapsed = time.perf_counter() - t0
    detected = events.parse_event_log((det / "events.log").read_text())
    assert len(detected["motion"]) == 4
    assert len(detected["light"]) == 0
    assert len(detected["noise"]) == 0
    for expected_start, ev in zip((120, 240, 360, 480), detected["motion"]):
        assert ev.start_epoch - 2 <= expected_start <= ev.end_epoch + 2
    assert main(["compare", "--events", str(det / "events.log"),
                 "--truth", str(sess / "groundtruth.log"), "--tolerance", "2"]) == 0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: posture test -> 4 motion events, 0 light, 0 noise, "
          f"detect ran in {elapsed:.1f}s (< 60s)")


def test_long_preset_artifact_hashes(trouble_run, successful_run):
    """The hour-long runs' events.log, scores.csv and epochs.csv hold their bytes."""
    for name, run in (("trouble_sleeping", trouble_run),
                      ("successful_sleeping", successful_run)):
        result = run["result"]
        texts = {
            "events.log": events.format_event_log(result.events),
            "scores.csv": scoring.format_scores_csv(result.scores),
            "epochs.csv": events.format_epochs_csv(result.epochs),
        }
        got = {k: hashlib.sha256(t.encode()).hexdigest() for k, t in texts.items()}
        assert got == LONG_PRESET_GOLDEN[name], name


def test_criterion_2_sleep_efficiency_identity(trouble_run, successful_run):
    """Reported efficiency equals (tiny% + calm%)/100 on every session."""
    for run in (trouble_run, successful_run):
        r = run["report"]
        assert abs(r.efficiency - (r.tiny_pct + r.calm_pct) / 100.0) <= 1e-9
    # Published-table arithmetic as formula-consistency fixtures.
    assert abs((46.05 + 35.13) - 81.2) <= 0.05
    assert abs((53.26 + 40.5) - 93.79) <= 0.05
    C = analysis.EpochClass
    classes = ([C.TINY_MOVEMENT] * 4605 + [C.CALMNESS] * 3513
               + [C.LIMB_MOVEMENT] * 1882)
    assert abs(analysis.sleep_efficiency(classes) * 100 - 81.2) <= 0.05
    classes = ([C.TINY_MOVEMENT] * 5326 + [C.CALMNESS] * 4050
               + [C.LIMB_MOVEMENT] * 624)
    assert abs(analysis.sleep_efficiency(classes) * 100 - 93.79) <= 0.05
    print("\nACCEPTANCE 2 PASS: efficiency == (tiny+calm)/100 within 1e-9; "
          "table arithmetic consistent within 0.05 points")


def test_criterion_3_event_rule_oracle_equivalence():
    """Scan output equals the maximal-run characterization, 1000 sequences."""
    rng = np.random.default_rng(31337)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        counts = rng.integers(0, 31, size=100)
        if events.detect_events(counts) != detect_ref(counts):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: 1000/1000 random count sequences match the "
          f"brute-force oracle in {elapsed:.2f}s (< 5s)")


def test_criterion_4_gmm_stability():
    """Noise stays under 1% foreground; a 10-sigma step flags instantly."""
    from sleepmon.background import BackgroundModel
    from sleepmon.config import Config
    rng = np.random.default_rng(404)
    base = np.full((100, 100), 1000.0)

    def frame(step=False):
        f = base + rng.normal(0, 2.0, base.shape)
        if step:
            f[20:70, 20:70] += 20.0  # 10 sigma
        return np.rint(f).astype(np.float32)

    t0 = time.perf_counter()
    model = BackgroundModel(Config(), frame(), "depth")
    for _ in range(300):
        model.update_and_classify(frame())
    rates = [model.update_and_classify(frame()).mean() for _ in range(300)]
    flagged1 = model.update_and_classify(frame(step=True))[20:70, 20:70].mean()
    flagged2 = model.update_and_classify(frame(step=True))[20:70, 20:70].mean()
    elapsed = time.perf_counter() - t0
    assert np.mean(rates) < 0.01
    assert max(flagged1, flagged2) >= 0.99
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 PASS: post-burn-in foreground rate "
          f"{np.mean(rates) * 100:.4f}% (< 1%), step region flagged "
          f"{max(flagged1, flagged2) * 100:.1f}% within 2 frames, {elapsed:.1f}s (< 30s)")


def test_criterion_5_channel_separation():
    """Light toggles make exactly two light events and zero motion events."""
    base = synth.Scenario(duration=60, seed=555, timeline=())
    lit = synth.Scenario(duration=60, seed=555, timeline=(
        synth.TimelineItem(20, 22, synth.LIGHT_ON, 0.5),
        synth.TimelineItem(40, 42, synth.LIGHT_OFF, 0.5)))
    dark_session, _ = synth.generate(base)
    lit_session, _ = synth.generate(lit)
    dark_result = events.run_detector(dark_session)
    lit_result = events.run_detector(lit_session)
    assert len(lit_result.events["light"]) == 2
    assert len(lit_result.events["motion"]) == 0
    assert np.array_equal(lit_result.scores["depth"], dark_result.scores["depth"])
    print("\nACCEPTANCE 5 PASS: light toggle -> 2 light events, 0 motion events, "
          "depth scores bit-identical to the no-light variant")


def test_criterion_6_scenario_ordering(trouble_run, successful_run):
    """Trouble sleeps worse and moves more; reports match scripted truth."""
    t_rep, s_rep = trouble_run["report"], successful_run["report"]
    assert t_rep.efficiency < s_rep.efficiency
    assert (len(trouble_run["result"].events["motion"])
            > len(successful_run["result"].events["motion"]))
    for run in (trouble_run, successful_run):
        truth_classes = run["truth"].classes
        n = len(truth_classes)
        C = analysis.EpochClass
        expected_pct = {c: 100.0 * truth_classes.count(c) / n for c in C}
        got = run["report"]
        pairs = [(got.full_pct, expected_pct[C.FULL_POSTURE_CHANGE]),
                 (got.limb_pct, expected_pct[C.LIMB_MOVEMENT]),
                 (got.tiny_pct, expected_pct[C.TINY_MOVEMENT]),
                 (got.calm_pct, expected_pct[C.CALMNESS]),
                 (got.out_of_view_pct, expected_pct[C.OUT_OF_VIEW])]
        for got_pct, want_pct in pairs:
            assert abs(got_pct - want_pct) <= 2.0
    print(f"\nACCEPTANCE 6 PASS: efficiency {t_rep.efficiency:.4f} < "
          f"{s_rep.efficiency:.4f}, motion events "
          f"{len(trouble_run['result'].events['motion'])} > "
          f"{len(successful_run['result'].events['motion'])}, components within "
          f"2 points of scripted truth")


def test_criterion_7_cole_sadeh_sanity(trouble_run):
    """Zero counts sleep everywhere; oracles agree; divergence direction holds."""
    zeros = np.zeros(120, np.int64)
    assert not actigraphy.cole_sleep_wake(zeros).any()
    assert not actigraphy.sadeh_sleep_wake(zeros).any()
    rng = np.random.default_rng(77)
    for _ in range(100):
        counts = rng.integers(0, 300, size=rng.integers(1, 90))
        assert actigraphy.cole_sleep_wake(counts).tolist() == cole_ref(counts.tolist())
        assert actigraphy.sadeh_sleep_wake(counts).tolist() == sadeh_ref(counts.tolist())
    rep = trouble_run["report"]
    assert rep.efficiency > rep.cole_efficiency
    assert rep.efficiency > rep.sadeh_efficiency
    print(f"\nACCEPTANCE 7 PASS: zero counts -> 100% sleep (both), 100/100 "
          f"oracle agreement, trouble divergence system={rep.efficiency:.3f} > "
          f"cole={rep.cole_efficiency:.3f} / sadeh={rep.sadeh_efficiency:.3f} "
          f"(|diff| {abs(rep.efficiency - rep.cole_efficiency):.3f} / "
          f"{abs(rep.efficiency - rep.sadeh_efficiency):.3f})")


def test_criterion_8_determinism(tmp_path):
    """Byte-identical outputs across reruns and across worker counts."""
    sc_path = tmp_path / "sc.txt"
    synth.write_scenario(synth.Scenario(duration=40, seed=808, timeline=(
        synth.TimelineItem(15, 18, synth.FULL_TURN, 0.5),
        synth.TimelineItem(25, 28, synth.TALK, 0.5))), sc_path)
    cfg2 = tmp_path / "two_workers.txt"
    cfg2.write_text("workers=2\n")

    outputs = []
    for tag, cfg in (("a", None), ("b", None), ("c", cfg2)):
        sess, det = tmp_path / f"sess_{tag}", tmp_path / f"det_{tag}"
        assert main(["generate", "--scenario", str(sc_path), "--out", str(sess)]) == 0
        args = ["detect", "--session", str(sess), "--out", str(det)]
        if cfg is not None:
            args += ["--config", str(cfg)]
        assert main(args) == 0
        assert main(["report", "--session", str(sess), "--detect", str(det)]) == 0
        outputs.append((sess, det))
    (sess_a, det_a), (sess_b, det_b), (sess_c, det_c) = outputs
    for name in ("manifest.txt", "depth.raw", "color.raw", "audio.raw", "groundtruth.log"):
        assert filecmp.cmp(sess_a / name, sess_b / name, shallow=False), name
    for name in ("events.log", "scores.csv", "epochs.csv", "report.txt"):
        assert filecmp.cmp(det_a / name, det_b / name, shallow=False), name
        if name != "report.txt":  # workers config differs only in the sidecar
            assert filecmp.cmp(det_a / name, det_c / name, shallow=False), name
    assert filecmp.cmp(det_a / "report.txt", det_c / "report.txt", shallow=False)
    print("\nACCEPTANCE 8 PASS: generate/detect/report byte-identical across "
          "reruns and across 1 vs 2 worker threads")


def test_criterion_9_throughput():
    """Dual-channel 320x350 processing sustains at least real-time rate."""
    scenario = synth.Scenario(duration=60, seed=909, timeline=(),
                              frame_width=320, frame_height=350,
                              roi=(0, 0, 320, 350))
    session, _ = synth.generate(scenario)
    t0 = time.perf_counter()
    events.run_detector(session)
    elapsed = time.perf_counter() - t0
    fps = session.manifest.frame_count / elapsed
    assert fps >= 30.0
    print(f"\nACCEPTANCE 9 PASS: {fps:.1f} frames/second per channel on a "
          f"60s 320x350 dual-channel session (>= 30)")
