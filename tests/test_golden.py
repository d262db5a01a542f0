"""Golden outputs: sha256 pins of the synthesized streams and the artifacts.

Criterion 8 checks determinism within one run; these pins hold the bytes of
``events.log``, ``scores.csv``, ``epochs.csv`` and ``report.txt`` fixed
across commits, and the bytes of the ``depth.raw``, ``color.raw`` and
``audio.raw`` streams the synthesizer writes for three small scenarios and
one at the sensor's 640x480 geometry.  The
key=value text files are pinned too: ``config_used.txt`` as ``write_config``
writes it, scenario files, and the ``manifest.txt`` that ``generate`` writes.
A change that alters any of them changes behaviour and must say so; it is not
fixed by re-pinning.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from sleepmon import synth
from sleepmon.cli import main
from sleepmon.config import Config, write_config
from sleepmon.session import write_session

ARTIFACTS = ("events.log", "scores.csv", "epochs.csv", "report.txt")

GOLDEN = {
    "posture_test": {
        "events.log":
            "0bbc19df01bd0a4e8a0016a5b75d1033b050110c5799331b7779aa9b393391bc",
        "scores.csv":
            "05623cc9f348dfd4dfd63c726b7f9e63e87f70247fac64b929ddd99734693c9f",
        "epochs.csv":
            "a94b8c606d2f228a7273e986759dc22153412e925c3bd077bf533a9d15911390",
        "report.txt":
            "40f0cc43a0b8f7d1f3af4e8bcf1aaf76533b54f40e4b34d176e8551ecbdf8e6e",
    },
    "zero_holes": {
        "events.log":
            "ba942a1f900fb84bd64199e092bc044222758b1c7f292f5f50e134ad7a6d8537",
        "scores.csv":
            "b60fee2245633d3768cc261f60c86c06c09a288e5a9c8c507a03703aa6256fb7",
        "epochs.csv":
            "166b520d10f172cddff6f582606e2e11fcc8adc5462d0723ec263e2b12c0b103",
        "report.txt":
            "a180890464c741fcfcc7c215e0781f61d9155229b498d923d4bb7f0fbb5833df",
    },
    "multi_band": {
        "events.log":
            "1be9a025b37c6ee9dd20277b8961b5014413ce1ec1d997ec12f8a0baf49147ce",
        "scores.csv":
            "2eeb22b8cf9048fc367060be058c714645da8a8ae24c8c07c1c523b3d0a6f9a4",
        "epochs.csv":
            "8c609d24a125d988009e976a7320e7ceabef771e2c61e8159ee6133e6bdff450",
        "report.txt":
            "645e0b80f4d02ae1bcfc4217684f06f29ef062d60cb10341516b2d1d9491f580",
    },
}


def _posture_test(sess):
    assert main(["generate", "--preset", "posture_test", "--out", str(sess)]) == 0


def _generate_with_holes(sess, scenario, strip, strip_seconds):
    """Generate ``scenario`` into ``sess`` and zero parts of its depth roi.

    The roi rows ``strip`` read 0 from frame 0 until ``strip_seconds``, so
    their pixels start never-observed and are re-seeded; 3 % of the roi,
    frame 0 included, is zeroed at random in every frame.
    """
    sc_path = sess.parent / "holes.txt"
    synth.write_scenario(scenario, sc_path)
    assert main(["generate", "--scenario", str(sc_path), "--out", str(sess)]) == 0
    n = scenario.duration * scenario.video_rate
    x, y, w, h = scenario.roi
    depth = np.memmap(sess / "depth.raw", dtype="<u2", mode="r+",
                      shape=(n, scenario.frame_height, scenario.frame_width))
    roi = depth[:, y:y + h, x:x + w]
    roi[:strip_seconds * scenario.video_rate, strip] = 0
    rng = np.random.default_rng(scenario.seed)
    roi[rng.random(roi.shape) < 0.03] = 0
    depth.flush()
    del depth, roi


def _zero_holes(sess):
    """A 40 s desk session whose top four roi rows read 0 for 10 s."""
    scenario = synth.Scenario(duration=40, seed=404, timeline=(
        synth.TimelineItem(15, 18, synth.FULL_TURN, 0.5),
        synth.TimelineItem(22, 23, synth.LIGHT_ON, 0.5),
        synth.TimelineItem(28, 31, synth.TALK, 0.5)))
    _generate_with_holes(sess, scenario, slice(0, 4), 10)


def _multi_band(sess):
    """An 18 s, 8 fps session with a 256x320 roi, holes across row 128.

    The roi holds 81 920 pixels, so the background models update it in
    three or more row bands of about 2**15 pixels; the never-observed strip
    (roi rows 120..135, 6 s) crosses a band edge at every band size from
    2**12 to 2**15 pixels.
    """
    scenario = synth.Scenario(duration=18, seed=505, frame_width=272, frame_height=336,
                              roi=(8, 8, 256, 320), video_rate=8, timeline=(
        synth.TimelineItem(12, 14, synth.FULL_TURN, 0.6),
        synth.TimelineItem(14, 15, synth.LIGHT_ON, 0.5),
        synth.TimelineItem(15, 17, synth.TALK, 0.5)))
    _generate_with_holes(sess, scenario, slice(120, 136), 6)


@pytest.mark.parametrize("case, build", [("posture_test", _posture_test),
                                         ("zero_holes", _zero_holes),
                                         ("multi_band", _multi_band)])
def test_artifact_hashes(tmp_path, case, build):
    sess, det = tmp_path / "sess", tmp_path / "det"
    build(sess)
    assert main(["detect", "--session", str(sess), "--out", str(det)]) == 0
    assert main(["report", "--session", str(sess), "--detect", str(det)]) == 0
    got = {name: hashlib.sha256((det / name).read_bytes()).hexdigest()
           for name in ARTIFACTS}
    assert got == GOLDEN[case]


STREAMS = ("depth.raw", "color.raw", "audio.raw")

T = synth.TimelineItem
# Every item kind, incl. an absence with a light on/off inside it.
EVERY_KIND = synth.Scenario(duration=40, seed=77, timeline=(
    T(0, 12, synth.CALM, 0.0), T(12, 14, synth.TINY_TWITCH, 0.3),
    T(15, 17, synth.LIMB_MOVE, 0.6), T(18, 20, synth.FULL_TURN, 0.9),
    T(21, 23, synth.LEAVE_BED, 1.0), T(25, 26, synth.LIGHT_ON, 0.5),
    T(29, 30, synth.LIGHT_OFF, 0.5), T(35, 37, synth.RETURN_BED, 1.0),
    T(38, 40, synth.TALK, 0.4)))

STREAM_SCENARIOS = {
    "every_kind": EVERY_KIND,
    "off_centre": synth.Scenario(
        duration=15, seed=2 ** 63 + 5, frame_width=72, frame_height=40,
        roi=(37, 3, 27, 34), video_rate=12,
        timeline=(T(12, 15, synth.FULL_TURN, 0.25),)),
    "noiseless": replace(EVERY_KIND, depth_noise=0.0, luma_noise=0.0),
    # The sensor's 640x480 frames and roi, at 2 fps to keep the case short.
    "paper": synth.Scenario(
        duration=14, seed=606, frame_width=640, frame_height=480,
        roi=(160, 65, 320, 350), video_rate=2,
        timeline=(T(12, 14, synth.FULL_TURN, 0.7), T(12, 13, synth.LIGHT_ON, 0.5),
                  T(12, 14, synth.TALK, 0.5))),
}

STREAM_GOLDEN = {
    "every_kind": {
        "depth.raw":
            "9c77df6c4cb1920a3228db56554dee2e00986dd8d8653344424ebff91c310265",
        "color.raw":
            "fbe31e5d353b13ca0c5143d2f980acf9f340ad7b496e9b9d59faec8651b202c8",
        "audio.raw":
            "340b8673cb262ffc83e9a4a5ff4c56be9642fd77022b2c02be61fcef5f797912",
    },
    "off_centre": {
        "depth.raw":
            "e69f81b99d5289c1f7be349da1fd08ecdc58b7e1225035d06f2a5c7c8c8d05b1",
        "color.raw":
            "3e746385e7fd05e099e36c818ada8f108f6d40a8c9fb3000b948786fdd9d0dca",
        "audio.raw":
            "3a10939927428cf32fb09c608ee56362cedf155a1c7b06204ff28d19d0a1e73d",
    },
    "noiseless": {
        "depth.raw":
            "0f59ac1be5515f8c2230e5b74acd5c1375cd228303d5f7d4bcb9da5ff9f7cfaf",
        "color.raw":
            "e3d1de5ba8e90e18ac78c8450b4daf5c6efc549c97cff6f87af31bfbf93baeb0",
        "audio.raw":
            "340b8673cb262ffc83e9a4a5ff4c56be9642fd77022b2c02be61fcef5f797912",
    },
    "paper": {
        "depth.raw":
            "3843149c638454aa2b4d73d0a196019c59a015cc6604059f1fc70a83066d218b",
        "color.raw":
            "d5ce37569280ad0bc0e4b744084ed0770ade6682c8b429e6991ca9dcfc3d27dd",
        "audio.raw":
            "32788547e07a3bf87501bc04ff8a44f84bac848d33e802569798814a54195aec",
    },
}


@pytest.mark.parametrize("case", sorted(STREAM_SCENARIOS))
def test_stream_hashes(tmp_path, case):
    session, _ = synth.generate(STREAM_SCENARIOS[case])
    write_session(session, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in STREAMS}
    assert got == STREAM_GOLDEN[case]


# Awkward floats: 0.1 + 0.2 and 1e3 / 3 need all 17 digits, 1e-300 an exponent.
CONFIG_CASES = {
    "default": Config(),
    "custom": Config(gmm_components=4, gmm_match_k=2.25, gmm_learning_rate=0.1 + 0.2,
                     gmm_luma_initial_variance=1e3 / 3, depth_threshold=1e-300,
                     burn_in_seconds=7, class_min_absent_epochs=12, workers=2),
}

CONFIG_GOLDEN = {
    "default": "3e7e181eb4b23efe4bf8e53d3e2fea9c425489e7b21ca9bbca9d3d8e14fe7bc3",
    "custom": "3d232b6505cf02f6d0cae8651ad5bc7eb71a425e093a24c49428d805b713980b",
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_text_hashes(tmp_path, case):
    write_config(CONFIG_CASES[case], tmp_path / "config_used.txt")
    got = hashlib.sha256((tmp_path / "config_used.txt").read_bytes()).hexdigest()
    assert got == CONFIG_GOLDEN[case]


# Zero noise, an off-centre roi, 12 fps and a seed above 2**63.
QUIET_OFF_CENTRE = replace(STREAM_SCENARIOS["off_centre"], depth_noise=0.0, luma_noise=0.0,
                           audio_noise=0.0)
SCENARIO_CASES = {**{name: synth.preset(name) for name in synth.PRESETS},
                  "quiet_off_centre": QUIET_OFF_CENTRE}

SCENARIO_GOLDEN = {
    "posture_test": "fe516cb5ae79c1a0e33fec814434c9f18ec89d5a080e470eb3141a6419139f22",
    "trouble_sleeping": "8f4c5d57a89550a7465ee58d615775250245f269c94f4baf5a0b7d08e4e0b2be",
    "successful_sleeping": "69b9a2ec157b45c81befce0fcd559dedc13703ceabc96671d2a874cbdf94dc8b",
    "quiet_off_centre": "a383edb84260bd8c11e8bfec2a02fbdf47f00e6d994bb2a14c16aebb1fc713ef",
}


@pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
def test_scenario_text_hashes(tmp_path, case):
    synth.write_scenario(SCENARIO_CASES[case], tmp_path / "scenario.txt")
    got = hashlib.sha256((tmp_path / "scenario.txt").read_bytes()).hexdigest()
    assert got == SCENARIO_GOLDEN[case]


def test_generated_manifest_hash(tmp_path):
    synth.write_scenario(QUIET_OFF_CENTRE, tmp_path / "scenario.txt")
    sess = tmp_path / "sess"
    assert main(["generate", "--scenario", str(tmp_path / "scenario.txt"),
                 "--out", str(sess)]) == 0
    got = hashlib.sha256((sess / "manifest.txt").read_bytes()).hexdigest()
    assert got == "61c79c0fd4e5f6772ed829d4f3a13344aa05d82b29edab7cdfb0e00790516b73"
