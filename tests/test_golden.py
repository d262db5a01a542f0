"""Golden outputs: sha256 pins of the detection and report artifacts.

Criterion 8 checks determinism within one run; these pins hold the bytes of
``events.log``, ``scores.csv``, ``epochs.csv`` and ``report.txt`` fixed
across commits.  A change that alters any of them changes behaviour and must
say so; it is not fixed by re-pinning.
"""

import hashlib

import numpy as np
import pytest

from sleepmon import synth
from sleepmon.cli import main

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
}


def _posture_test(sess):
    assert main(["generate", "--preset", "posture_test", "--out", str(sess)]) == 0


def _zero_holes(sess):
    """A 40 s desk session whose depth has "no reading" holes.

    A strip over the top four roi rows reads 0 from frame 0 until second 10,
    so its pixels start never-observed and are re-seeded; 3 % of the roi,
    frame 0 included, is zeroed at random in every frame.
    """
    scenario = synth.Scenario(duration=40, seed=404, timeline=(
        synth.TimelineItem(15, 18, synth.FULL_TURN, 0.5),
        synth.TimelineItem(22, 23, synth.LIGHT_ON, 0.5),
        synth.TimelineItem(28, 31, synth.TALK, 0.5)))
    sc_path = sess.parent / "holes.txt"
    synth.write_scenario(scenario, sc_path)
    assert main(["generate", "--scenario", str(sc_path), "--out", str(sess)]) == 0
    n = scenario.duration * scenario.video_rate
    x, y, w, h = scenario.roi
    depth = np.memmap(sess / "depth.raw", dtype="<u2", mode="r+",
                      shape=(n, scenario.frame_height, scenario.frame_width))
    depth[:10 * scenario.video_rate, y:y + 4, x:x + w] = 0
    rng = np.random.default_rng(404)
    roi = depth[:, y:y + h, x:x + w]
    roi[rng.random(roi.shape) < 0.03] = 0
    depth.flush()
    del depth, roi


@pytest.mark.parametrize("case, build", [("posture_test", _posture_test),
                                         ("zero_holes", _zero_holes)])
def test_artifact_hashes(tmp_path, case, build):
    sess, det = tmp_path / "sess", tmp_path / "det"
    build(sess)
    assert main(["detect", "--session", str(sess), "--out", str(det)]) == 0
    assert main(["report", "--session", str(sess), "--detect", str(det)]) == 0
    got = {name: hashlib.sha256((det / name).read_bytes()).hexdigest()
           for name in ARTIFACTS}
    assert got == GOLDEN[case]
