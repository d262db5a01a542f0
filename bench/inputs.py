"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload name and the seed.  The
program under test only ever sees the files written here: a session
directory plus ``groundtruth.log`` for the detect workloads, and a scenario
file for ``generate_paper``.

Scenes are rendered with the library's own synthesizer, so the ground truth
it derives stays valid.  At paper scale only the 320x350 region of interest
is synthesized and then embedded into static 640x480 frames: detection never
reads outside the region, and synthesizing full frames would cost ~22 ms per
frame of set-up per run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sleepmon import events, synth

PAPER_FRAME = (640, 480)
PAPER_ROI = (160, 65, 320, 350)
PAPER_SECONDS = 18
DESK_SECONDS = 90
GENERATE_SECONDS = 6

# Zero-depth holes on detect_paper: a strip over the top 10 % of the roi
# rows, present in every frame from frame 0, plus scattered holes worth 3 %
# of the roi per frame.  Both stay off the body rectangle, which contains
# every disturbance rectangle, so the ground truth is unchanged.
HOLE_STRIP_FRACTION = 0.10
HOLE_SCATTER_FRACTION = 0.03

MANIFEST_KEYS = ("depth_width", "depth_height", "color_width", "color_height",
                 "video_rate", "audio_rate", "frame_count",
                 "roi_x", "roi_y", "roi_w", "roi_h",
                 "depth_file", "color_file", "audio_file")


@dataclass
class Inputs:
    """What one workload hands to the program, plus facts for the report."""

    kind: str                 # "session" or "scenario"
    path: Path                # session directory or scenario file
    frame_count: int
    frame_size: tuple
    roi: tuple
    hole_px: int = 0          # zero-depth pixels written inside the roi


def body_rect(roi):
    """(top, left, height, width) of the synthesizer's body rectangle."""
    x, y, w, h = roi
    return y + h // 8, x + w // 4, (3 * h) // 4, w // 2


def paper_scenario(seed: int) -> synth.Scenario:
    """The roi part of an 18 s paper-geometry night: turn, light, talk, limb."""
    rng = np.random.default_rng([seed, 11])
    mag = [round(float(v), 3) for v in rng.uniform(0.2, 0.8, 4)]
    T = synth.TimelineItem
    timeline = (T(12, 14, synth.FULL_TURN, mag[0]), T(13, 14, synth.LIGHT_ON, mag[1]),
                T(14, 16, synth.TALK, mag[2]), T(16, 17, synth.LIMB_MOVE, mag[3]))
    x, y, w, h = PAPER_ROI
    return synth.Scenario(duration=PAPER_SECONDS, seed=seed, timeline=timeline,
                          frame_width=w, frame_height=h, roi=(0, 0, w, h))


def desk_timeline(seed: int, duration: int = DESK_SECONDS) -> tuple:
    """Dense timeline with every item kind, one leave/return and one light toggle.

    Depth items are 4..8 s apart and end at least 6 s before the end, so the
    default detector resolves every event on its own.
    """
    rng = np.random.default_rng([seed, 12])
    T = synth.TimelineItem
    depth_kinds = (synth.CALM, synth.TINY_TWITCH, synth.LIMB_MOVE, synth.FULL_TURN)
    absence_at = int(rng.integers(duration // 3, duration // 2))
    items = []
    bag = []
    t = synth.EARLIEST_ITEM_START
    left_bed = False
    while t < duration - 12:
        if not left_bed and t >= absence_at:
            gone = int(rng.integers(synth.MIN_ABSENCE_SECONDS + 3, 26))
            items.append(T(t, t + 2, synth.LEAVE_BED, 1.0))
            items.append(T(t + 2 + gone, t + 4 + gone, synth.RETURN_BED, 1.0))
            left_bed = True
            t += 4 + gone + int(rng.integers(4, 9))
            continue
        if not bag:
            bag = [depth_kinds[int(k)] for k in rng.permutation(len(depth_kinds))]
        kind = bag.pop()
        length = int(rng.integers(1, 4))
        items.append(T(t, t + length, kind, round(float(rng.uniform(0.1, 0.9)), 3)))
        t += length + int(rng.integers(4, 9))
    light_on = int(rng.integers(20, duration - 60))
    light_off = light_on + int(rng.integers(5, 40))
    items.append(T(light_on, light_on + 1, synth.LIGHT_ON, 0.5))
    items.append(T(light_off, light_off + 1, synth.LIGHT_OFF, 0.5))
    talk = synth.EARLIEST_ITEM_START + 3
    while talk < duration - 12:
        length = int(rng.integers(1, 4))
        items.append(T(talk, talk + length, synth.TALK, round(float(rng.uniform(0.0, 1.0)), 3)))
        talk += length + int(rng.integers(15, 40))
    items.sort(key=lambda it: (it.start, it.end))
    return tuple(items)


def desk_scenario(seed: int) -> synth.Scenario:
    """48x48 frames with the synthesizer's default 32x32 roi."""
    return synth.Scenario(duration=DESK_SECONDS, seed=seed, timeline=desk_timeline(seed))


def generate_scenario(seed: int) -> synth.Scenario:
    """A short 640x480 paper-geometry scenario for ``sleepmon generate``."""
    return synth.Scenario(duration=GENERATE_SECONDS, seed=seed,
                          timeline=(synth.TimelineItem(1, GENERATE_SECONDS - 1, synth.CALM, 0.0),),
                          frame_width=PAPER_FRAME[0], frame_height=PAPER_FRAME[1],
                          roi=PAPER_ROI)


def _write_manifest(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k}={values[k]}\n" for k in MANIFEST_KEYS), encoding="utf-8")


def _write_session(out: Path, scenario: synth.Scenario, frame_size, roi,
                   holes_seed=None) -> Inputs:
    """Render a scenario into a session directory in one pass over the frames.

    ``frame_size``/``roi`` place the synthesized frames inside larger static
    frames when they differ from the scenario's own geometry.
    """
    session, truth = synth.generate(scenario)
    man = session.manifest
    n = man.frame_count
    fw, fh = frame_size
    x, y, w, h = roi
    embed = (fw, fh) != (man.depth_width, man.depth_height)
    depth_full = np.full((fh, fw), synth.BED_DEPTH, np.uint16)
    color_full = np.full((fh, fw, 3), synth.AMBIENT_LUMA, np.uint8)

    if holes_seed is not None:
        strip_rows = int(round(HOLE_STRIP_FRACTION * h))
        top, left, bh, bw = body_rect(roi)
        allowed = np.zeros((h, w), bool)
        allowed[strip_rows:, :] = True
        allowed[top - y:top - y + bh, left - x:left - x + bw] = False
        strip = np.zeros((h, w), bool)
        strip[:strip_rows, :] = True
        scatter_p = HOLE_SCATTER_FRACTION * w * h / np.count_nonzero(allowed)
        hole_rng = np.random.default_rng([holes_seed, 13])
    hole_px = 0

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "depth.raw", "wb") as fd, open(out / "color.raw", "wb") as fc:
        for i in range(n):
            d = session.depth_frame(i)
            c = session.color_frame(i)
            if embed:
                depth_full[y:y + h, x:x + w] = d
                color_full[y:y + h, x:x + w] = c
                d, c = depth_full, color_full
            if holes_seed is not None:
                hole_mask = strip | (allowed & (hole_rng.random((h, w)) < scatter_p))
                d[y:y + h, x:x + w][hole_mask] = 0
                hole_px += int(np.count_nonzero(hole_mask))
            fd.write(d.astype("<u2", copy=False).tobytes())
            fc.write(c.tobytes())
        # Write back now, so that flushing ~1 GB of dirty pages does not
        # compete with the timed operations.
        for stream in (fd, fc):
            stream.flush()
            os.fsync(stream.fileno())
    (out / "audio.raw").write_bytes(np.asarray(session.audio).astype("<i2").tobytes())
    _write_manifest(out / "manifest.txt", {
        "depth_width": fw, "depth_height": fh, "color_width": fw, "color_height": fh,
        "video_rate": man.video_rate, "audio_rate": man.audio_rate, "frame_count": n,
        "roi_x": x, "roi_y": y, "roi_w": w, "roi_h": h,
        "depth_file": "depth.raw", "color_file": "color.raw", "audio_file": "audio.raw"})
    (out / "groundtruth.log").write_text(events.format_event_log(truth.events), encoding="utf-8")
    return Inputs("session", out, n, (fw, fh), roi, hole_px)


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Write the inputs of one workload for one seed under ``workdir``."""
    if workload == "detect_paper":
        return _write_session(workdir / "session", paper_scenario(seed), PAPER_FRAME,
                              PAPER_ROI, holes_seed=seed)
    if workload == "detect_desk":
        sc = desk_scenario(seed)
        synth.validate_scenario(sc)
        return _write_session(workdir / "session", sc, (sc.frame_width, sc.frame_height),
                              tuple(sc.roi))
    if workload == "generate_paper":
        sc = generate_scenario(seed)
        path = workdir / "scenario.txt"
        workdir.mkdir(parents=True, exist_ok=True)
        synth.write_scenario(sc, path)
        return Inputs("scenario", path, sc.duration * sc.video_rate,
                      (sc.frame_width, sc.frame_height), tuple(sc.roi))
    raise ValueError(f"unknown workload {workload!r}")
