"""Ground-truthed synthetic sessions emulating bedroom monitoring scenarios.

A scenario is a seeded, integer-second timeline of scripted items over a
static bed scene.  Synthesis happens at pixel/sample level (no camera
geometry): the bed is a constant depth plane, the body a rectangular region
at a nearer depth, and each scripted item disturbs a rectangle whose pixel
count encodes the movement magnitude:

===============  ===========================================================
kind             effect
===============  ===========================================================
calm             nothing (documents a scripted rest segment)
tiny_twitch      disturbs 0.5%..1.5% of the roi (below the default motion
                 event threshold; visible to epoch classification only)
limb_move        disturbs 3%..8% of the roi
full_turn        disturbs 15%..25% of the roi
leave_bed        2 s: body-sized disturbance, then the body vanishes
return_bed       2 s: body-sized disturbance, then the body is back
light_on/off     steps the ambient luma level up/down at item start
talk             adds a square-wave audio burst of amplitude >= 0.2 full
                 scale for the item's span
===============  ===========================================================

Magnitude in [0, 1] picks the disturbance fraction inside each band.
Disturbed rectangles cycle through three well-separated depth values per
frame, so they stay foreground for the whole item and the background model
re-converges instantly afterwards; luma sees the same rectangles at low
contrast (below its match radius) so movements never fabricate light events.
All randomness is sensor noise drawn from streams keyed by (seed, channel,
second): the same seed always yields bit-identical sessions, and depth
frames are independent of light items entirely.

Ground truth is derived from the timeline alone, assuming the default
detector and classification thresholds; the validator rejects timelines the
default pipeline could not reproduce faithfully (items inside the warm-up
interval, absences too short to classify, and so on).

Frame stores are lazy and draw one frame at a time: a frame is drawn into
one float64 scratch plane per store, then rounded and cast into a fresh,
read-only output array.  A store holds the current second's generator, the
index of the next frame to draw, the last frame it handed out and the
scratch plane, so hour-long sessions and 640x480 frames stay small in
memory.  The audio stream is written second by second into one array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .analysis import EpochClass, sleep_efficiency
from .config import CHANNELS, Config
from .events import Event, clip_range
from .kvtext import from_pairs, read_pairs, to_pairs, write_pairs
from .session import Session, SessionManifest

CALM = "calm"
TINY_TWITCH = "tiny_twitch"
LIMB_MOVE = "limb_move"
FULL_TURN = "full_turn"
LEAVE_BED = "leave_bed"
RETURN_BED = "return_bed"
LIGHT_ON = "light_on"
LIGHT_OFF = "light_off"
TALK = "talk"

KINDS = (CALM, TINY_TWITCH, LIMB_MOVE, FULL_TURN, LEAVE_BED, RETURN_BED,
         LIGHT_ON, LIGHT_OFF, TALK)
_DEPTH_KINDS = frozenset({CALM, TINY_TWITCH, LIMB_MOVE, FULL_TURN, LEAVE_BED, RETURN_BED})
_MOVEMENT_KINDS = frozenset({TINY_TWITCH, LIMB_MOVE, FULL_TURN})
_LIGHT_KINDS = frozenset({LIGHT_ON, LIGHT_OFF})
_EVENT_MOTION_KINDS = frozenset({LIMB_MOVE, FULL_TURN, LEAVE_BED, RETURN_BED})

BED_DEPTH = 1100
BODY_DEPTH = 700
AMBIENT_LUMA = 40
LIGHT_STEP = 120
BLOB_LUMA_OFFSET = 3
CHAOS_FRAMES = 20       # leading disturbed frames of leave/return items
# Two seconds past the default model warm-up and the default out-of-view quiet run.
EARLIEST_ITEM_START = Config.burn_in_seconds + 2
MIN_ABSENCE_SECONDS = Config.class_min_absent_epochs + 2

_CLASS_OF_KIND = {
    TINY_TWITCH: EpochClass.TINY_MOVEMENT,
    LIMB_MOVE: EpochClass.LIMB_MOVEMENT,
    FULL_TURN: EpochClass.FULL_POSTURE_CHANGE,
    LEAVE_BED: EpochClass.FULL_POSTURE_CHANGE,
    RETURN_BED: EpochClass.FULL_POSTURE_CHANGE,
}


@dataclass(frozen=True)
class TimelineItem:
    start: int
    end: int
    kind: str
    magnitude: float = 0.5


@dataclass(frozen=True)
class Scenario:
    duration: int
    seed: int
    timeline: tuple = ()
    depth_noise: float = 2.0
    luma_noise: float = 2.0
    audio_noise: float = 0.005
    frame_width: int = 48
    frame_height: int = 48
    roi: tuple = (8, 8, 32, 32)
    video_rate: int = 30
    audio_rate: int = 16000


@dataclass
class GroundTruth:
    """What the default pipeline is expected to report for a scenario."""

    classes: list
    efficiency: float
    events: dict


def _body_rect(roi):
    x, y, w, h = roi
    top = y + h // 8
    left = x + w // 4
    return top, left, (3 * h) // 4, w // 2


def _blob_fraction(kind: str, magnitude: float) -> float:
    if kind == TINY_TWITCH:
        return 0.005 + 0.010 * magnitude
    if kind == LIMB_MOVE:
        return 0.03 + 0.05 * magnitude
    if kind == FULL_TURN:
        return 0.15 + 0.10 * magnitude
    raise ValueError(f"kind {kind} has no disturbance band")


def _blob_rect(kind: str, magnitude: float, roi, item_index: int):
    """Deterministic rectangle inside the body region sized by the band."""
    _, _, bh, bw = _body_rect(roi)
    if kind in (LEAVE_BED, RETURN_BED):
        return _body_rect(roi)
    area = roi[2] * roi[3]
    target = _blob_fraction(kind, magnitude) * area
    h = max(3, int(round(np.sqrt(target))))
    h = min(h, bh)
    w = max(3, int(round(target / h)))
    w = min(w, bw)
    top, left, _, _ = _body_rect(roi)
    dy = (7 * item_index) % (bh - h + 1)
    dx = (13 * item_index) % (bw - w + 1)
    return top + dy, left + dx, h, w


def _chaos_value(local_frame: int) -> int:
    # Rotate three well-separated depth values; separation exceeds the
    # initial match radius so disturbed pixels rarely re-match a stale
    # component, and a 9-frame recurrence keeps any accidental re-match rare.
    return BODY_DEPTH - 150 * (1 + (local_frame // 3) % 3)


def _chaos_active(kind: str, local_frame: int) -> bool:
    # Disturb every third frame: the body value in between lets the
    # background component's weight recover, so arbitrarily long items never
    # erode it below the background fraction.
    if local_frame % 3 != 0:
        return False
    if kind in (LEAVE_BED, RETURN_BED):
        return local_frame < CHAOS_FRAMES
    return True


def validate_scenario(scenario: Scenario) -> None:
    if scenario.duration < 1:
        raise ValueError("scenario duration must be >= 1 second")
    if not (0 <= scenario.seed < 2 ** 64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    for noise in (scenario.depth_noise, scenario.luma_noise, scenario.audio_noise):
        if not (math.isfinite(noise) and noise >= 0):
            raise ValueError("noise levels must be finite and >= 0")
    SessionManifest(depth_width=scenario.frame_width, depth_height=scenario.frame_height,
                    color_width=scenario.frame_width, color_height=scenario.frame_height,
                    video_rate=scenario.video_rate, audio_rate=scenario.audio_rate,
                    roi=tuple(scenario.roi))
    if scenario.audio_rate < scenario.video_rate:
        raise ValueError("audio_rate must be >= video_rate so that every frame has audio")
    if scenario.roi[2] < 16 or scenario.roi[3] < 16:
        raise ValueError("roi must be at least 16x16 for the body geometry")

    last_end = {"depth": None, "light": None, "audio": None}
    prev_start = None
    absent = False
    light_on = False
    last_return_end = None
    for i, item in enumerate(scenario.timeline):
        if item.kind not in KINDS:
            raise ValueError(f"unknown timeline kind {item.kind!r}; known kinds: {KINDS}")
        if not (isinstance(item.start, int) and isinstance(item.end, int)):
            raise ValueError("item times must be integer seconds")
        if not 0 <= item.start < item.end <= scenario.duration:
            raise ValueError(f"item {i} [{item.start}, {item.end}) outside 0..{scenario.duration}")
        if not 0.0 <= item.magnitude <= 1.0:
            raise ValueError(f"item {i} magnitude {item.magnitude} outside [0, 1]")
        if item.kind != CALM and item.start < EARLIEST_ITEM_START:
            raise ValueError(
                f"item {i} starts at {item.start}s, inside the model warm-up; "
                f"items must start at or after {EARLIEST_ITEM_START}s")
        if prev_start is not None and item.start < prev_start:
            raise ValueError("timeline items must be ordered by start time")
        prev_start = item.start

        group = ("depth" if item.kind in _DEPTH_KINDS
                 else "light" if item.kind in _LIGHT_KINDS else "audio")
        if last_end[group] is not None and item.start < last_end[group]:
            raise ValueError(f"item {i} overlaps a previous {group} item")
        if group == "light" and last_end[group] is not None and item.start < last_end[group] + 3:
            raise ValueError("light items must be at least 3 seconds apart")
        last_end[group] = item.end

        if item.kind in (LEAVE_BED, RETURN_BED) and item.end - item.start != 2:
            raise ValueError(f"{item.kind} items must last exactly 2 seconds")
        if item.kind == LEAVE_BED:
            if absent:
                raise ValueError("leave_bed while already out of bed")
            if last_return_end is not None and item.start < last_return_end + 2:
                raise ValueError("leave_bed must start at least 2 seconds after a return_bed")
            absent = True
            absence_start = item.end
        elif item.kind == RETURN_BED:
            if not absent:
                raise ValueError("return_bed without a preceding leave_bed")
            if item.start - absence_start < MIN_ABSENCE_SECONDS:
                raise ValueError(
                    f"absence must last at least {MIN_ABSENCE_SECONDS} seconds "
                    f"for the out-of-view machine")
            absent = False
            last_return_end = item.end
        elif item.kind in _MOVEMENT_KINDS and absent:
            raise ValueError("cannot script movement while out of view")
        elif item.kind == LIGHT_ON:
            if light_on:
                raise ValueError("light_on while the light is already on")
            light_on = True
        elif item.kind == LIGHT_OFF:
            if not light_on:
                raise ValueError("light_off while the light is already off")
            light_on = False
    if absent:
        raise ValueError("leave_bed without a matching return_bed")


class _LazyFrames:
    """Frame store drawing one frame at a time.

    ``start(sec, z)`` returns an iterator over the frames of second ``sec``:
    each step draws the next frame from that second's generator into the
    scratch plane ``z`` and yields it as a fresh array.  A sequential read
    draws each frame once; a read of an earlier frame, or of another second,
    restarts that second and redraws up to the frame.  A repeated read hands
    out the last frame again, so frames are read-only, like loaded ones.
    Indexing accepts what ``operator.index`` does, negatives counting from the
    end.  A store must not be read from two threads at once.
    """

    def __init__(self, n_frames: int, fps: int, plane_shape: tuple[int, int], start):
        self._n = n_frames
        self._fps = fps
        self._start = start
        self._z = np.empty(plane_shape)
        self._sec, self._next, self._frames = -1, 0, None
        self._last = (-1, None)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i) -> np.ndarray:
        i = operator.index(i)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"frame index out of range: {i}")
        if i != self._last[0]:
            sec, j = divmod(i, self._fps)
            if sec != self._sec or j < self._next:
                self._sec, self._next, self._frames = sec, 0, self._start(sec, self._z)
            while self._next <= j:
                frame = next(self._frames)
                self._next += 1
            frame.flags.writeable = False
            self._last = (i, frame)
        return self._last[1]


def _derive_ground_truth(scenario: Scenario, manifest: SessionManifest,
                         audio_len: int) -> GroundTruth:
    classes = [EpochClass.CALMNESS] * scenario.duration
    spans = {ch: [] for ch in CHANNELS.values()}   # [start, end, peak] per event

    def add(channel, start, end, peak):
        # An item that abuts the previous span of its channel extends it.
        run = spans[channel]
        if run and run[-1][1] + 1 == start:
            run[-1][1] = end
            run[-1][2] = max(run[-1][2], peak)
        else:
            run.append([start, end, peak])

    absence_from = None
    for idx, item in enumerate(scenario.timeline):
        if item.kind in _CLASS_OF_KIND:
            for t in range(item.start, item.end):
                classes[t] = _CLASS_OF_KIND[item.kind]
        if item.kind == LEAVE_BED:
            absence_from = item.end
        if item.kind == RETURN_BED:
            for t in range(absence_from, item.start):
                classes[t] = EpochClass.OUT_OF_VIEW
            absence_from = None
        if item.kind in _EVENT_MOTION_KINDS:
            if item.kind in (LEAVE_BED, RETURN_BED):
                _, _, bh, bw = _body_rect(scenario.roi)
            else:
                _, _, bh, bw = _blob_rect(item.kind, item.magnitude, scenario.roi, idx)
            add("motion", item.start, item.end - 1, bh * bw / (scenario.roi[2] * scenario.roi[3]))
        elif item.kind in _LIGHT_KINDS:
            spans["light"].append([item.start, item.start, 1.0])
        elif item.kind == TALK:
            add("noise", item.start, item.end - 1, 0.25 + 0.25 * item.magnitude)

    def clips(channel, s, e):
        return clip_range(channel, s, e, video_rate=manifest.video_rate,
                          audio_rate=manifest.audio_rate,
                          frame_count=manifest.frame_count, audio_samples=audio_len)

    events = {ch: [Event(ch, s, e, peak, *clips(ch, s, e)) for s, e, peak in run]
              for ch, run in spans.items()}
    return GroundTruth(classes=classes, efficiency=sleep_efficiency(classes), events=events)


def generate(scenario: Scenario) -> tuple[Session, GroundTruth]:
    """Materialize a scenario into a session plus its expected ground truth."""
    try:
        validate_scenario(scenario)
    except ValueError as exc:
        raise ValueError(f"invalid timeline: {exc}") from exc

    dur = scenario.duration
    fps = scenario.video_rate
    fh, fw = scenario.frame_height, scenario.frame_width
    roi = tuple(scenario.roi)
    body = _body_rect(roi)

    depth_item = [None] * dur
    light_level = np.full(dur, AMBIENT_LUMA, np.float64)
    talk_amp = np.zeros(dur)   # square-wave amplitude per second
    level = AMBIENT_LUMA
    for idx, item in enumerate(scenario.timeline):
        if item.kind in _DEPTH_KINDS and item.kind != CALM:
            for s in range(item.start, item.end):
                depth_item[s] = (idx, item)
        elif item.kind == LIGHT_ON:
            level += LIGHT_STEP
            light_level[item.start:] = level
        elif item.kind == LIGHT_OFF:
            level -= LIGHT_STEP
            light_level[item.start:] = level
        elif item.kind == TALK:
            talk_amp[item.start:item.end] = (0.25 + 0.25 * item.magnitude) * 32767.0

    body_present = np.ones(dur, bool)
    absence_from = None
    for item in scenario.timeline:
        if item.kind == LEAVE_BED:
            absence_from = item.start
        elif item.kind == RETURN_BED:
            body_present[absence_from:item.start] = False
            absence_from = None

    # The depth scene while the body is in bed; without it, the bed is flat.
    body_plane = np.full((fh, fw), float(BED_DEPTH))
    t, l, bh, bw = body
    body_plane[t:t + bh, l:l + bw] = BODY_DEPTH

    def disturbance(sec: int):
        """(rect, per-frame chaos depth or None) for the depth item this second."""
        entry = depth_item[sec]
        if entry is None:
            return None, [None] * fps
        idx, item = entry
        first = fps * (sec - item.start)
        return (_blob_rect(item.kind, item.magnitude, roi, idx),
                [_chaos_value(lf) if _chaos_active(item.kind, lf) else None
                 for lf in range(first, first + fps)])

    def draw_frame(z, rng, sigma, base, rect, value):
        """Next noisy frame of ``rng``'s stream, rounded, in place in ``z``.

        The scene is ``base`` with ``value`` (unless None) in ``rect``.  Bit-equal
        to the rounded sum of the scene and this frame's share of
        ``rng.normal(0, sigma, (fps, fh, fw))``: that draws ``0 + sigma * z`` in
        the same order, and the sign of a zero it may differ in is lost when the
        positive scene is added.
        """
        rng.standard_normal(out=z)
        z *= sigma
        if value is not None:
            t, l, h, w = rect
            patch = z[t:t + h, l:l + w] + value
        z += base
        if value is not None:
            z[t:t + h, l:l + w] = patch
        np.rint(z, out=z)

    def depth_frames(sec: int, z: np.ndarray):
        rng = np.random.default_rng([scenario.seed, 0, sec])
        base = body_plane if body_present[sec] else float(BED_DEPTH)
        rect, values = disturbance(sec)
        for value in values:
            draw_frame(z, rng, scenario.depth_noise, base, rect, value)
            yield np.clip(z, 0, 2047, out=z).astype(np.uint16)

    def color_frames(sec: int, z: np.ndarray):
        rng = np.random.default_rng([scenario.seed, 1, sec])
        level = light_level[sec]
        rect, values = disturbance(sec)
        for value in values:
            blob = None if value is None else level + BLOB_LUMA_OFFSET
            draw_frame(z, rng, scenario.luma_noise, level, rect, blob)
            np.clip(z, 0, 255, out=z)
            # One cast per channel plane: a broadcast (H, W, 1) assignment
            # loops over the 3 channels innermost and is about 5x slower.
            frame = np.empty((fh, fw, 3), np.uint8)
            for c in range(3):
                frame[:, :, c] = z
            yield frame

    ar = scenario.audio_rate
    # A 40-sample-period square wave, one second long at any audio rate.
    square = np.where(np.arange(ar) % 40 < 20, 1.0, -1.0)
    audio = np.empty(dur * ar, np.int16)
    for sec in range(dur):
        samples = np.random.default_rng([scenario.seed, 2, sec]).normal(
            0.0, scenario.audio_noise * 32768.0, ar)
        samples += talk_amp[sec] * square
        audio[sec * ar:(sec + 1) * ar] = np.clip(np.rint(samples), -32768, 32767)
    manifest = SessionManifest(
        depth_width=fw, depth_height=fh, color_width=fw, color_height=fh,
        video_rate=fps, audio_rate=ar, frame_count=dur * fps, roi=roi)
    session = Session(manifest=manifest,
                      depth=_LazyFrames(dur * fps, fps, (fh, fw), depth_frames),
                      color=_LazyFrames(dur * fps, fps, (fh, fw), color_frames),
                      audio=audio)
    truth = _derive_ground_truth(scenario, manifest, len(audio))
    return session, truth


PRESETS = ("posture_test", "trouble_sleeping", "successful_sleeping")


def _posture_test(seed: int) -> Scenario:
    items = [TimelineItem(t, t + 3, FULL_TURN, 0.5) for t in (120, 240, 360, 480)]
    return Scenario(duration=600, seed=seed, timeline=tuple(items))


def _active_block(start: int, cycles: int, skip=frozenset()) -> list[TimelineItem]:
    """36-second cycles of three tiny twitches plus one limb/full slot."""
    items = []
    for k in range(cycles):
        if k in skip:
            continue
        base = start + 36 * k
        for off in (0, 9, 18):
            items.append(TimelineItem(base + off, base + off + 3, TINY_TWITCH, 0.5))
        special = FULL_TURN if k % 6 == 0 else LIMB_MOVE
        items.append(TimelineItem(base + 27, base + 30, special, 0.5))
    return items


def _trouble_sleeping(seed: int) -> Scenario:
    items = _active_block(15, 49, skip=frozenset(range(16, 25)))
    items.append(TimelineItem(600, 900, CALM, 0.0))  # motionless-awake stretch
    items += [
        TimelineItem(1800, 1802, LEAVE_BED, 1.0),
        TimelineItem(2100, 2102, LIGHT_ON, 0.5),
        TimelineItem(2160, 2162, LIGHT_OFF, 0.5),
        TimelineItem(2400, 2402, RETURN_BED, 1.0),
    ]
    items += _active_block(2410, 32)
    items.append(TimelineItem(3000, 3003, TALK, 0.5))
    items.sort(key=lambda it: (it.start, it.end))
    return Scenario(duration=3600, seed=seed, timeline=tuple(items))


def _successful_sleeping(seed: int) -> Scenario:
    items = [
        TimelineItem(30, 33, FULL_TURN, 0.5),
        TimelineItem(120, 123, LIMB_MOVE, 0.5),
        TimelineItem(240, 243, LIMB_MOVE, 0.5),
        TimelineItem(360, 363, TINY_TWITCH, 0.5),
        TimelineItem(600, 603, TINY_TWITCH, 0.5),
        TimelineItem(900, 903, TINY_TWITCH, 0.5),
        TimelineItem(1140, 1142, LIGHT_ON, 0.5),
    ]
    return Scenario(duration=1200, seed=seed, timeline=tuple(items))


def preset(name: str, seed: int | None = None) -> Scenario:
    """Named scenario mirroring the evaluation protocols; seed is overridable."""
    if name == "posture_test":
        return _posture_test(101 if seed is None else seed)
    if name == "trouble_sleeping":
        return _trouble_sleeping(1001 if seed is None else seed)
    if name == "successful_sleeping":
        return _successful_sleeping(1002 if seed is None else seed)
    raise ValueError(f"unknown preset {name!r}; valid presets: {', '.join(PRESETS)}")


def write_scenario(scenario: Scenario, path) -> None:
    """The scenario's key=value text (see ``kvtext``) plus one ``item=`` line per item."""
    items = [("item", f"{item.start},{item.end},{item.kind},{item.magnitude!r}")
             for item in scenario.timeline]
    write_pairs(path, to_pairs(scenario) + items)


def read_scenario(path) -> Scenario:
    pairs = []
    items = []
    for key, value in read_pairs(path):
        if key != "item":
            pairs.append((key, value))
            continue
        parts = value.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad scenario item {value!r}")
        items.append(TimelineItem(int(parts[0]), int(parts[1]), parts[2], float(parts[3])))
    scenario = from_pairs(Scenario, pairs, "scenario", required=True)
    return replace(scenario, timeline=tuple(items))
