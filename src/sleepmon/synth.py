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

One walk of the timeline, in item order, checks every rule below and
compiles the scenario into a per-second table: the depth item that disturbs
each second, whether the body is in bed, the ambient light level, the talk
amplitude and the truth class, plus the truth event spans.
``validate_scenario`` is that walk; ``generate`` runs it once and draws the
frames, the audio and the ground truth from the table.  An absence, from a
``leave_bed`` to its ``return_bed``, is read in one place: the body is gone
from the start of ``leave_bed`` to the start of ``return_bed``, and the truth
is out of view, and the absence's length counted, from the end of
``leave_bed``.

The truth assumes the default detector and classification thresholds.  The
rules, each a ``ValueError`` (``generate`` prefixes "invalid timeline: "):

- ``duration``, ``seed``, the frame size, the rates and the roi entries are
  integers; the duration is at least 1 s, the seed unsigned 64-bit, the
  noise levels finite and >= 0, the geometry and rates a valid
  ``SessionManifest`` (so ``audio_rate >= video_rate``) and the roi at least
  16x16;
- an item has a known kind, integer times with
  ``0 <= start < end <= duration`` and a magnitude in [0, 1]; items are
  ordered by start time;
- every item but ``calm`` starts at or after ``EARLIEST_ITEM_START`` (two
  seconds past ``Config.burn_in_seconds``);
- items of one stream (the depth kinds, the light kinds, ``talk``) do not
  overlap, and a light item starts at least 3 s after the previous one ends;
- ``light_on`` and ``light_off`` alternate, from ``light_on``;
- ``leave_bed`` and ``return_bed`` last exactly 2 s and alternate, from
  ``leave_bed`` to a closing ``return_bed``; an absence lasts at least
  ``MIN_ABSENCE_SECONDS`` (two seconds past
  ``Config.class_min_absent_epochs``); a ``leave_bed`` starts at least 2 s
  after the previous ``return_bed`` ends; no movement is scripted while out
  of bed.

Each rule keeps an item within reach of the default pipeline, but together
they do not make every accepted timeline reproducible: ``TestKnownMisses``
in ``tests/test_synth.py`` holds two accepted timelines the pipeline gets
wrong (a light toggle missed after two on/off cycles, and an absence lost
after repeated absences).

The streams are ``session._WindowedStore`` stores of the items the
manifest's ``layout`` declares, drawn on demand: a store asks for whole
aligned windows only, so each source draws exactly one window.  A frame
window is one frame, drawn a block of rows at a time into one float64
scratch block per store, each block rounded and cast into a fresh,
read-only output array; its scene is a scalar level with rectangles
painted over it in order.  A frame store holds the current second's
generator, the index of the next frame to draw, its current frame and the
scratch block, so hour-long sessions and 640x480 frames stay small in
memory.  A store is not thread-safe: ``write_session`` and
``score_session`` read each store from one thread only, in frame order, so
two stores may be drawn on two threads at once.  An audio window is one
second, ``audio_rate`` samples from a whole second on; a slice across
seconds is filled by the store a second at a time, so a sequential chunk
read draws each second once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import EpochClass, sleep_efficiency
from .config import CHANNELS, Config
from .events import Event, clip_range
from .kvtext import from_pairs, read_pairs, to_pairs, write_pairs
from .session import DEPTH_MAX, Session, SessionManifest, _WindowedStore

CALM = "calm"
TINY_TWITCH = "tiny_twitch"
LIMB_MOVE = "limb_move"
FULL_TURN = "full_turn"
LEAVE_BED = "leave_bed"
RETURN_BED = "return_bed"
LIGHT_ON = "light_on"
LIGHT_OFF = "light_off"
TALK = "talk"

# kind: (stream group, truth class of its seconds or None, whether it is a
# motion event).  A depth kind with a class disturbs the depth scene.
_KIND = {
    CALM: ("depth", None, False),
    TINY_TWITCH: ("depth", EpochClass.TINY_MOVEMENT, False),
    LIMB_MOVE: ("depth", EpochClass.LIMB_MOVEMENT, True),
    FULL_TURN: ("depth", EpochClass.FULL_POSTURE_CHANGE, True),
    LEAVE_BED: ("depth", EpochClass.FULL_POSTURE_CHANGE, True),
    RETURN_BED: ("depth", EpochClass.FULL_POSTURE_CHANGE, True),
    LIGHT_ON: ("light", None, False),
    LIGHT_OFF: ("light", None, False),
    TALK: ("audio", None, False),
}
KINDS = tuple(_KIND)

BED_DEPTH = 1100
BODY_DEPTH = 700
AMBIENT_LUMA = 40
LIGHT_STEP = 120
BLOB_LUMA_OFFSET = 3
CHAOS_FRAMES = 20       # leading disturbed frames of leave/return items
# Pixels of the float64 scratch block a frame store draws frames through, in
# whole rows (at least one): 51 rows (261 kB) at 640 wide; 48x48 is one block.
_BLOCK_PX = 1 << 15
# Two seconds past the default model warm-up and the default out-of-view quiet run.
EARLIEST_ITEM_START = Config.burn_in_seconds + 2
MIN_ABSENCE_SECONDS = Config.class_min_absent_epochs + 2


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
    """Raise ValueError if ``scenario`` breaks a rule of the module docstring."""
    _compile(scenario)


@dataclass
class _Table:
    """A scenario compiled to one entry per second, plus its truth event spans."""

    depth: list             # (item, disturbed rect) of the depth item, or None
    body: np.ndarray        # whether the body is in bed
    light: np.ndarray       # ambient luma level
    talk: np.ndarray        # talk square-wave amplitude, in sample units
    classes: list           # truth EpochClass
    spans: dict             # channel -> [start, end, peak] per truth event


def _compile(scenario: Scenario) -> _Table:
    """Check ``scenario`` against every rule and compile it in one timeline walk."""
    for name in ("duration", "seed", "frame_width", "frame_height", "video_rate", "audio_rate"):
        if not isinstance(getattr(scenario, name), int):
            raise ValueError(f"{name} must be an integer")
    if not all(isinstance(v, int) for v in scenario.roi):
        raise ValueError("roi entries must be integers")
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
    if scenario.roi[2] < 16 or scenario.roi[3] < 16:
        raise ValueError("roi must be at least 16x16 for the body geometry")

    dur, roi = scenario.duration, tuple(scenario.roi)
    table = _Table(depth=[None] * dur, body=np.ones(dur, bool),
                   light=np.full(dur, AMBIENT_LUMA, np.float64), talk=np.zeros(dur),
                   classes=[EpochClass.CALMNESS] * dur,
                   spans={ch: [] for ch in CHANNELS.values()})

    def add(channel, start, end, peak):
        # An item that abuts the previous span of its channel extends it.
        run = table.spans[channel]
        if run and run[-1][1] + 1 == start:
            run[-1][1] = end
            run[-1][2] = max(run[-1][2], peak)
        else:
            run.append([start, end, peak])

    last_end = {"depth": None, "light": None, "audio": None}
    prev_start = None
    leave = None            # the leave_bed item of the absence under way
    last_return_end = None
    lit = False
    for i, item in enumerate(scenario.timeline):
        if item.kind not in _KIND:
            raise ValueError(f"unknown timeline kind {item.kind!r}; known kinds: {KINDS}")
        if not (isinstance(item.start, int) and isinstance(item.end, int)):
            raise ValueError("item times must be integer seconds")
        start, end = item.start, item.end
        if not 0 <= start < end <= dur:
            raise ValueError(f"item {i} [{start}, {end}) outside 0..{dur}")
        if not 0.0 <= item.magnitude <= 1.0:
            raise ValueError(f"item {i} magnitude {item.magnitude} outside [0, 1]")
        if item.kind != CALM and start < EARLIEST_ITEM_START:
            raise ValueError(
                f"item {i} starts at {start}s, inside the model warm-up; "
                f"items must start at or after {EARLIEST_ITEM_START}s")
        if prev_start is not None and start < prev_start:
            raise ValueError("timeline items must be ordered by start time")
        prev_start = start

        group, cls, motion = _KIND[item.kind]
        if last_end[group] is not None and start < last_end[group]:
            raise ValueError(f"item {i} overlaps a previous {group} item")
        if group == "light" and last_end[group] is not None and start < last_end[group] + 3:
            raise ValueError("light items must be at least 3 seconds apart")
        last_end[group] = end

        if item.kind in (LEAVE_BED, RETURN_BED) and end - start != 2:
            raise ValueError(f"{item.kind} items must last exactly 2 seconds")
        if item.kind == LEAVE_BED:
            if leave is not None:
                raise ValueError("leave_bed while already out of bed")
            if last_return_end is not None and start < last_return_end + 2:
                raise ValueError("leave_bed must start at least 2 seconds after a return_bed")
            leave = item
        elif item.kind == RETURN_BED:
            if leave is None:
                raise ValueError("return_bed without a preceding leave_bed")
            # The absence: the body is gone from the start of leave_bed; the
            # truth is out of view, and the absence counted, from its end.
            if start - leave.end < MIN_ABSENCE_SECONDS:
                raise ValueError(
                    f"absence must last at least {MIN_ABSENCE_SECONDS} seconds "
                    f"for the out-of-view machine")
            table.body[leave.start:start] = False
            table.classes[leave.end:start] = [EpochClass.OUT_OF_VIEW] * (start - leave.end)
            leave = None
            last_return_end = end
        elif cls is not None and leave is not None:
            raise ValueError("cannot script movement while out of view")
        elif group == "light":
            if lit == (item.kind == LIGHT_ON):
                state = "on" if lit else "off"
                raise ValueError(f"{item.kind} while the light is already {state}")
            lit = not lit
            table.light[start:] = AMBIENT_LUMA + LIGHT_STEP * lit
            add("light", start, start, 1.0)

        if cls is not None:
            rect = _blob_rect(item.kind, item.magnitude, roi, i)
            table.depth[start:end] = [(item, rect)] * (end - start)
            table.classes[start:end] = [cls] * (end - start)
            if motion:
                add("motion", start, end - 1, rect[2] * rect[3] / (roi[2] * roi[3]))
        elif item.kind == TALK:
            level = 0.25 + 0.25 * item.magnitude
            table.talk[start:end] = level * 32767.0
            add("noise", start, end - 1, level)
    if leave is not None:
        raise ValueError("leave_bed without a matching return_bed")
    return table


class _LazyFrames(_WindowedStore):
    """Frame store drawing one frame a window.

    ``start(sec, z)`` returns an iterator over the frames of second ``sec``:
    each step draws the next frame from that second's generator through the
    scratch block ``z`` of whole rows (bit-equal to a whole-frame draw, as the
    Generator fills in C order) and yields it as a fresh array.  The store
    fetches one frame a window, so ``_draw`` resumes the generator up to that
    frame: a sequential read draws each frame once, and a read of an earlier
    frame, or of another second, restarts that second and redraws up to the
    frame.  A repeated read hands out the current window's frame again, so
    frames are read-only, like loaded ones.
    """

    def __init__(self, n_frames: int, fps: int, frame_shape: tuple, dtype, start):
        super().__init__(self._draw, n_frames, frame_shape, dtype, 1)
        self._fps = fps
        self._start = start
        h, w = frame_shape[:2]
        self._z = np.empty((min(h, max(1, _BLOCK_PX // w)), w))
        self._sec, self._next, self._frames = -1, 0, None

    def _draw(self, i: int, count: int) -> np.ndarray:
        """Frame ``i`` as a window of ``count`` = 1 frame, resuming its second's generator."""
        sec, j = divmod(i, self._fps)
        if sec != self._sec or j < self._next:
            self._sec, self._next, self._frames = sec, 0, self._start(sec, self._z)
        while self._next <= j:
            frame = next(self._frames)
            self._next += 1
        frame = frame[np.newaxis]
        frame.flags.writeable = False
        return frame


def generate(scenario: Scenario) -> tuple[Session, GroundTruth]:
    """Materialize a scenario into a session plus its expected ground truth."""
    try:
        table = _compile(scenario)
    except ValueError as exc:
        raise ValueError(f"invalid timeline: {exc}") from exc

    dur = scenario.duration
    fps, ar = scenario.video_rate, scenario.audio_rate
    fh, fw = scenario.frame_height, scenario.frame_width
    manifest = SessionManifest(
        depth_width=fw, depth_height=fh, color_width=fw, color_height=fh,
        video_rate=fps, audio_rate=ar, frame_count=dur * fps, roi=tuple(scenario.roi))

    def disturbance(sec: int) -> list:
        """Per frame of second ``sec``: (rect, chaos depth) of its depth item, or None."""
        entry = table.depth[sec]
        if entry is None:
            return [None] * fps
        item, rect = entry
        first = fps * (sec - item.start)
        return [(rect, _chaos_value(lf)) if _chaos_active(item.kind, lf) else None
                for lf in range(first, first + fps)]

    def depth_scene(sec: int):
        body = [(_body_rect(scenario.roi), BODY_DEPTH)] if table.body[sec] else []
        return BED_DEPTH, [body + [d] if d else body for d in disturbance(sec)]

    def color_scene(sec: int):
        level = table.light[sec]
        return level, [[(d[0], level + BLOB_LUMA_OFFSET)] if d else [] for d in disturbance(sec)]

    def draw_frame(z, rng, sigma, level, patches, top, frame):
        """Next noisy frame of ``rng``'s stream, rounded, clipped to ``[0, top]``, into ``frame``.

        The scene is ``level`` with each ``(rect, value)`` of ``patches`` painted
        over it in order; it is drawn ``len(z)`` rows at a time in the scratch
        block ``z``, each patch taken before the level is added.  Bit-equal to
        the rounded sum of the scene and this frame's share of
        ``rng.normal(0, sigma, (fps, fh, fw))``: the Generator fills in C order,
        so the block fills draw the values of one whole-frame fill; ``normal``
        draws ``0 + sigma * z`` in the same order, and the sign of a zero it may
        differ in is lost when the positive scene is added.
        """
        # One cast per channel plane: a broadcast (H, W, 1) assignment loops
        # over the 3 channels innermost and is about 5x slower.
        planes = [frame] if frame.ndim == 2 else [frame[:, :, c] for c in range(3)]
        for r0 in range(0, fh, len(z)):
            b = z[:fh - r0]
            rng.standard_normal(out=b)
            b *= sigma
            cut = []
            for (t, l, h, w), value in patches:
                rows = slice(max(t - r0, 0), min(t + h - r0, len(b)))
                if rows.start < rows.stop:
                    cut.append((rows, slice(l, l + w), b[rows, l:l + w] + value))
            b += level
            for rows, cols, patch in cut:
                b[rows, cols] = patch
            np.rint(b, out=b)
            np.clip(b, 0, top, out=b)
            for plane in planes:
                plane[r0:r0 + len(b)] = b
        return frame

    def frames(stream: str, channel: int, sigma: float, top: int, scene):
        """The ``stream`` store: second ``sec`` draws ``scene(sec)`` on noise stream ``channel``."""
        _, dtype, shape = manifest.layout[stream]

        def start(sec: int, z: np.ndarray):
            rng = np.random.default_rng([scenario.seed, channel, sec])
            level, per_frame = scene(sec)
            # No name holds a yielded frame, so the reader's last reference
            # frees it before the next frame is allocated.
            for patches in per_frame:
                yield draw_frame(z, rng, sigma, level, patches, top, np.empty(shape, dtype))
        return _LazyFrames(dur * fps, fps, shape, dtype, start)

    _, audio_dtype, audio_shape = manifest.layout["audio"]
    # A 40-sample-period square wave, one second long at any audio rate.
    square = np.where(np.arange(ar) % 40 < 20, 1.0, -1.0)

    def audio_second(start: int, count: int) -> np.ndarray:
        """The audio second from sample ``start`` on, a window of ``count`` = ``ar`` samples."""
        sec = start // ar
        samples = np.random.default_rng([scenario.seed, 2, sec]).normal(
            0.0, scenario.audio_noise * 32768.0, ar)
        samples += table.talk[sec] * square
        samples = np.clip(np.rint(samples), -32768, 32767).astype(audio_dtype)
        samples.flags.writeable = False
        return samples

    session = Session(manifest=manifest,
                      depth=frames("depth", 0, scenario.depth_noise, DEPTH_MAX, depth_scene),
                      color=frames("color", 1, scenario.luma_noise, 255, color_scene),
                      audio=_WindowedStore(audio_second, dur * ar, audio_shape, audio_dtype, ar))
    events = {ch: [Event(ch, s, e, peak, *clip_range(
                  ch, s, e, video_rate=fps, audio_rate=ar, frame_count=dur * fps,
                  audio_samples=dur * ar)) for s, e, peak in run]
              for ch, run in table.spans.items()}
    return session, GroundTruth(classes=table.classes,
                                efficiency=sleep_efficiency(table.classes), events=events)


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
