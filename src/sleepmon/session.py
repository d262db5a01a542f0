"""On-disk session format: synchronized depth, color, and audio streams.

A session is a directory containing a manifest plus three raw stream files:

``manifest.txt``
    UTF-8 ``key=value`` lines with exactly the fields of ``SessionManifest`` as
    keys, in field order, its ``roi`` written as the four keys ``roi_x``,
    ``roi_y``, ``roi_w``, ``roi_h`` (see ``kvtext``).

depth, color and audio streams
    Raw items, row-major, one after another, each stream in the file, dtype
    and item shape that ``SessionManifest.layout`` declares, the one place
    they are written down: little-endian uint16 depth frames (valid samples
    0..2047, 0 reserved for "no reading"), ``r, g, b`` byte color frames,
    and little-endian int16 mono PCM samples.

Streams are fixed-rate: frame ``i`` is at ``i / video_rate`` seconds and
sample ``j`` at ``j / audio_rate`` seconds; there are no per-frame
timestamps.  A ``Session`` checks its stores against the layout, and that
the audio covers every frame slot, once, when it is built, so no reader or
writer checks a frame's shape or a stream's length again; only the depth
range is checked per frame.

Every store answers one protocol: ``len()``, integer indexing and
contiguous slices, the empty one included.  Sessions may be backed by eager
ndarrays or by windowed stores, and observable behavior is identical
either way.  A windowed store (``_WindowedStore``) is the one stream store,
and it places windows by one rule: window ``k`` holds items
``k * window_frames`` up to the next multiple or the end, and a window
source fetches whole windows only.  A read inside one window is a view of
it; a slice across windows is a read-only copy filled one window at a time,
and ``np.asarray`` is the whole-stream slice, so a store holds one window
at a time.  There are three sources: ``load_session`` maps each stream
from its file, ``WINDOW_BYTES`` of whole items a window, so a loaded
session holds about ``WINDOW_BYTES`` per stream in memory however long the
recording is, and ``synth.generate`` draws its audio one second a window
and its frames one frame a window.  A frame or slice the caller holds keeps
its own window alive, so later reads never overwrite it.  A store need not
be thread-safe, so each store is read from one thread only.  Each depth
window is checked for samples above ``DEPTH_MAX`` as it is mapped, so the
depth stream is read once: an out-of-range sample raises
``InvalidDepthError`` at the first read of a frame in its window, not at
load.  ``load_session`` reads no stream bytes; code that needs only the
geometry and rates (the report) calls ``load_manifest``, which opens
nothing but ``manifest.txt``.

The thread policy lives here too.  ``write_session`` and
``scoring.score_session`` each run one loop over the depth frames and one
over the color frames through ``run_frame_loops``: the caller runs the depth
loop, and the color loop runs on one helper thread meanwhile when
``use_helper_thread`` says so (frames of at least ``_THREAD_MIN_PX`` pixels
and more than one usable CPU), otherwise on the caller after the depth loop.
Either way the error raised is that of the first failing frame in
depth-then-color order.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptSessionError, InvalidDepthError, ManifestMismatchError, RoiBoundsError
from .kvtext import from_pairs, read_pairs, to_pairs, write_pairs

MANIFEST_NAME = "manifest.txt"
DEPTH_MAX = 2047
# Bytes of whole frames a loaded stream maps at a time (at least one frame):
# one 640x480 depth (614 kB) or color (922 kB) frame, 227 depth or 151 color
# frames at 48x48, 32 s of 16 kHz audio.  At 4 MiB the depth range check
# touched all six frames of a 640x480 window and the color roi four:
# detect_paper (bench, 10 pairs of 30 s runs, 2-vCPU Xeon) peaked at 52.7 MB
# then, with the audio read whole, and at 47.4 MB here; fps 250 against 242
# (medians, inside the run-to-run spread of 211-277).
WINDOW_BYTES = 1 << 20
# Frame pixels from which ``use_helper_thread`` runs the color loop on a
# helper thread (2-vCPU Xeon).  Generate + write: the thread makes 640x480
# frames 46 % faster and 64x64 to 128x128 ones about 30 %, but the 48x48
# posture_test preset 9 % slower (medians of 8 runs).  ``score_session``,
# two threads against one (medians of 7 runs, two sets above 32x32): 0.86x
# at a 32x32 roi, 0.85-0.94x at 96x96, 1.24-1.49x at 128x128, 1.34-1.56x at
# 181x181; at the 320x350 paper roi 1.43x (9 runs each), but 0.97x there on
# one usable CPU (12 runs each).
_THREAD_MIN_PX = 1 << 14


@dataclass(frozen=True)
class SessionManifest:
    """Stream geometry, rates, and file names for one recording session.

    The rates are positive, and the audio rate is not below the video rate,
    so that every video frame slot has a complete audio chunk.
    """

    depth_width: int = 640
    depth_height: int = 480
    color_width: int = 640
    color_height: int = 480
    video_rate: int = 30
    audio_rate: int = 16000
    frame_count: int = 0
    roi: tuple[int, int, int, int] = (160, 65, 320, 350)
    depth_file: str = "depth.raw"
    color_file: str = "color.raw"
    audio_file: str = "audio.raw"

    def __post_init__(self):
        if self.video_rate <= 0 or self.audio_rate <= 0:
            raise ValueError("stream rates must be positive")
        if self.audio_rate < self.video_rate:
            raise ValueError(f"audio_rate {self.audio_rate} is below video_rate "
                             f"{self.video_rate}, so some video frames would have no audio")
        if self.frame_count < 0:
            raise ValueError("frame_count must be >= 0")
        for name in ("depth_width", "depth_height", "color_width", "color_height"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if len(self.roi) != 4:
            raise ValueError("roi must have four entries (x, y, w, h)")
        x, y, w, h = self.roi
        if w <= 0 or h <= 0 or x < 0 or y < 0:
            raise ValueError("roi must have positive size and non-negative origin")
        for fw, fh in ((self.depth_width, self.depth_height),
                       (self.color_width, self.color_height)):
            if x + w > fw or y + h > fh:
                raise ValueError("roi must lie inside the frame bounds")

    @property
    def min_audio_samples(self) -> int:
        """Samples needed so every frame slot has a complete audio chunk."""
        return self.frame_count * self.audio_rate // self.video_rate

    @property
    def layout(self) -> dict:
        """``(file name, dtype, item shape)`` of each stream, keyed by stream, in file order.

        An item is a depth or color frame or an audio sample, in its file's dtype.
        """
        return {"depth": (self.depth_file, np.dtype("<u2"),
                          (self.depth_height, self.depth_width)),
                "color": (self.color_file, np.dtype("u1"),
                          (self.color_height, self.color_width, 3)),
                "audio": (self.audio_file, np.dtype("<i2"), ())}


@dataclass(frozen=True)
class Session:
    """One loaded or generated session, whose streams agree with its manifest.

    Each stream is a store (see the module docstring) of the items
    ``manifest.layout`` declares.  A session is checked once, when it is
    built (``dataclasses.replace`` included), and it is frozen: each store's
    empty head slice ``store[0:0]``, which reads no stream bytes, has the
    layout's item shape and dtype (up to byte order), the depth and color
    stores hold exactly ``frame_count`` frames and the audio at least
    ``min_audio_samples``; otherwise ``ManifestMismatchError`` is raised.
    Only the depth range is left to be checked as each frame is read.
    """

    manifest: SessionManifest
    depth: object
    color: object
    audio: object

    def __post_init__(self):
        for name, (_, dtype, shape) in self.manifest.layout.items():
            head = np.asarray(getattr(self, name)[0:0])
            if head.shape != (0,) + shape or head.dtype.newbyteorder("<") != dtype:
                raise ManifestMismatchError(
                    f"manifest mismatch: {name} store holds {head.dtype} items of shape "
                    f"{head.shape[1:]}, manifest declares {dtype} items of shape {shape}")
        n = self.manifest.frame_count
        if len(self.depth) != n or len(self.color) != n:
            raise ManifestMismatchError(
                f"manifest mismatch: stream holds {len(self.depth)} depth / "
                f"{len(self.color)} color frames, manifest declares {n}")
        if len(self.audio) < self.manifest.min_audio_samples:
            raise ManifestMismatchError(
                f"manifest mismatch: audio holds {len(self.audio)} samples, "
                f"need at least {self.manifest.min_audio_samples}")

    def depth_frame(self, i: int) -> np.ndarray:
        return self.depth[i]

    def color_frame(self, i: int) -> np.ndarray:
        return self.color[i]


def frame_index(i, count: int) -> int:
    """Frame ``i`` of a store of ``count`` frames as an index in ``range(count)``.

    ``i`` is anything ``operator.index`` accepts, negatives counting from the
    end; an index outside ``[-count, count)`` raises ``IndexError``.
    """
    i = operator.index(i)
    if not -count <= i < count:
        raise IndexError(f"frame index out of range: {i}")
    return i % count


def _span(key: slice, count: int) -> tuple[int, int]:
    """``(start, stop)`` of a contiguous slice of a store of ``count`` items, ``start <= stop``.

    A slice with a step other than 1 raises ``IndexError``.
    """
    start, stop, step = key.indices(count)
    if step != 1:
        raise IndexError(f"only contiguous slices are supported, not step {step}")
    return start, max(start, stop)


def _check_depth_range(frames: np.ndarray, first: int) -> None:
    """Raise ``InvalidDepthError`` at the first frame holding a sample above ``DEPTH_MAX``.

    ``frames`` is a stack of depth frames that begins at frame ``first``.
    """
    over = frames.max(axis=(1, 2), initial=0) > DEPTH_MAX
    if over.any():
        raise InvalidDepthError(
            f"invalid depth sample in frame {first + int(over.argmax())}: value > {DEPTH_MAX}")


class _WindowedStore:
    """Read-only frames of one stream, held one window of frames at a time.

    Window ``k`` holds frames ``k * window_frames`` up to the next multiple of
    ``window_frames`` or the end of the stream, and ``fetch(start, n)`` returns
    it as one read-only ndarray of shape ``(n,) + frame_shape``: a source is
    only ever asked for one whole window.  An integer index or a contiguous
    slice inside one window returns a view into it (a scalar for 0-d frames,
    such as audio samples), fetching the window unless it is the current
    one.  A slice across windows returns a read-only copy filled one window
    at a time, each let go before the next is fetched; ``np.asarray`` is the
    whole-stream slice.  A view keeps its own window alive, so nothing a
    caller holds is ever reused.
    """

    def __init__(self, fetch, count: int, frame_shape: tuple, dtype, window_frames: int):
        self._fetch = fetch
        self._count = count
        self._frame_shape = frame_shape
        self._dtype = np.dtype(dtype)
        self.window_frames = window_frames
        # (first frame, frames) of the current window, replaced as one value
        # so that a reader never pairs one window's start with another's frames.
        self._window = (None, None)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, key):
        if isinstance(key, slice):
            first, stop = _span(key, self._count)
            if first == stop:
                return np.empty((0,) + self._frame_shape, self._dtype)
        else:
            first = frame_index(key, self._count)
            stop = first + 1
        size = self.window_frames
        start = first - first % size
        if stop <= start + size:
            view = self._window_at(start)[first - start:stop - start]
            return view if isinstance(key, slice) else view[0]
        out = np.empty((stop - first,) + self._frame_shape, self._dtype)
        for start in range(start, stop, size):
            lo, hi = max(first, start), min(stop, start + size)
            out[lo - first:hi - first] = self._window_at(start)[lo - start:hi - start]
        out.flags.writeable = False
        return out

    def __array__(self, dtype=None, copy=None):
        return np.array(self[:], dtype, copy=copy)

    def _window_at(self, start: int) -> np.ndarray:
        """The window that begins at frame ``start``, fetched unless it is the current one."""
        if self._window[0] != start:
            # Let go of the old window first, so that it is not still held
            # while the new one is fetched.
            self._window = (None, None)
            self._window = (start, self._frames_at(start, self.window_frames))
        return self._window[1]

    def _frames_at(self, start: int, count: int) -> np.ndarray:
        """Fetch up to ``count`` frames from frame ``start`` on, as one window."""
        return self._fetch(start, min(count, self._count - start))


def _mapped_stream(path: Path, dtype: np.dtype, item_shape: tuple, check=None) -> _WindowedStore:
    """A store of the whole items of a raw stream file, mapped a window at a time.

    The file must hold whole items: a partial one at its end raises
    ``ManifestMismatchError``.  How many items it must hold is the rule of
    ``Session``.  A window holds ``WINDOW_BYTES`` of whole items, at least
    one, and is a plain ndarray view of a read-only map, so arrays computed
    from a frame are ndarrays too, not ``np.memmap`` instances.
    ``check(frames, start)``, if given, is called on each window as it is
    mapped, before any of its items is handed out.
    """
    item_bytes = dtype.itemsize * math.prod(item_shape)
    size = path.stat().st_size
    count, partial = divmod(size, item_bytes)
    if partial:
        raise ManifestMismatchError(f"manifest mismatch: {path.name} holds {size} bytes, "
                                    f"not whole {item_bytes}-byte items")

    def fetch(start, n):
        items = np.memmap(path, dtype=dtype, mode="r", offset=start * item_bytes,
                          shape=(n,) + item_shape).view(np.ndarray)
        if check is not None:
            check(items, start)
        return items

    return _WindowedStore(fetch, count, item_shape, dtype, max(1, WINDOW_BYTES // item_bytes))


def crop_roi(frame: np.ndarray, roi: tuple[int, int, int, int]) -> np.ndarray:
    """Return a read-only view of the roi sub-grid; the source frame is left unchanged."""
    x, y, w, h = roi
    fh, fw = frame.shape[0], frame.shape[1]
    if x < 0 or y < 0 or w <= 0 or h <= 0 or x + w > fw or y + h > fh:
        raise RoiBoundsError(f"roi out of range: roi={roi} frame={fw}x{fh}")
    view = frame[y:y + h, x:x + w]
    view.flags.writeable = False
    return view


def load_manifest(path: str | os.PathLike) -> SessionManifest:
    """Read and validate the manifest of a session directory.

    Only ``manifest.txt`` is read; no stream file is opened or checked.  A
    missing manifest and a missing, duplicate, unknown or invalid key raise
    ``CorruptSessionError``.
    """
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CorruptSessionError(f"corrupt session: missing {MANIFEST_NAME} in {path}")
    try:
        return from_pairs(SessionManifest, read_pairs(manifest_path), "manifest", required=True)
    except ValueError as exc:
        raise CorruptSessionError(f"corrupt session: {exc}") from exc


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def use_helper_thread(frame_px: int) -> bool:
    """Whether two frame loops over frames of ``frame_px`` pixels run on two threads.

    True when a frame holds at least ``_THREAD_MIN_PX`` pixels and the
    process may run on more than one CPU; below either, the helper thread's
    interpreter-lock hand-offs cost more than the overlap gains.
    """
    return frame_px >= _THREAD_MIN_PX and _usable_cpus() > 1


def run_frame_loops(n: int, depth_step, color_step, threaded: bool) -> None:
    """Call ``depth_step(i)`` and ``color_step(i)`` for every frame ``i`` in ``range(n)``.

    The calling thread runs the depth loop.  With ``threaded`` one helper
    thread runs the color loop meanwhile; otherwise the caller runs it after
    the depth loop.  Each step is called from one thread only, in frame
    order.  A step that raises stops both loops: neither calls a frame past
    the failing one, and an interrupt (an exception that is not an
    ``Exception``) stops them at once.  The error raised is an interrupt if
    either loop met one, else the one a single pass calling the depth step
    before the color step in each frame would meet first: the failing frame
    with the lowest index, and its depth error before its color error.  No
    thread is left running on return or raise.
    """
    # Frames past ``limit[0]`` are not called: it drops to the first failing
    # frame either loop has met, and to -1 on an interrupt.  It is written only
    # by a loop that then stops and by an interrupted caller, so when one write
    # overwrites a concurrent one, the loop the lost write would stop has
    # stopped already.
    limit = [n]
    failures = []   # (not an interrupt, frame, order, exception): each loop's first failure

    def loop(order, step):
        i = 0
        try:
            for i in range(n):
                if i > limit[0]:
                    return
                step(i)
        except BaseException as exc:
            error = isinstance(exc, Exception)
            failures.append((error, i, order, exc))
            limit[0] = min(limit[0], i if error else -1)

    # The caller waits on ``done`` before it joins, because in CPython 3.11 a
    # join cut short by an interrupt marks the thread stopped while it runs on.
    done = threading.Event()

    def helper_loop():
        try:
            loop(1, color_step)
        finally:
            done.set()

    helper = None
    try:
        if threaded:
            helper = threading.Thread(target=helper_loop, name="color frame loop")
            helper.start()
        loop(0, depth_step)
        if helper is None:
            loop(1, color_step)
        else:
            done.wait()
            helper.join()
    except BaseException:
        limit[0] = -1
        if helper is not None and helper.is_alive():
            helper.join()
        raise
    if failures:
        raise min(failures, key=lambda f: f[:3])[3]


def write_session(session: Session, path: str | os.PathLike) -> None:
    """Write manifest and streams, checking each depth frame's range as it is written.

    The layout, the frame counts and the audio length were checked when
    ``session`` was built, so each stream is written in its
    ``manifest.layout`` dtype to its layout file.  Frames are read through
    ``Session.depth_frame`` and ``Session.color_frame``.  The audio is read
    and written one second (``audio_rate`` samples) at a time: a window of a
    generated store, a slice of a loaded one.

    An invalid session leaves no file behind: the streams are written to
    ``<name>.partial`` files, renamed into place once every frame has passed,
    and the manifest is written last.  Two writes of the same session produce
    byte-identical files.

    The depth and color streams each have their own write loop, run by
    ``run_frame_loops``: the color loop is on a helper thread when
    ``use_helper_thread`` holds for the color frame size.  Each store is
    read at most once per frame, in frame order and from one thread only.
    The error raised is that of the failing frame with the lowest index, its
    depth error before its color error.  No thread is left running on
    return or raise.
    """
    man = session.manifest
    names, dtypes, _ = zip(*man.layout.values())
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    partials = [out / (name + ".partial") for name in names]

    def write_depth(fd, i):
        d = session.depth_frame(i)
        _check_depth_range(d[np.newaxis], i)
        fd.write(np.ascontiguousarray(d, dtypes[0]))

    try:
        with open(partials[0], "wb") as fd, open(partials[1], "wb") as fc:
            run_frame_loops(
                man.frame_count, lambda i: write_depth(fd, i),
                lambda i: fc.write(np.ascontiguousarray(session.color_frame(i), dtypes[1])),
                use_helper_thread(man.color_width * man.color_height))
        with open(partials[2], "wb") as fa:
            audio, step = session.audio, man.audio_rate
            for start in range(0, len(audio), step):
                fa.write(np.ascontiguousarray(audio[start:start + step], dtypes[2]))
        for partial, name in zip(partials, names):
            os.replace(partial, out / name)
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise
    write_pairs(out / MANIFEST_NAME, to_pairs(man))


def load_session(path: str | os.PathLike) -> Session:
    """Load a session directory, mapping each stream file of ``manifest.layout``.

    The manifest is read by ``load_manifest``.  Each stream file must exist
    and hold whole items (see ``_mapped_stream``); ``Session`` then checks
    the counts, as it does for any session.  The frames and the audio
    samples are mapped on demand, and a depth sample above ``DEPTH_MAX``
    raises ``InvalidDepthError`` when its window is first read (see the
    module docstring).  A caller that needs only the manifest calls
    ``load_manifest`` and pays for none of this.
    """
    root = Path(path)
    man = load_manifest(root)
    stores = {}
    for stream, (name, dtype, shape) in man.layout.items():
        if not (root / name).is_file():
            raise CorruptSessionError(f"corrupt session: missing stream file {name}")
        stores[stream] = _mapped_stream(root / name, dtype, shape,
                                        _check_depth_range if stream == "depth" else None)
    return Session(manifest=man, **stores)
