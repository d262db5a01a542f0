"""On-disk session format: synchronized depth, color, and audio streams.

A session is a directory containing a manifest plus three raw stream files:

``manifest.txt``
    UTF-8 ``key=value`` lines with exactly the fields of ``SessionManifest`` as
    keys, in field order, its ``roi`` written as the four keys ``roi_x``,
    ``roi_y``, ``roi_w``, ``roi_h`` (see ``kvtext``).

depth stream
    Raw little-endian unsigned 16-bit values, row-major, frame after frame.
    Valid samples are 0..2047; 0 is reserved for "no reading".

color stream
    Raw ``r, g, b`` bytes, row-major, frame after frame.

audio stream
    Raw little-endian signed 16-bit PCM, mono.

Streams are fixed-rate: frame ``i`` is at ``i / video_rate`` seconds and
sample ``j`` at ``j / audio_rate`` seconds; there are no per-frame
timestamps.  The audio stream must hold at least
``floor(frame_count * audio_rate / video_rate)`` samples so that every video
frame slot has a complete audio chunk.

Frame stores only need ``len()`` and integer indexing, so sessions may be
backed by eager ndarrays, memory maps, or lazily generated frames; observable
behavior is identical either way.  A lazy store need not be thread-safe, so
each store is read from one thread only.  ``load_session`` returns read-only
frames: each is a view into a window of whole frames mapped from the stream
file, so a loaded session holds about ``WINDOW_BYTES`` per stream in memory
however long the recording is.  A frame the caller holds keeps its own window
mapped, so later reads never overwrite it.  Its load-time checks still scan
the whole depth stream and it reads the audio whole, so code that needs only
the geometry and rates (the report) calls ``load_manifest``, which reads
nothing but ``manifest.txt``.

``write_session`` reads, checks and writes the depth store on the calling
thread.  When a color frame holds at least ``_THREAD_MIN_PX`` pixels, one
helper thread does the same for the color store meanwhile; smaller frames
are written on the caller alone, depth first.  Either way the error raised
is that of the first invalid frame in depth-then-color order.
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
# Bytes of whole frames a loaded stream maps at a time (at least one frame).
WINDOW_BYTES = 4 << 20
# Color frame pixels from which ``write_session`` writes the color stream on a
# helper thread.  Measured on generate + write (2-vCPU Xeon): the thread makes
# 640x480 frames 46 % faster and 64x64 to 128x128 ones about 30 %, but the
# 48x48 posture_test preset 9 % slower in the median of 8 runs.
_THREAD_MIN_PX = 1 << 14


@dataclass(frozen=True)
class SessionManifest:
    """Stream geometry, rates, and file names for one recording session."""

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
        if self.frame_count < 0:
            raise ValueError("frame_count must be >= 0")
        for name in ("depth_width", "depth_height", "color_width", "color_height"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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
    def duration_seconds(self) -> float:
        return self.frame_count / self.video_rate


@dataclass
class Session:
    """One loaded or generated session.

    ``depth`` indexes to ``(depth_height, depth_width)`` uint16 frames,
    ``color`` to ``(color_height, color_width, 3)`` uint8 frames, and
    ``audio`` is a 1-D int16 array.
    """

    manifest: SessionManifest
    depth: object
    color: object
    audio: np.ndarray

    def depth_frame(self, i: int) -> np.ndarray:
        return self.depth[i]

    def color_frame(self, i: int) -> np.ndarray:
        return self.color[i]


class _MappedFrames:
    """Read-only frames of a raw stream, mapped one window of frames at a time.

    Indexing returns a view into the window that holds the frame, and maps a
    new window only when the index falls outside the current one.  A view
    keeps its own window mapped, so no frame a caller holds is ever reused.
    """

    def __init__(self, path: Path, dtype: str, frame_shape: tuple[int, ...], count: int):
        self._path = path
        self._dtype = np.dtype(dtype)
        self._frame_shape = frame_shape
        self._count = count
        self._frame_bytes = self._dtype.itemsize * math.prod(frame_shape)
        self.window_frames = max(1, WINDOW_BYTES // self._frame_bytes)
        # (first frame, frames) of the current window, replaced as one value
        # so that a reader never pairs one window's start with another's frames.
        self._window = (0, np.empty((0,) + frame_shape, self._dtype))

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i) -> np.ndarray:
        i = operator.index(i)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError(f"frame index out of range: {i}")
        start, frames = self._window
        if not start <= i < start + len(frames):
            start = i - i % self.window_frames
            frames = self._frames_at(start)
            self._window = (start, frames)
        return frames[i - start]

    def _frames_at(self, start: int) -> np.ndarray:
        """Map the window of frames that begins at frame ``start``.

        The window is a plain ndarray view of the map, so arrays computed from
        a frame are ndarrays too, not ``np.memmap`` instances.
        """
        count = min(self.window_frames, self._count - start)
        return np.memmap(self._path, dtype=self._dtype, mode="r",
                         offset=start * self._frame_bytes,
                         shape=(count,) + self._frame_shape).view(np.ndarray)


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
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CorruptSessionError(f"corrupt session: missing {MANIFEST_NAME} in {root}")
    try:
        return from_pairs(SessionManifest, read_pairs(manifest_path), "manifest", required=True)
    except ValueError as exc:
        raise CorruptSessionError(f"corrupt session: {exc}") from exc


def write_session(session: Session, path: str | os.PathLike) -> None:
    """Write manifest and streams, checking each frame as it is written.

    An invalid session leaves no file behind: the streams are written to
    ``<name>.partial`` files, renamed into place once every frame has passed,
    and the manifest is written last.  Two writes of the same session produce
    byte-identical files.

    The depth and color streams each have their own check-and-write loop.
    The calling thread reads, checks and writes the depth stream; when a
    color frame holds at least ``_THREAD_MIN_PX`` pixels, one helper thread
    does the same for the color stream meanwhile, otherwise the caller runs
    the color loop after the depth loop.  Each store is read from one thread
    only, at most once per frame and in frame order.  The error raised is the one a
    single pass that checks depth before color in each frame would meet
    first: the failing frame with the lowest index, and its depth error
    before its color error.  No thread is left running on return or raise.
    """
    man = session.manifest
    n = man.frame_count
    if len(session.depth) != n or len(session.color) != n:
        raise ManifestMismatchError(
            f"manifest mismatch: stream holds {len(session.depth)} depth / "
            f"{len(session.color)} color frames, manifest declares {n}")
    audio = np.asarray(session.audio)
    if audio.ndim != 1 or audio.dtype != np.int16:
        raise ManifestMismatchError("manifest mismatch: audio must be 1-D int16")
    if audio.size < man.min_audio_samples:
        raise ManifestMismatchError(
            f"manifest mismatch: audio holds {audio.size} samples, "
            f"need at least {man.min_audio_samples}")

    depth_shape = (man.depth_height, man.depth_width)
    color_shape = (man.color_height, man.color_width, 3)

    def check_depth(i, d):
        if d.shape != depth_shape:
            raise ManifestMismatchError(f"manifest mismatch: depth frame {i} has shape {d.shape}")
        if d.max(initial=0) > DEPTH_MAX:
            raise InvalidDepthError(f"invalid depth sample in frame {i}: value > {DEPTH_MAX}")
        return np.ascontiguousarray(d, dtype="<u2")

    def check_color(i, c):
        if c.shape != color_shape:
            raise ManifestMismatchError(f"manifest mismatch: color frame {i} has shape {c.shape}")
        return np.ascontiguousarray(c, dtype=np.uint8)

    # Frames past ``limit[0]`` are not read: it drops to the first failing
    # frame either loop has met, and to -1 when the caller is interrupted.
    limit = [n]
    failures = []   # (frame, order, exception): each loop's first failure

    def write_stream(order, read, check, file):
        """Read, check and write frames in order until one fails or passes ``limit``."""
        i = 0
        try:
            for i in range(n):
                if i > limit[0]:
                    return
                file.write(check(i, read(i)))
        except BaseException as exc:
            failures.append((i, order, exc))
            limit[0] = min(limit[0], i)

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    names = (man.depth_file, man.color_file, man.audio_file)
    partials = [out / (name + ".partial") for name in names]
    helper = None
    try:
        with open(partials[0], "wb") as fd, open(partials[1], "wb") as fc:
            color_loop = (1, session.color_frame, check_color, fc)
            if man.color_width * man.color_height >= _THREAD_MIN_PX:
                helper = threading.Thread(target=write_stream, args=color_loop,
                                          name="write_session color")
                helper.start()
            write_stream(0, session.depth_frame, check_depth, fd)
            if helper is None:
                write_stream(*color_loop)
            else:
                helper.join()
        if failures:
            raise min(failures, key=lambda f: f[:2])[2]
        partials[2].write_bytes(np.ascontiguousarray(audio, dtype="<i2"))
        for partial, name in zip(partials, names):
            os.replace(partial, out / name)
    except BaseException:
        limit[0] = -1
        if helper is not None and helper.is_alive():
            helper.join()
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise
    write_pairs(out / MANIFEST_NAME, to_pairs(man))


def load_session(path: str | os.PathLike) -> Session:
    """Load a session directory, verifying sizes and the depth value range.

    The manifest is read by ``load_manifest``, and its audio rate must not be
    below its video rate, so that every frame slot has audio.  The depth
    range is then checked window by window over the whole stream, so a bad
    sample anywhere raises ``InvalidDepthError`` at load, and the audio stream
    is read whole; frames are mapped on demand (see the module docstring).  A
    caller that needs only the manifest calls ``load_manifest`` and pays for
    none of this.
    """
    root = Path(path)
    man = load_manifest(root)
    if man.audio_rate < man.video_rate:
        raise ManifestMismatchError(
            f"manifest mismatch: audio_rate {man.audio_rate} is below video_rate "
            f"{man.video_rate}, so some video frames would have no audio")

    paths = {name: root / getattr(man, name) for name in ("depth_file", "color_file", "audio_file")}
    for name, p in paths.items():
        if not p.is_file():
            raise CorruptSessionError(f"corrupt session: missing stream file {p.name}")

    n = man.frame_count
    depth_bytes = n * man.depth_height * man.depth_width * 2
    color_bytes = n * man.color_height * man.color_width * 3
    if paths["depth_file"].stat().st_size != depth_bytes:
        raise ManifestMismatchError(
            f"manifest mismatch: depth file holds {paths['depth_file'].stat().st_size} bytes, "
            f"expected {depth_bytes}")
    if paths["color_file"].stat().st_size != color_bytes:
        raise ManifestMismatchError(
            f"manifest mismatch: color file holds {paths['color_file'].stat().st_size} bytes, "
            f"expected {color_bytes}")
    audio_size = paths["audio_file"].stat().st_size
    if audio_size % 2 != 0 or audio_size // 2 < man.min_audio_samples:
        raise ManifestMismatchError(
            f"manifest mismatch: audio file holds {audio_size // 2} samples, "
            f"need at least {man.min_audio_samples}")

    depth = _MappedFrames(paths["depth_file"], "<u2", (man.depth_height, man.depth_width), n)
    for start in range(0, n, depth.window_frames):
        frames = depth._frames_at(start)
        if frames.max() > DEPTH_MAX:
            bad = start + int(np.argmax(frames.max(axis=(1, 2)) > DEPTH_MAX))
            raise InvalidDepthError(f"invalid depth sample in frame {bad}: value > {DEPTH_MAX}")
    color = _MappedFrames(paths["color_file"], "u1", (man.color_height, man.color_width, 3), n)
    audio = np.fromfile(paths["audio_file"], dtype="<i2").astype(np.int16, copy=False)
    return Session(manifest=man, depth=depth, color=color, audio=audio)
