"""On-disk session format: synchronized depth, color, and audio streams.

A session is a directory containing a manifest plus three raw stream files:

``manifest.txt``
    UTF-8 ``key=value`` lines with exactly these keys: ``depth_width``,
    ``depth_height``, ``color_width``, ``color_height``, ``video_rate``,
    ``audio_rate``, ``frame_count``, ``roi_x``, ``roi_y``, ``roi_w``,
    ``roi_h``, ``depth_file``, ``color_file``, ``audio_file``.

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
behavior is identical either way.  ``load_session`` returns read-only frames:
each is a view into a window of whole frames mapped from the stream file, so
a loaded session holds about ``WINDOW_BYTES`` per stream in memory however
long the recording is.  A frame the caller holds keeps its own window mapped,
so later reads never overwrite it.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptSessionError, InvalidDepthError, ManifestMismatchError, RoiBoundsError
from .kvtext import read_pairs, write_pairs

MANIFEST_NAME = "manifest.txt"
DEPTH_MAX = 2047
# Bytes of whole frames a loaded stream maps at a time (at least one frame).
WINDOW_BYTES = 4 << 20

_MANIFEST_KEYS = (
    "depth_width", "depth_height", "color_width", "color_height",
    "video_rate", "audio_rate", "frame_count",
    "roi_x", "roi_y", "roi_w", "roi_h",
    "depth_file", "color_file", "audio_file",
)


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


def sessions_equal(a: Session, b: Session) -> bool:
    """Bit-exact equality of manifests, frames, and samples."""
    if a.manifest != b.manifest:
        return False
    if not np.array_equal(np.asarray(a.audio), np.asarray(b.audio)):
        return False
    n = a.manifest.frame_count
    for i in range(n):
        if not np.array_equal(a.depth_frame(i), b.depth_frame(i)):
            return False
        if not np.array_equal(a.color_frame(i), b.color_frame(i)):
            return False
    return True


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
    """Return a copy of the roi sub-grid; the source frame is left unchanged."""
    x, y, w, h = roi
    fh, fw = frame.shape[0], frame.shape[1]
    if x < 0 or y < 0 or w <= 0 or h <= 0 or x + w > fw or y + h > fh:
        raise RoiBoundsError(f"roi out of range: roi={roi} frame={fw}x{fh}")
    return frame[y:y + h, x:x + w].copy()


def _manifest_to_pairs(man: SessionManifest) -> list[tuple[str, str]]:
    x, y, w, h = man.roi
    values = {
        "depth_width": man.depth_width, "depth_height": man.depth_height,
        "color_width": man.color_width, "color_height": man.color_height,
        "video_rate": man.video_rate, "audio_rate": man.audio_rate,
        "frame_count": man.frame_count,
        "roi_x": x, "roi_y": y, "roi_w": w, "roi_h": h,
        "depth_file": man.depth_file, "color_file": man.color_file,
        "audio_file": man.audio_file,
    }
    return [(k, str(values[k])) for k in _MANIFEST_KEYS]


def _manifest_from_pairs(pairs: list[tuple[str, str]]) -> SessionManifest:
    kv = dict(pairs)
    if len(kv) != len(pairs):
        raise CorruptSessionError("corrupt session: duplicate manifest key")
    missing = [k for k in _MANIFEST_KEYS if k not in kv]
    unknown = [k for k in kv if k not in _MANIFEST_KEYS]
    if missing or unknown:
        raise CorruptSessionError(
            f"corrupt session: manifest missing keys {missing}, unknown keys {unknown}")
    try:
        ints = {k: int(kv[k]) for k in _MANIFEST_KEYS if not k.endswith("_file")}
    except ValueError as exc:
        raise CorruptSessionError(f"corrupt session: bad manifest value ({exc})") from exc
    try:
        return SessionManifest(
            depth_width=ints["depth_width"], depth_height=ints["depth_height"],
            color_width=ints["color_width"], color_height=ints["color_height"],
            video_rate=ints["video_rate"], audio_rate=ints["audio_rate"],
            frame_count=ints["frame_count"],
            roi=(ints["roi_x"], ints["roi_y"], ints["roi_w"], ints["roi_h"]),
            depth_file=kv["depth_file"], color_file=kv["color_file"],
            audio_file=kv["audio_file"],
        )
    except ValueError as exc:
        raise CorruptSessionError(f"corrupt session: invalid manifest ({exc})") from exc


def write_session(session: Session, path: str | os.PathLike) -> None:
    """Write manifest and streams, checking each frame as it is written.

    An invalid session leaves no file behind: the streams are written to
    ``<name>.partial`` files, renamed into place once every frame has passed,
    and the manifest is written last.  Each frame is read once.  Two writes
    of the same session produce byte-identical files.
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

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    names = (man.depth_file, man.color_file, man.audio_file)
    partials = [out / (name + ".partial") for name in names]
    try:
        with open(partials[0], "wb") as fd, open(partials[1], "wb") as fc:
            for i in range(n):
                d = session.depth_frame(i)
                if d.shape != (man.depth_height, man.depth_width):
                    raise ManifestMismatchError(
                        f"manifest mismatch: depth frame {i} has shape {d.shape}")
                if d.max(initial=0) > DEPTH_MAX:
                    raise InvalidDepthError(
                        f"invalid depth sample in frame {i}: value > {DEPTH_MAX}")
                c = session.color_frame(i)
                if c.shape != (man.color_height, man.color_width, 3):
                    raise ManifestMismatchError(
                        f"manifest mismatch: color frame {i} has shape {c.shape}")
                fd.write(np.ascontiguousarray(d, dtype="<u2"))
                fc.write(np.ascontiguousarray(c, dtype=np.uint8))
        partials[2].write_bytes(np.ascontiguousarray(audio, dtype="<i2"))
        for partial, name in zip(partials, names):
            os.replace(partial, out / name)
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise
    write_pairs(out / MANIFEST_NAME, _manifest_to_pairs(man))


def load_session(path: str | os.PathLike) -> Session:
    """Load a session directory, verifying sizes and the depth value range.

    The depth range is checked window by window over the whole stream here,
    so a bad sample anywhere raises ``InvalidDepthError`` at load; frames are
    then mapped on demand (see the module docstring).
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CorruptSessionError(f"corrupt session: missing {MANIFEST_NAME} in {root}")
    man = _manifest_from_pairs(read_pairs(manifest_path))

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
