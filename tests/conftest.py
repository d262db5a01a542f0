import time

import numpy as np
import pytest

from sleepmon import session
from sleepmon.session import Session, SessionManifest


def build_session(frame_count=3, width=8, height=6, roi=(1, 1, 4, 4),
                  video_rate=30, audio_rate=16000, seed=0, audio=None):
    """Small deterministic in-memory session for format and pipeline tests."""
    rng = np.random.default_rng(seed)
    man = SessionManifest(
        depth_width=width, depth_height=height, color_width=width, color_height=height,
        video_rate=video_rate, audio_rate=audio_rate, frame_count=frame_count, roi=roi)
    depth = rng.integers(0, 2048, (frame_count, height, width), dtype=np.uint16)
    color = rng.integers(0, 256, (frame_count, height, width, 3), dtype=np.uint8)
    if audio is None:
        audio = rng.integers(-32768, 32768, man.min_audio_samples, dtype=np.int16)
    return Session(manifest=man, depth=depth, color=color, audio=np.asarray(audio, np.int16))


def sessions_equal(a: Session, b: Session) -> bool:
    """Bit-exact equality of manifests, frames, and samples."""
    if a.manifest != b.manifest:
        return False
    if not np.array_equal(np.asarray(a.audio), np.asarray(b.audio)):
        return False
    return all(np.array_equal(a.depth_frame(i), b.depth_frame(i))
               and np.array_equal(a.color_frame(i), b.color_frame(i))
               for i in range(a.manifest.frame_count))


class ScriptedFrames:
    """Frame store over the ndarray ``frames`` whose read of frame ``at`` raises ``exc``.

    Each other frame read first sleeps ``delay`` seconds; ``read`` lists the
    indices read, in order.  A contiguous slice, such as the empty head slice
    a ``Session`` checks when it is built, is answered from ``frames`` and is
    not logged as a read.
    """

    def __init__(self, frames, at=None, exc=None, delay=0.0):
        self.frames, self.at, self.exc, self.delay = frames, at, exc, delay
        self.read = []

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.frames[i]
        self.read.append(i)
        if i == self.at:
            raise self.exc
        time.sleep(self.delay)
        return self.frames[i]


def force_helper_thread(monkeypatch, on):
    """Make ``session.use_helper_thread`` answer ``on`` at every frame size."""
    monkeypatch.setattr(session, "_usable_cpus", lambda: 2 if on else 1)
    if on:
        monkeypatch.setattr(session, "_THREAD_MIN_PX", 0)


@pytest.fixture
def small_session():
    return build_session()
