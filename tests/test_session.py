"""Session format: manifests, raw streams, round trips, and error paths."""

import gc
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepmon.errors import (CorruptSessionError, InvalidDepthError,
                             ManifestMismatchError, RoiBoundsError)
from sleepmon import session
from sleepmon.events import run_detector
from sleepmon.kvtext import to_pairs, write_pairs
from sleepmon.scoring import make_models, score_session
from sleepmon.session import (_THREAD_MIN_PX, DEPTH_MAX, MANIFEST_NAME, WINDOW_BYTES,
                              Session, SessionManifest, crop_roi, frame_index, load_manifest,
                              load_session, run_frame_loops, use_helper_thread,
                              write_session)
from sleepmon.synth import Scenario, generate

from conftest import ScriptedFrames, build_session, sessions_equal


class GeneratedFrames:
    """Frame store that builds frame ``i`` from ``i`` and logs each frame read.

    ``log`` holds one ``(thread ident, index)`` pair per frame read, in read
    order.  A contiguous slice, such as the empty head slice a ``Session``
    checks when it is built, is built the same way and is not logged.
    """

    def __init__(self, count, shape, dtype):
        self.count, self.shape, self.dtype = count, shape, np.dtype(dtype)
        self.log = []

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        if isinstance(i, slice):
            frames = [self.frame(j) for j in range(*i.indices(self.count))]
            return np.array(frames, self.dtype).reshape((-1,) + self.shape)
        self.log.append((threading.get_ident(), i))
        return self.frame(i)

    def frame(self, i):
        top = 2048 if self.dtype == np.uint16 else 256
        return ((np.arange(np.prod(self.shape)) + 7 * i) % top).astype(self.dtype).reshape(
            self.shape)


def generated_session(frame_count, width=320, height=240):
    man = SessionManifest(depth_width=width, depth_height=height, color_width=width,
                          color_height=height, frame_count=frame_count, roi=(0, 0, 4, 4))
    return Session(manifest=man,
                   depth=GeneratedFrames(frame_count, (height, width), np.uint16),
                   color=GeneratedFrames(frame_count, (height, width, 3), np.uint8),
                   audio=np.zeros(man.min_audio_samples, np.int16))


def several_windows_session():
    """A session whose depth and color streams each span five or more windows."""
    depth_frame_bytes = 240 * 320 * 2
    return generated_session(5 * (WINDOW_BYTES // depth_frame_bytes) + 3)


@pytest.fixture(scope="module")
def long_session(tmp_path_factory):
    out = tmp_path_factory.mktemp("long")
    s = several_windows_session()
    write_session(s, out)
    return s, out


class TestManifest:
    def test_defaults_match_sensor_geometry(self):
        man = SessionManifest()
        assert (man.depth_width, man.depth_height) == (640, 480)
        assert (man.video_rate, man.audio_rate) == (30, 16000)
        assert man.roi == (160, 65, 320, 350)

    def test_roi_must_fit_both_frames(self):
        with pytest.raises(ValueError):
            SessionManifest(roi=(630, 470, 320, 350))

    @pytest.mark.parametrize("roi", [(1, 2, 3), (0, 0, 4, 4, 4), ()])
    def test_roi_must_have_four_entries(self, roi):
        with pytest.raises(ValueError, match=r"roi must have four entries \(x, y, w, h\)"):
            SessionManifest(roi=roi)

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionManifest(video_rate=0)
        with pytest.raises(ValueError):
            SessionManifest(audio_rate=-1)

    def test_min_audio_samples_uses_floor(self):
        man = SessionManifest(frame_count=30)
        assert man.min_audio_samples == 30 * 16000 // 30


class TestSessionRule:
    """A session agrees with its manifest once it is built, however it is built."""

    @pytest.mark.parametrize("defect, message", [
        ("short depth", "stream holds 2 depth / 3 color frames, manifest declares 3"),
        ("short color", "stream holds 3 depth / 2 color frames, manifest declares 3"),
        ("long color", "stream holds 3 depth / 4 color frames, manifest declares 3"),
        ("short audio", "audio holds 1599 samples, need at least 1600"),
        ("int32 audio", "audio store holds int32 items of shape (), "
                        "manifest declares int16 items of shape ()"),
        ("2-D audio", "audio store holds int16 items of shape (1,), "
                      "manifest declares int16 items of shape ()"),
        ("int64 depth", "depth store holds int64 items of shape (6, 8), "
                        "manifest declares uint16 items of shape (6, 8)"),
        ("transposed depth", "depth store holds uint16 items of shape (8, 6), "
                             "manifest declares uint16 items of shape (6, 8)"),
        ("RGBA color", "color store holds uint8 items of shape (6, 8, 4), "
                       "manifest declares uint8 items of shape (6, 8, 3)"),
        ("list of color frames", "color store holds float64 items of shape (), "
                                 "manifest declares uint8 items of shape (6, 8, 3)"),
    ])
    def test_streams_that_disagree_with_the_manifest_are_rejected(self, defect, message):
        s = build_session(frame_count=3)
        change = {"short depth": {"depth": s.depth[:2]},
                  "short color": {"color": s.color[:2]},
                  "long color": {"color": np.concatenate([s.color, s.color[:1]])},
                  "short audio": {"audio": s.audio[:-1]},
                  "int32 audio": {"audio": s.audio.astype(np.int32)},
                  "2-D audio": {"audio": s.audio.reshape(-1, 1)},
                  "int64 depth": {"depth": s.depth.astype(np.int64)},
                  "transposed depth": {"depth": s.depth.transpose(0, 2, 1)},
                  "RGBA color": {"color": np.concatenate([s.color, s.color[..., :1]], -1)},
                  "list of color frames": {"color": list(s.color)}}[defect]
        fields = dict(manifest=s.manifest, depth=s.depth, color=s.color, audio=s.audio) | change
        want = f"^manifest mismatch: {re.escape(message)}$"
        with pytest.raises(ManifestMismatchError, match=want):
            Session(**fields)
        with pytest.raises(ManifestMismatchError, match=want):
            replace(s, **change)

    def test_a_built_session_is_frozen(self, small_session):
        with pytest.raises(FrozenInstanceError):
            small_session.depth = small_session.depth[:2]

    def test_odd_sized_audio_file_is_manifest_mismatch(self, small_session, tmp_path):
        write_session(small_session, tmp_path)
        with open(tmp_path / "audio.raw", "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ManifestMismatchError, match="audio.raw holds 3201 bytes, "
                                                        "not whole 2-byte items"):
            load_session(tmp_path)

    @pytest.mark.parametrize("name, counts", [("depth.raw", "2 depth / 3 color"),
                                              ("color.raw", "3 depth / 2 color")])
    def test_file_a_whole_frame_short_fails_the_count_rule(self, small_session, tmp_path,
                                                          name, counts):
        write_session(small_session, tmp_path)
        raw = (tmp_path / name).read_bytes()
        (tmp_path / name).write_bytes(raw[:len(raw) * 2 // 3])
        with pytest.raises(ManifestMismatchError, match=f"^manifest mismatch: stream holds "
                                                        f"{counts} frames, manifest declares 3$"):
            load_session(tmp_path)


class TestRoundTrip:
    def test_write_then_load_is_identity(self, small_session, tmp_path):
        write_session(small_session, tmp_path / "s")
        again = load_session(tmp_path / "s")
        assert sessions_equal(small_session, again)

    def test_two_writes_are_byte_identical(self, small_session, tmp_path):
        write_session(small_session, tmp_path / "a")
        write_session(small_session, tmp_path / "b")
        for name in (MANIFEST_NAME, "depth.raw", "color.raw", "audio.raw"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_session_round_trip(self, tmp_path):
        s = build_session(frame_count=0)
        write_session(s, tmp_path / "e")
        again = load_session(tmp_path / "e")
        assert again.manifest.frame_count == 0
        assert len(again.depth) == 0 and len(again.color) == 0
        assert sessions_equal(s, again)

    @settings(max_examples=25, deadline=None)
    @given(frame_count=st.integers(0, 4), width=st.integers(4, 10),
           height=st.integers(4, 10), seed=st.integers(0, 2 ** 16))
    def test_round_trip_property(self, tmp_path_factory, frame_count, width, height, seed):
        s = build_session(frame_count=frame_count, width=width, height=height,
                          roi=(0, 0, width, height), seed=seed)
        out = tmp_path_factory.mktemp("rt")
        write_session(s, out)
        assert sessions_equal(s, load_session(out))


class TestLoadErrors:
    def test_missing_stream_is_corrupt_session(self, small_session, tmp_path):
        write_session(small_session, tmp_path)
        (tmp_path / "color.raw").unlink()
        with pytest.raises(CorruptSessionError, match="corrupt session"):
            load_session(tmp_path)

    def test_missing_manifest_is_corrupt_session(self, tmp_path):
        for load in (load_session, load_manifest):
            with pytest.raises(CorruptSessionError, match="corrupt session"):
                load(tmp_path)

    def test_truncated_depth_is_manifest_mismatch(self, small_session, tmp_path):
        write_session(small_session, tmp_path)
        raw = (tmp_path / "depth.raw").read_bytes()
        (tmp_path / "depth.raw").write_bytes(raw[:-2])  # drop one sample
        with pytest.raises(ManifestMismatchError, match="manifest mismatch"):
            load_session(tmp_path)

    def test_out_of_range_depth_is_invalid_sample(self, small_session, tmp_path):
        write_session(small_session, tmp_path)
        raw = bytearray((tmp_path / "depth.raw").read_bytes())
        raw[0:2] = (2048).to_bytes(2, "little")
        (tmp_path / "depth.raw").write_bytes(bytes(raw))
        loaded = load_session(tmp_path)  # the depth range is checked as windows are read
        assert np.array_equal(loaded.color_frame(0), small_session.color_frame(0))
        for i in (0, -1):
            with pytest.raises(InvalidDepthError, match="invalid depth sample in frame 0: "):
                loaded.depth_frame(i)

    def test_short_audio_is_manifest_mismatch(self, small_session, tmp_path):
        write_session(small_session, tmp_path)
        raw = (tmp_path / "audio.raw").read_bytes()
        (tmp_path / "audio.raw").write_bytes(raw[:-4])
        with pytest.raises(ManifestMismatchError, match="manifest mismatch"):
            load_session(tmp_path)

    @pytest.mark.parametrize("audio_rate", [1, 29])
    def test_audio_rate_below_video_rate_is_corrupt(self, small_session, tmp_path, audio_rate):
        write_session(small_session, tmp_path)
        path = tmp_path / MANIFEST_NAME
        text = path.read_text()
        path.write_text(text.replace(f"audio_rate={small_session.manifest.audio_rate}\n",
                                     f"audio_rate={audio_rate}\n"))
        (tmp_path / "depth.raw").unlink()  # the rates are checked before any stream
        want = (rf"corrupt session: invalid manifest \(audio_rate {audio_rate} is below "
                rf"video_rate 30, so some video frames would have no audio\)")
        for load in (load_session, load_manifest):
            with pytest.raises(CorruptSessionError, match=want):
                load(tmp_path)

    def test_unknown_manifest_key_is_corrupt(self, small_session, tmp_path):
        write_session(small_session, tmp_path)
        with open(tmp_path / MANIFEST_NAME, "a") as fh:
            fh.write("mystery=1\n")
        for load in (load_session, load_manifest):
            with pytest.raises(CorruptSessionError, match="corrupt session"):
                load(tmp_path)

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text + "video_rate=30\n", "duplicate manifest key"),
        (lambda text: text.replace("audio_file=audio.raw\n", ""), "manifest missing keys"),
        (lambda text: text.replace("frame_count=3", "frame_count=three"), "bad manifest value"),
        (lambda text: text.replace("video_rate=30", "video_rate=0"), "invalid manifest"),
        (lambda text: text.replace("roi_w=4", "roi_w=40"), "invalid manifest"),
    ])
    def test_manifest_defects_are_corrupt(self, small_session, tmp_path, edit, message):
        write_session(small_session, tmp_path)
        path = tmp_path / MANIFEST_NAME
        path.write_text(edit(path.read_text()))
        for load in (load_session, load_manifest):
            with pytest.raises(CorruptSessionError, match=message):
                load(tmp_path)


class TestLoadManifest:
    def test_equals_loaded_session_manifest(self, small_session, tmp_path):
        write_session(small_session, tmp_path)
        assert load_manifest(tmp_path) == load_session(tmp_path).manifest == small_session.manifest

    def test_reads_no_stream_file(self, small_session, tmp_path):
        write_session(small_session, tmp_path)
        for name in ("depth.raw", "color.raw", "audio.raw"):
            (tmp_path / name).unlink()
        assert load_manifest(tmp_path) == small_session.manifest


class TestMappedLoad:
    def test_reading_every_frame_stays_far_below_stream_size(self, long_session):
        s, out = long_session
        stream_bytes = sum(os.path.getsize(out / name) for name in ("depth.raw", "color.raw"))
        tracemalloc.start()
        try:
            loaded = load_session(out)
            corners = [(int(loaded.depth_frame(i)[-1, -1]),
                        int(loaded.color_frame(i)[-1, -1, -1])) for i in range(len(loaded.depth))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stream_bytes / 20
        assert corners == [(int(s.depth.frame(i)[-1, -1]), int(s.color.frame(i)[-1, -1, -1]))
                           for i in range(len(s.depth))]

    def test_out_of_range_depth_in_last_frame_rejected_when_its_window_is_read(self, tmp_path):
        s = several_windows_session()
        write_session(s, tmp_path)
        with open(tmp_path / "depth.raw", "r+b") as fh:
            fh.seek(-2, os.SEEK_END)
            fh.write((2048).to_bytes(2, "little"))
        loaded = load_session(tmp_path)
        n, per_window = len(s.depth), loaded.depth.window_frames
        last_start = (n - 1) // per_window * per_window
        assert last_start >= 4 * per_window
        for i in range(last_start):
            assert np.array_equal(loaded.depth_frame(i), s.depth.frame(i))
        # Every frame of the bad window raises, each time it is asked for, and
        # the earlier windows still read afterwards.
        message = f"invalid depth sample in frame {n - 1}: "
        for i in (last_start, n - 1, last_start):
            with pytest.raises(InvalidDepthError, match=message):
                loaded.depth_frame(i)
        assert np.array_equal(loaded.depth_frame(0), s.depth.frame(0))
        assert np.array_equal(loaded.color_frame(n - 1), s.color.frame(n - 1))

    def test_each_window_is_mapped_once_by_detection_and_none_at_load(self, long_session,
                                                                      monkeypatch):
        s, out = long_session
        mapped = []
        frames_at = session._WindowedStore._frames_at

        def spy(store, start, count):
            mapped.append((store, start))
            return frames_at(store, start, count)

        monkeypatch.setattr(session._WindowedStore, "_frames_at", spy)
        loaded = load_session(out)
        assert mapped == []
        run_detector(loaded)
        n = len(s.depth)
        for store in (loaded.depth, loaded.color):
            starts = [start for owner, start in mapped if owner is store]
            assert starts == list(range(0, n, store.window_frames))  # ceil(n / window) calls

    def test_old_window_is_let_go_before_the_next_is_mapped(self, long_session, monkeypatch):
        loaded = load_session(long_session[1])
        loaded.depth_frame(0)
        old_window = weakref.ref(loaded.depth._window[1])
        alive = []
        frames_at = session._WindowedStore._frames_at

        def spy(store, start, count):
            alive.append(old_window() is not None)
            return frames_at(store, start, count)

        monkeypatch.setattr(session._WindowedStore, "_frames_at", spy)
        loaded.depth_frame(loaded.depth.window_frames)
        assert alive == [False]

    def test_loaded_frames_are_read_only(self, long_session):
        loaded = load_session(long_session[1])
        for frame in (loaded.depth_frame(0), loaded.color_frame(len(loaded.color) - 1)):
            assert not frame.flags.writeable
            with pytest.raises(ValueError):
                frame[0, 0] = 1

    def test_frame_held_across_window_change_keeps_values(self, long_session):
        s, out = long_session
        loaded = load_session(out)
        held_depth, held_color = loaded.depth_frame(0), loaded.color_frame(0)
        for i in range(1, len(loaded.depth)):
            loaded.depth_frame(i), loaded.color_frame(i)
        gc.collect()
        assert np.array_equal(held_depth, s.depth.frame(0))
        assert np.array_equal(held_color, s.color.frame(0))
        assert sessions_equal(s, loaded)


def write_long_audio_session(out, frame_count, audio_samples, width=16, height=16):
    """Write a small-frame session whose audio holds ``audio_samples`` random samples."""
    s = build_session(frame_count=frame_count, width=width, height=height,
                      roi=(0, 0, width, height), seed=frame_count)
    s = replace(s, audio=np.random.default_rng(audio_samples).integers(
        -32768, 32768, audio_samples, dtype=np.int16))
    write_session(s, out)
    return s


class TestWindowGeometry:
    @staticmethod
    def stores(tmp_path, width, height):
        man = SessionManifest(depth_width=width, depth_height=height, color_width=width,
                              color_height=height, frame_count=2, roi=(0, 0, 16, 16))
        write_pairs(tmp_path / MANIFEST_NAME, to_pairs(man))
        for name, frame_bytes in (("depth.raw", 2), ("color.raw", 3)):
            with open(tmp_path / name, "wb") as fh:
                fh.truncate(2 * frame_bytes * width * height)
        with open(tmp_path / "audio.raw", "wb") as fh:
            fh.truncate(2 * man.min_audio_samples)
        loaded = load_session(tmp_path)
        return loaded.depth, loaded.color, loaded.audio

    def test_one_frame_per_window_at_sensor_size(self, tmp_path):
        depth, color, audio = self.stores(tmp_path, 640, 480)
        assert depth.window_frames == color.window_frames == 1
        assert audio.window_frames == WINDOW_BYTES // 2 >= 16000

    def test_over_a_hundred_frames_per_window_at_desk_size(self, tmp_path):
        depth, color, _ = self.stores(tmp_path, 48, 48)
        assert depth.window_frames >= 100 and color.window_frames >= 100


class TestMappedAudio:
    @pytest.fixture(scope="class")
    def audio_session(self, tmp_path_factory):
        """A session whose audio spans two and a half windows."""
        out = tmp_path_factory.mktemp("audio")
        samples = WINDOW_BYTES + WINDOW_BYTES // 4
        return write_long_audio_session(out, 30, samples), out

    def test_load_maps_no_window_and_reads_no_audio(self, audio_session, monkeypatch):
        mapped = []
        monkeypatch.setattr(session._WindowedStore, "_frames_at",
                            lambda store, start, count: mapped.append(start))

        def no_read(*args, **kwargs):
            raise AssertionError("stream bytes read at load")

        monkeypatch.setattr(np, "fromfile", no_read)
        monkeypatch.setattr(np, "memmap", no_read)
        tracemalloc.start()
        try:
            loaded = load_session(audio_session[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mapped == []
        assert len(loaded.audio) == len(audio_session[0].audio)
        assert peak < 64 << 10, peak

    def test_slices_and_whole_stream_equal_the_file(self, audio_session, monkeypatch):
        s, out = audio_session
        want = np.fromfile(out / "audio.raw", "<i2")
        assert np.array_equal(want, s.audio)
        loaded = load_session(out)
        edge = loaded.audio.window_frames
        mapped = []
        frames_at = session._WindowedStore._frames_at

        def spy(store, start, count):
            frames = frames_at(store, start, count)
            mapped.append((start, len(frames)))
            return frames

        monkeypatch.setattr(session._WindowedStore, "_frames_at", spy)
        windows = [(start, min(edge, len(want) - start)) for start in range(0, len(want), edge)]
        assert len(windows) == 3
        assert np.array_equal(loaded.audio[5:9], want[5:9])
        # Across an edge: a copy filled from the window before it and the one after.
        across = loaded.audio[edge - 100:edge + 100]
        assert np.array_equal(across, want[edge - 100:edge + 100])
        assert loaded.audio._window[0] == edge
        assert int(loaded.audio[-1]) == int(want[-1])
        # Each window is mapped once, at a multiple of the window length.
        assert mapped == windows
        mapped.clear()
        assert np.array_equal(loaded.audio[:], want)        # longer than a window
        whole = np.asarray(loaded.audio)
        assert whole.dtype == np.int16 and np.array_equal(whole, want)
        assert mapped == 2 * windows
        assert loaded.audio[7:7].shape == (0,)
        with pytest.raises(IndexError, match="contiguous"):
            loaded.audio[::2]

    def test_held_slice_keeps_its_values(self, audio_session):
        s, out = audio_session
        loaded = load_session(out)
        held = loaded.audio[0:100]
        loaded.audio[len(loaded.audio) - 100:]
        gc.collect()
        assert not held.flags.writeable
        assert np.array_equal(held, s.audio[0:100])


STORE_SCENARIO = Scenario(duration=5, seed=5, frame_width=16, frame_height=16,
                          roi=(0, 0, 16, 16), video_rate=5, audio_rate=1000)


@pytest.fixture(params=["loaded depth", "synthesized depth", "loaded audio",
                        "synthesized audio"])
def stream(request, tmp_path, monkeypatch):
    """A windowed store of four or more windows, and the stream its file holds.

    A loaded store maps 2 kB windows (four depth frames, 1024 samples); a
    synthesized one draws one frame or one second (1000 samples) a window.
    """
    kind, name = request.param.split()
    monkeypatch.setattr(session, "WINDOW_BYTES", 1 << 11)
    write_session(generate(STORE_SCENARIO)[0], tmp_path)
    if name == "depth":
        want = np.fromfile(tmp_path / "depth.raw", "<u2").reshape(-1, 16, 16)
    else:
        want = np.fromfile(tmp_path / "audio.raw", "<i2")
    source = load_session(tmp_path) if kind == "loaded" else generate(STORE_SCENARIO)[0]
    store = getattr(source, name)
    assert len(store) == len(want) >= 4 * store.window_frames
    return store, want


class TestWindowedStore:
    """The one store protocol, on loaded and on synthesized streams."""

    def test_negative_index_counts_from_the_end(self, stream):
        store, want = stream
        assert np.array_equal(store[-1], want[-1])
        assert np.array_equal(store[-len(want)], want[0])
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError, match="out of range"):
                store[i]

    def test_slices_across_a_window_edge(self, stream):
        store, want = stream
        edge = store.window_frames
        for lo, hi in ((edge - min(edge, 3), edge + 3), (1, 3 * edge + 1), (-2, None),
                       (0, None), (2, 2)):
            assert np.array_equal(store[lo:hi], want[lo:hi]), (lo, hi)
        assert store[2:2].shape == (0,) + want.shape[1:]

    def test_step_other_than_one_raises(self, stream):
        store, _ = stream
        for key in (slice(None, None, 2), slice(None, None, -1)):
            with pytest.raises(IndexError, match="contiguous"):
                store[key]

    def test_whole_stream_equals_the_file(self, stream):
        store, want = stream
        whole = np.asarray(store)
        assert whole.dtype == want.dtype and np.array_equal(whole, want)

    def test_frames_and_slices_are_read_only(self, stream):
        store, want = stream
        views = [store[0:2], store[-1:]]
        if want.ndim > 1:       # an audio sample is a scalar
            views.append(store[len(store) // 2])
        for view in views:
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 1

    def test_old_window_is_let_go_before_the_next_is_fetched(self, stream, monkeypatch):
        store, want = stream
        store[0]
        old_window = weakref.ref(store._window[1])
        alive = []
        frames_at = session._WindowedStore._frames_at

        def spy(owner, start, count):
            alive.append(old_window() is not None)
            return frames_at(owner, start, count)

        monkeypatch.setattr(session._WindowedStore, "_frames_at", spy)
        assert np.array_equal(store[store.window_frames], want[store.window_frames])
        assert alive == [False]

    @staticmethod
    def spy_fetches(monkeypatch):
        """Record each fetch as ``(start, frames fetched, earlier windows still alive)``."""
        fetches, earlier = [], []
        frames_at = session._WindowedStore._frames_at

        def spy(owner, start, count):
            alive = sum(w() is not None for w in earlier)
            frames = frames_at(owner, start, count)
            fetches.append((start, len(frames), alive))
            earlier.append(weakref.ref(frames))
            return frames

        monkeypatch.setattr(session._WindowedStore, "_frames_at", spy)
        return fetches

    def test_every_fetch_is_one_whole_aligned_window(self, stream, monkeypatch):
        store, want = stream
        fetches = self.spy_fetches(monkeypatch)
        size, n = store.window_frames, len(want)
        for i in (0, size - 1, size, n - 1, -1, 2 * size + 1):
            assert np.array_equal(store[i], want[i]), i
        for lo, hi in ((size - 1, size + 1), (1, 3 * size + 1), (size, 2 * size), (-size - 1, n)):
            assert np.array_equal(store[lo:hi], want[lo:hi]), (lo, hi)
        assert np.array_equal(np.asarray(store), want)
        assert len(fetches) >= 10
        for start, count, _ in fetches:
            assert start % size == 0 and count == min(size, n - start), (start, count)

    def test_slice_over_several_windows_is_a_read_only_copy(self, stream, monkeypatch):
        store, want = stream
        size = store.window_frames
        fetches = self.spy_fetches(monkeypatch)
        lo, hi = size // 2, 3 * size + size // 2 + 1
        part = store[lo:hi]
        assert np.array_equal(part, want[lo:hi])
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 1
        assert [start for start, _, _ in fetches] == [0, size, 2 * size, 3 * size]
        # Each window is let go before the next is fetched.
        assert [alive for _, _, alive in fetches] == [0, 0, 0, 0]


class TestBoundedDetection:
    """Detection maps each window once and holds one window per stream."""

    @pytest.fixture
    def small_windows(self, monkeypatch, tmp_path):
        monkeypatch.setattr(session, "WINDOW_BYTES", 1 << 12)
        s = write_long_audio_session(tmp_path, 60, 32000)
        return s, tmp_path

    def spy_windows(self, monkeypatch):
        """Record each map as ``(store, start, weak refs to the store's earlier windows)``."""
        mapped, windows = [], {}
        frames_at = session._WindowedStore._frames_at

        def spy(store, start, count):
            earlier = windows.setdefault(store, [])
            mapped.append((store, start, [w() is not None for w in earlier]))
            frames = frames_at(store, start, count)
            earlier.append(weakref.ref(frames))
            return frames

        monkeypatch.setattr(session._WindowedStore, "_frames_at", spy)
        return mapped

    def test_each_audio_window_is_mapped_once(self, small_windows, monkeypatch):
        s, out = small_windows
        mapped = self.spy_windows(monkeypatch)
        loaded = load_session(out)
        run_detector(loaded)
        starts = [start for store, start, _ in mapped if store is loaded.audio]
        window = loaded.audio.window_frames
        assert window == 2048
        # The 533-sample chunks cross window edges, yet each window is mapped
        # once, at a multiple of the window length.
        assert starts == list(range(0, len(s.audio), window))
        assert len(starts) >= 10 and len(s.audio) % window != 0

    def test_never_holds_two_windows_of_one_stream(self, small_windows, monkeypatch):
        mapped = self.spy_windows(monkeypatch)
        run_detector(load_session(small_windows[1]))
        stores = {store for store, _, _ in mapped}
        assert len(stores) == 3
        for store in stores:
            assert sum(1 for owner, _, _ in mapped if owner is store) >= 3
        assert [alive for _, _, alive in mapped if any(alive)] == []

    def test_peak_memory_does_not_grow_with_the_audio(self, tmp_path, monkeypatch):
        monkeypatch.setattr(session, "WINDOW_BYTES", 1 << 16)
        peaks = []
        for frames in (300, 1200):
            out = tmp_path / str(frames)
            write_long_audio_session(out, frames, frames * 16000 // 30)
            gc.collect()
            tracemalloc.start()
            try:
                loaded = load_session(out)
                score_session(loaded, *make_models(loaded))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del loaded
        # The longer audio is 960 kB more, 15 windows; three score arrays and
        # the chunk bounds grow by 32 bytes a frame.
        assert peaks[1] - peaks[0] < 128 << 10, peaks


class TestWriteValidation:
    """Write checks with frames below ``_THREAD_MIN_PX``: both streams on the caller.

    The process is made to see two usable CPUs, so the frame size alone picks
    the path on any machine.
    """

    SIZE = (8, 6)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(session, "_usable_cpus", lambda: 2)

    def session(self, frame_count=3):
        return build_session(frame_count=frame_count, width=self.SIZE[0], height=self.SIZE[1])

    def test_depth_over_range_rejected_before_io(self, tmp_path):
        s = self.session()
        s.depth[1, 2, 3] = 4000
        out = tmp_path / "bad"
        with pytest.raises(InvalidDepthError, match="invalid depth sample"):
            write_session(s, out)
        assert not (out / "depth.raw").exists()

    def test_frame_count_mismatch_rejected(self):
        s = self.session(frame_count=3)
        with pytest.raises(ManifestMismatchError, match="manifest mismatch"):
            replace(s, depth=s.depth[:2])

    @pytest.mark.parametrize("defect", ["frame_count", "audio_dtype", "audio_length",
                                        "audio_rate", "depth_dtype"])
    def test_cheap_checks_run_before_any_file_is_created(self, tmp_path, defect):
        s = self.session(frame_count=3)
        if defect == "audio_rate":
            # The manifest itself rejects the rates, so no session reaches the write.
            with pytest.raises(ValueError, match="audio_rate 20 is below video_rate 30"):
                replace(s.manifest, audio_rate=20)
            return
        negative = s.depth.astype(np.int64)
        negative[1, 0, 0] = -5      # a "<u2" cast would write it as 65531
        change = {"frame_count": {"color": s.color[:2]},
                  "audio_dtype": {"audio": s.audio.astype(np.int32)},
                  "audio_length": {"audio": s.audio[:-1]},
                  "depth_dtype": {"depth": negative}}[defect]
        # The session is rejected as it is built, so no write can begin.
        with pytest.raises(ManifestMismatchError, match="manifest mismatch"):
            replace(s, **change)
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("defect, error", [("depth_range", InvalidDepthError),
                                               ("color_shape", ManifestMismatchError)])
    def test_invalid_last_frame_leaves_no_file(self, tmp_path, defect, error):
        s = self.session(frame_count=3)
        if defect == "color_shape":
            color = list(s.color)
            color[-1] = color[-1][:, :-1]
            # A ragged list of frames is no store: the session is never built.
            with pytest.raises(error, match="^manifest mismatch: color store holds"):
                replace(s, color=color)
            return
        s.depth[-1, 0, 0] = DEPTH_MAX + 1
        out = tmp_path / "bad"
        with pytest.raises(error, match="frame 2"):
            write_session(s, out)
        assert not list(out.glob("*"))

    def test_earlier_color_error_beats_later_depth_error(self, tmp_path):
        s = self.session(frame_count=6)
        s.depth[4, 0, 0] = DEPTH_MAX + 1
        # Color lags, so on two threads the depth error is usually met first.
        s = replace(s, color=ScriptedFrames(s.color, at=2, exc=RuntimeError("color frame 2"),
                                            delay=0.02))
        with pytest.raises(RuntimeError, match="color frame 2"):
            write_session(s, tmp_path / "bad")

    def test_depth_error_beats_color_error_in_the_same_frame(self, tmp_path):
        s = self.session(frame_count=6)
        s.depth[2, 0, 0] = DEPTH_MAX + 1
        # Depth lags, so on two threads the color error is usually met first.
        s = replace(s, depth=ScriptedFrames(s.depth, delay=0.02),
                    color=ScriptedFrames(s.color, at=2, exc=RuntimeError("color frame 2")))
        with pytest.raises(InvalidDepthError, match="frame 2:"):
            write_session(s, tmp_path / "bad")

    def test_a_failure_stops_the_other_stream(self, tmp_path):
        s = self.session(frame_count=40)
        s.depth[1, 0, 0] = DEPTH_MAX + 1
        s = replace(s, color=ScriptedFrames(s.color, delay=0.01))
        with pytest.raises(InvalidDepthError, match="frame 1:"):
            write_session(s, tmp_path / "bad")
        assert s.color.read[:2] == [0, 1] and len(s.color.read) < 10

    @pytest.mark.parametrize("stream", ["depth", "color"])
    def test_interrupt_propagates_and_leaves_nothing(self, tmp_path, stream):
        s = self.session(frame_count=6)
        s = replace(s, **{stream: ScriptedFrames(getattr(s, stream), at=3,
                                                 exc=KeyboardInterrupt)})
        threads = threading.active_count()
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            write_session(s, out)
        assert not list(out.iterdir())
        assert threading.active_count() == threads

    def test_each_frame_is_read_once(self, tmp_path):
        s = generated_session(5, *self.SIZE)
        write_session(s, tmp_path)
        for store in (s.depth, s.color):
            assert [i for _, i in store.log] == list(range(5))

    def test_each_store_is_read_by_one_thread(self, tmp_path):
        s = generated_session(5, *self.SIZE)
        write_session(s, tmp_path)
        depth_readers = {ident for ident, _ in s.depth.log}
        color_readers = {ident for ident, _ in s.color.log}
        assert depth_readers == {threading.get_ident()}
        assert len(color_readers) == 1
        assert (color_readers != depth_readers) == (self.SIZE[0] * self.SIZE[1] >= _THREAD_MIN_PX)


class TestWriteValidationThreaded(TestWriteValidation):
    """The same checks with frames of ``_THREAD_MIN_PX``: color on a helper thread."""

    SIZE = (128, _THREAD_MIN_PX // 128)


class TestRunFrameLoops:
    def test_an_interrupt_beats_an_error_of_an_earlier_frame(self):
        interrupted = threading.Event()

        def depth_step(i):
            if i == 5:
                interrupted.set()
                raise KeyboardInterrupt

        def color_step(i):
            if i == 3:
                assert interrupted.wait(10)
                raise RuntimeError("color 3")

        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_frame_loops(8, depth_step, color_step, threaded=True)
        assert threading.active_count() == threads


    @pytest.mark.parametrize("threaded", [False, True])
    def test_an_interrupt_stops_the_other_loop_at_once(self, threaded):
        color_calls = []

        def depth_step(i):
            if i == 10:
                raise KeyboardInterrupt

        def color_step(i):
            color_calls.append(i)
            time.sleep(0.01)

        with pytest.raises(KeyboardInterrupt):
            run_frame_loops(40, depth_step, color_step, threaded)
        assert len(color_calls) < 5

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupt_while_waiting_stops_and_joins_the_helper(self):
        color_calls = []

        def color_step(i):
            color_calls.append(i)
            if i == 3:      # the caller finished its loop long ago and waits
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.01)

        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_frame_loops(40, lambda i: None, color_step, threaded=True)
        assert threading.active_count() == threads
        assert color_calls == [0, 1, 2, 3]

    def test_error_order_holds_under_frequent_thread_switches(self):
        rng = np.random.default_rng(3)

        def failing_at(name, at):
            def step(i):
                if i == at:
                    raise RuntimeError(f"{name} {at}")
            return step

        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for depth_at, color_at in rng.integers(0, 30, (200, 2)):
                with pytest.raises(RuntimeError) as info:
                    run_frame_loops(30, failing_at("depth", depth_at),
                                    failing_at("color", color_at), threaded=True)
                want = f"depth {depth_at}" if depth_at <= color_at else f"color {color_at}"
                assert str(info.value) == want
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads


class TestHelperThreadRule:
    @pytest.mark.parametrize("cpus, px, want", [
        (2, _THREAD_MIN_PX - 1, False), (2, _THREAD_MIN_PX, True), (64, 640 * 480, True),
        (1, _THREAD_MIN_PX, False), (1, 640 * 480, False)])
    def test_needs_a_large_frame_and_a_second_cpu(self, monkeypatch, cpus, px, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert use_helper_thread(px) is want

    @pytest.mark.parametrize("count, want", [(None, False), (1, False), (2, True)])
    def test_cpu_count_stands_in_without_an_affinity_call(self, monkeypatch, count, want):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert use_helper_thread(_THREAD_MIN_PX) is want


class TestFrameIndex:
    @pytest.mark.parametrize("i, want", [(0, 0), (2, 2), (-1, 2), (-3, 0), (np.int64(1), 1),
                                         (True, 1)])
    def test_wraps_negatives_and_accepts_integer_types(self, i, want):
        got = frame_index(i, 3)
        assert got == want and type(got) is int

    @pytest.mark.parametrize("i, count", [(3, 3), (-4, 3), (0, 0), (-1, 0)])
    def test_out_of_range(self, i, count):
        with pytest.raises(IndexError, match=f"frame index out of range: {i}$"):
            frame_index(i, count)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            frame_index(1.0, 3)


class TestCropRoi:
    def test_full_frame_roi_is_identity(self):
        frame = np.arange(48, dtype=np.uint16).reshape(6, 8)
        out = crop_roi(frame, (0, 0, 8, 6))
        assert np.array_equal(out, frame)

    def test_standard_roi_indexing(self):
        frame = np.zeros((480, 640), np.uint16)
        frame[65, 160] = 1234
        out = crop_roi(frame, (160, 65, 320, 350))
        assert out.shape == (350, 320)
        assert out[0, 0] == 1234

    def test_out_of_bounds_roi(self):
        frame = np.zeros((480, 640), np.uint16)
        with pytest.raises(RoiBoundsError, match="roi out of range"):
            crop_roi(frame, (630, 470, 320, 350))

    def test_source_frame_unchanged(self):
        frame = np.ones((6, 8), np.uint16)
        out = crop_roi(frame, (1, 1, 3, 3))
        with pytest.raises(ValueError, match="read-only"):
            out[:] = 9
        assert frame.flags.writeable
        assert frame.min() == frame.max() == 1
