"""Session format: manifests, raw streams, round trips, and error paths."""

import gc
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepmon.errors import (CorruptSessionError, InvalidDepthError,
                             ManifestMismatchError, RoiBoundsError)
from sleepmon.session import (_THREAD_MIN_PX, DEPTH_MAX, MANIFEST_NAME, WINDOW_BYTES,
                              Session, SessionManifest, crop_roi, load_manifest,
                              load_session, write_session)

from conftest import build_session, sessions_equal


class GeneratedFrames:
    """Frame store that builds frame ``i`` from ``i`` and logs each read.

    ``log`` holds one ``(thread ident, index)`` pair per read, in read order.
    """

    def __init__(self, count, shape, dtype):
        self.count, self.shape, self.dtype = count, shape, np.dtype(dtype)
        self.log = []

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        self.log.append((threading.get_ident(), i))
        return self.frame(i)

    def frame(self, i):
        top = 2048 if self.dtype == np.uint16 else 256
        return ((np.arange(np.prod(self.shape)) + 7 * i) % top).astype(self.dtype).reshape(
            self.shape)


class ScriptedFrames:
    """Frame store over ``frames`` whose read of frame ``at`` raises ``exc``.

    Each other read first sleeps ``delay`` seconds; ``read`` lists the indices
    read, in order.
    """

    def __init__(self, frames, at=None, exc=None, delay=0.0):
        self.frames, self.at, self.exc, self.delay = frames, at, exc, delay
        self.read = []

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, i):
        self.read.append(i)
        if i == self.at:
            raise self.exc
        time.sleep(self.delay)
        return self.frames[i]


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

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionManifest(video_rate=0)
        with pytest.raises(ValueError):
            SessionManifest(audio_rate=-1)

    def test_min_audio_samples_uses_floor(self):
        man = SessionManifest(frame_count=30)
        assert man.min_audio_samples == 30 * 16000 // 30


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
        with pytest.raises(InvalidDepthError, match="invalid depth sample"):
            load_session(tmp_path)

    def test_short_audio_is_manifest_mismatch(self, small_session, tmp_path):
        write_session(small_session, tmp_path)
        raw = (tmp_path / "audio.raw").read_bytes()
        (tmp_path / "audio.raw").write_bytes(raw[:-4])
        with pytest.raises(ManifestMismatchError, match="manifest mismatch"):
            load_session(tmp_path)

    @pytest.mark.parametrize("audio_rate", [1, 29])
    def test_audio_rate_below_video_rate_is_manifest_mismatch(self, small_session, tmp_path,
                                                              audio_rate):
        write_session(small_session, tmp_path)
        path = tmp_path / MANIFEST_NAME
        text = path.read_text()
        path.write_text(text.replace(f"audio_rate={small_session.manifest.audio_rate}\n",
                                     f"audio_rate={audio_rate}\n"))
        assert load_manifest(tmp_path).audio_rate == audio_rate
        (tmp_path / "depth.raw").unlink()  # the rates are checked before any stream
        with pytest.raises(ManifestMismatchError,
                           match=f"audio_rate {audio_rate} is below video_rate 30"):
            load_session(tmp_path)

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

    def test_out_of_range_depth_in_last_frame_rejected_at_load(self, tmp_path):
        s = several_windows_session()
        write_session(s, tmp_path)
        with open(tmp_path / "depth.raw", "r+b") as fh:
            fh.seek(-2, os.SEEK_END)
            fh.write((2048).to_bytes(2, "little"))
        with pytest.raises(InvalidDepthError,
                           match=f"invalid depth sample in frame {len(s.depth) - 1}"):
            load_session(tmp_path)

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


class TestWriteValidation:
    """Write checks with frames below ``_THREAD_MIN_PX``: both streams on the caller."""

    SIZE = (8, 6)

    def session(self, frame_count=3):
        return build_session(frame_count=frame_count, width=self.SIZE[0], height=self.SIZE[1])

    def test_depth_over_range_rejected_before_io(self, tmp_path):
        s = self.session()
        s.depth[1, 2, 3] = 4000
        out = tmp_path / "bad"
        with pytest.raises(InvalidDepthError, match="invalid depth sample"):
            write_session(s, out)
        assert not (out / "depth.raw").exists()

    def test_frame_count_mismatch_rejected(self, tmp_path):
        s = self.session(frame_count=3)
        s.depth = s.depth[:2]
        with pytest.raises(ManifestMismatchError, match="manifest mismatch"):
            write_session(s, tmp_path / "bad")

    @pytest.mark.parametrize("defect", ["frame_count", "audio_dtype", "audio_length"])
    def test_cheap_checks_run_before_any_file_is_created(self, tmp_path, defect):
        s = self.session(frame_count=3)
        if defect == "frame_count":
            s.color = s.color[:2]
        elif defect == "audio_dtype":
            s.audio = s.audio.astype(np.int32)
        else:
            s.audio = s.audio[:-1]
        with pytest.raises(ManifestMismatchError, match="manifest mismatch"):
            write_session(s, tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("defect, error", [("depth_range", InvalidDepthError),
                                               ("color_shape", ManifestMismatchError)])
    def test_invalid_last_frame_leaves_no_file(self, tmp_path, defect, error):
        s = self.session(frame_count=3)
        if defect == "depth_range":
            s.depth[-1, 0, 0] = DEPTH_MAX + 1
        else:
            s.color = list(s.color)
            s.color[-1] = s.color[-1][:, :-1]
        out = tmp_path / "bad"
        with pytest.raises(error, match="frame 2"):
            write_session(s, out)
        assert not list(out.glob("*"))

    def test_earlier_color_error_beats_later_depth_error(self, tmp_path):
        s = self.session(frame_count=6)
        s.depth[4, 0, 0] = DEPTH_MAX + 1
        color = list(s.color)
        color[2] = color[2][:, :-1]
        # Color lags, so on two threads the depth error is usually met first.
        s.color = ScriptedFrames(color, delay=0.02)
        with pytest.raises(ManifestMismatchError, match="color frame 2 "):
            write_session(s, tmp_path / "bad")

    def test_depth_error_beats_color_error_in_the_same_frame(self, tmp_path):
        s = self.session(frame_count=6)
        s.depth[2, 0, 0] = DEPTH_MAX + 1
        # Depth lags, so on two threads the color error is usually met first.
        s.depth = ScriptedFrames(s.depth, delay=0.02)
        s.color = list(s.color)
        s.color[2] = s.color[2][:, :-1]
        with pytest.raises(InvalidDepthError, match="frame 2:"):
            write_session(s, tmp_path / "bad")

    def test_a_failure_stops_the_other_stream(self, tmp_path):
        s = self.session(frame_count=40)
        s.depth[1, 0, 0] = DEPTH_MAX + 1
        s.color = ScriptedFrames(s.color, delay=0.01)
        with pytest.raises(InvalidDepthError, match="frame 1:"):
            write_session(s, tmp_path / "bad")
        assert s.color.read[:2] == [0, 1] and len(s.color.read) < 10

    @pytest.mark.parametrize("stream", ["depth", "color"])
    def test_interrupt_propagates_and_leaves_nothing(self, tmp_path, stream):
        s = self.session(frame_count=6)
        setattr(s, stream, ScriptedFrames(getattr(s, stream), at=3, exc=KeyboardInterrupt))
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
