"""The key=value codec: round trips, key order, and the errors of bad text."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepmon.config import Config
from sleepmon.kvtext import format_pairs, from_pairs, parse_pairs, to_pairs
from sleepmon.session import SessionManifest
from sleepmon.synth import Scenario, TimelineItem

# Floats whose text needs all 17 digits, an exponent, or is subnormal.
AWKWARD_UNIT = [0.1 + 0.2, 1 / 3, 0.7, 1e-300, 5e-324, 3 * 2.0 ** -1074]
AWKWARD = AWKWARD_UNIT + [1e3 / 3, 2.0 ** 53 + 2, 1.7976931348623157e308]


def _open_unit():
    return (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            | st.sampled_from(AWKWARD_UNIT))


def _positive():
    return st.floats(min_value=5e-324, max_value=1e300) | st.sampled_from(AWKWARD)


@st.composite
def configs(draw):
    tiny, limb, full = sorted(draw(st.lists(_open_unit(), min_size=3, max_size=3, unique=True)))
    floor = draw(_positive())
    return Config(
        gmm_components=draw(st.integers(1, 2 ** 31)), gmm_match_k=draw(_positive()),
        gmm_learning_rate=draw(_open_unit()),
        gmm_background_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        gmm_depth_initial_variance=draw(st.floats(floor, 1.7976931348623157e308)),
        gmm_luma_initial_variance=draw(st.floats(floor, 1.7976931348623157e308)),
        gmm_variance_floor=floor, gmm_replacement_weight=draw(_open_unit()),
        depth_threshold=draw(_open_unit()), color_threshold=draw(_open_unit()),
        audio_threshold=draw(_open_unit()), burn_in_seconds=draw(st.integers(0, 10 ** 6)),
        class_tiny=tiny, class_limb=limb, class_full=full,
        class_exit=draw(st.floats(full, 1.0)),
        class_absent=draw(st.floats(0.0, tiny, exclude_max=True)),
        class_min_absent_epochs=draw(st.integers(1, 10 ** 6)))


@st.composite
def manifests(draw):
    size = st.integers(1, 4096)
    dw, dh, cw, ch = draw(size), draw(size), draw(size), draw(size)
    w = draw(st.integers(1, min(dw, cw)))
    h = draw(st.integers(1, min(dh, ch)))
    x = draw(st.integers(0, min(dw, cw) - w))
    y = draw(st.integers(0, min(dh, ch) - h))
    # Values may hold '=' and '#': only the first '=' splits, and only a
    # leading '#' starts a comment.
    name = st.text("abcXYZ019._-=#", min_size=1, max_size=12)
    video_rate = draw(st.integers(1, 1000))
    return SessionManifest(
        depth_width=dw, depth_height=dh, color_width=cw, color_height=ch,
        video_rate=video_rate, audio_rate=draw(st.integers(video_rate, 192000)),
        frame_count=draw(st.integers(0, 2 ** 40)), roi=(x, y, w, h),
        depth_file=draw(name), color_file=draw(name), audio_file=draw(name))


scenarios = st.builds(
    Scenario, duration=st.integers(1, 10 ** 6), seed=st.integers(0, 2 ** 64 - 1),
    depth_noise=st.floats(0.0, 1e308) | st.sampled_from(AWKWARD),
    luma_noise=st.floats(0.0, 1e308) | st.sampled_from(AWKWARD),
    audio_noise=st.floats(0.0, 1e308) | st.sampled_from(AWKWARD),
    frame_width=st.integers(16, 4096), frame_height=st.integers(16, 4096),
    roi=st.tuples(*[st.integers(0, 4096)] * 4), video_rate=st.integers(1, 1000),
    audio_rate=st.integers(1, 192000))


def _through_text(obj, what, required):
    pairs = parse_pairs(format_pairs(to_pairs(obj)))
    return from_pairs(type(obj), pairs, what, required=required)


@settings(max_examples=200, deadline=None)
@given(configs())
def test_config_round_trip(config):
    assert _through_text(config, "config", False) == config


@settings(max_examples=200, deadline=None)
@given(manifests())
def test_manifest_round_trip(manifest):
    assert _through_text(manifest, "manifest", True) == manifest


@settings(max_examples=200, deadline=None)
@given(scenarios)
def test_scenario_round_trip(scenario):
    assert _through_text(scenario, "scenario", True) == scenario


def test_keys_follow_field_order_with_roi_as_four_keys():
    keys = [k for k, _ in to_pairs(SessionManifest())]
    assert keys == ["depth_width", "depth_height", "color_width", "color_height", "video_rate",
                    "audio_rate", "frame_count", "roi_x", "roi_y", "roi_w", "roi_h",
                    "depth_file", "color_file", "audio_file"]


def test_fields_of_other_types_are_not_keys():
    sc = Scenario(duration=30, seed=1, timeline=(TimelineItem(12, 14, "talk", 0.5),))
    pairs = to_pairs(sc)
    assert "timeline" not in dict(pairs)
    assert from_pairs(Scenario, pairs, "scenario", required=True) == replace(sc, timeline=())


def test_floats_are_written_with_repr_and_ints_with_str():
    pairs = dict(to_pairs(Config(gmm_learning_rate=0.1 + 0.2, depth_threshold=1e-300)))
    assert pairs["gmm_learning_rate"] == "0.30000000000000004"
    assert pairs["depth_threshold"] == "1e-300"
    assert pairs["gmm_components"] == "3"
    assert dict(to_pairs(Scenario(duration=5, seed=2 ** 64 - 1, depth_noise=0)))["depth_noise"] \
        == "0.0"


def test_missing_keys_keep_defaults_unless_required():
    assert from_pairs(Config, [("burn_in_seconds", "12")], "config", required=False) \
        == Config(burn_in_seconds=12)
    with pytest.raises(ValueError, match="config missing keys"):
        from_pairs(Config, [("burn_in_seconds", "12")], "config", required=True)


@pytest.mark.parametrize("pairs, message", [
    ([("mystery", "1")], "unknown config key 'mystery'"),
    ([("burn_in_seconds", "1"), ("burn_in_seconds", "2")],
     "duplicate config key 'burn_in_seconds'"),
    ([("class_min_absent_epochs", "two")], "bad config value for class_min_absent_epochs"),
    ([("burn_in_seconds", "2.5")], "bad config value for burn_in_seconds"),
    ([("gmm_match_k", "nan")], r"invalid config \(match_k must be finite"),
    ([("class_min_absent_epochs", "0")], r"invalid config \(min_absent_epochs must be >= 1\)"),
    ([("workers", "1")], "unknown config key 'workers'"),
])
def test_bad_pairs_rejected(pairs, message):
    with pytest.raises(ValueError, match=message):
        from_pairs(Config, pairs, "config", required=False)
