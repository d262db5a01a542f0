"""Flat key=value detector configuration: parsing, range checks, round trip, README table."""

from dataclasses import fields
from pathlib import Path

import pytest

from sleepmon.config import Config, read_config, write_config

GMM_FLOAT_KEYS = ("gmm_match_k", "gmm_variance_floor", "gmm_depth_initial_variance",
                  "gmm_luma_initial_variance")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", GMM_FLOAT_KEYS)
def test_non_finite_gmm_value_rejected(tmp_path, key, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key}={value}\n")
    with pytest.raises(ValueError, match="finite"):
        read_config(path)


@pytest.mark.parametrize("changes, message", [
    ({"gmm_components": 0}, "components must be >= 1"),
    ({"gmm_learning_rate": 1.0}, "learning rate out of range"),
    ({"gmm_background_fraction": 0.0}, "background fraction out of range"),
    ({"gmm_match_k": 0.0}, "match_k must be finite and positive"),
    ({"gmm_variance_floor": -1.0}, "variance floor must be finite and positive"),
    ({"gmm_depth_initial_variance": 3.0}, "initial variance must be finite and >= variance floor"),
    ({"gmm_luma_initial_variance": 3.0}, "initial variance must be finite and >= variance floor"),
    ({"gmm_variance_floor": 1000.0}, "initial variance must be finite and >= variance floor"),
    ({"gmm_replacement_weight": 0.0}, "replacement weight out of range"),
    ({"class_min_absent_epochs": 0}, "min_absent_epochs must be >= 1"),
])
def test_out_of_range_value_rejected(changes, message):
    with pytest.raises(ValueError, match=message):
        Config(**changes)


def test_class_defaults_strictly_ordered():
    c = Config()
    assert 0 < c.class_tiny < c.class_limb < c.class_full <= c.class_exit <= 1
    assert c.class_absent < c.class_tiny


def test_class_bad_order_rejected():
    with pytest.raises(ValueError, match="class thresholds must satisfy"):
        Config(class_tiny=0.05, class_limb=0.02)
    with pytest.raises(ValueError, match="absent ceiling must satisfy"):
        Config(class_absent=0.01, class_tiny=0.005)


def test_round_trip_keeps_int_and_float_keys(tmp_path):
    config = Config(gmm_components=4, gmm_match_k=2.25, burn_in_seconds=7,
                    class_min_absent_epochs=12)
    write_config(config, tmp_path / "cfg.txt")
    text = (tmp_path / "cfg.txt").read_text()
    assert "gmm_components=4\n" in text and "class_min_absent_epochs=12\n" in text
    assert "gmm_match_k=2.25\n" in text and "depth_threshold=0.02\n" in text
    back = read_config(tmp_path / "cfg.txt")
    assert back == config
    assert type(back.gmm_components) is int and type(back.gmm_match_k) is float


def test_int_key_rejects_a_fraction(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("burn_in_seconds=2.5\n")
    with pytest.raises(ValueError):
        read_config(path)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_config_table():
    """(key, default) rows of README's "Configuration keys" table, in order."""
    section = README.read_text(encoding="utf-8").split("## Configuration keys", 1)[1]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0] in ("key", "---"):
            continue
        keys = [k.strip("` ") for k in cells[0].split(" / ")]
        defaults = cells[1].split(" / ")
        assert len(keys) == len(defaults), line
        rows += zip(keys, defaults)
    return rows


def test_readme_config_table_matches_config():
    rows = _readme_config_table()
    config = Config()
    assert [key for key, _ in rows] == [f.name for f in fields(Config)]
    for key, default in rows:
        assert float(default) == getattr(config, key), key
