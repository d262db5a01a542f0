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


def test_round_trip_keeps_int_and_float_keys(tmp_path):
    config = Config(gmm_components=4, gmm_match_k=2.25, burn_in_seconds=7,
                    class_min_absent_epochs=12, workers=2)
    write_config(config, tmp_path / "cfg.txt")
    text = (tmp_path / "cfg.txt").read_text()
    assert "gmm_components=4\n" in text and "workers=2\n" in text
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
