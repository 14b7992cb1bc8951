"""Selection DSL + validators (grammar of /root/reference/hashing_config.py:531-585)."""

import pytest

from image_report_ray.config import (
    EngineConfig,
    SelectionError,
    float_0_1,
    get_selected,
)

NAMES = {"sha256", "md5", "simhash", "minhash", "tokens", "langid"}
CATS = {
    "digest": {"sha256", "md5"},
    "perceptual": {"simhash", "minhash"},
    "textual": {"tokens", "langid"},
}


def test_all():
    assert get_selected("all", NAMES, CATS) == NAMES


def test_none_alone_is_empty():
    assert get_selected("none", NAMES, CATS) == set()


def test_category_expansion():
    assert get_selected("digest", NAMES, CATS) == {"sha256", "md5"}


def test_exclusion_only_means_all_minus():
    assert get_selected("-perceptual", NAMES, CATS) == NAMES - {"simhash", "minhash"}


def test_mixed_include_exclude():
    assert get_selected("all,-perceptual,simhash", NAMES, CATS) == (
        NAMES - {"minhash"}
    )


def test_case_insensitive_and_whitespace():
    assert get_selected(" Digest , SIMHASH ", NAMES, CATS) == {"sha256", "md5", "simhash"}


def test_unknown_token_raises():
    with pytest.raises(SelectionError):
        get_selected("nope", NAMES, CATS)


def test_float_0_1():
    assert float_0_1("0.5") == 0.5
    with pytest.raises(ValueError):
        float_0_1("1.5")
    with pytest.raises(ValueError):
        float_0_1("x")


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(num_partitions=0)
    cfg = EngineConfig()
    assert cfg.num_partitions > 0


def test_compact_every_follows_merge_mode():
    # cow: every epoch rewrites the full state
    assert EngineConfig().compact_every == 1
    assert EngineConfig(compact_every=1).compact_every == 1
    with pytest.raises(ValueError, match="merge_mode='mor'"):
        EngineConfig(compact_every=4)
    # mor: an explicit chain length is kept, else 8
    assert EngineConfig(merge_mode="mor", compact_every=4).compact_every == 4
    assert EngineConfig(merge_mode="mor").compact_every == 8
