"""Unit tests for ensemble configuration validation."""

import pytest

from repro.common.errors import ConfigError
from repro.zab import MajorityQuorum, ZabConfig


def test_defaults():
    config = ZabConfig([1, 2, 3])
    assert config.voters == (1, 2, 3)
    assert config.observers == ()
    assert isinstance(config.quorum, MajorityQuorum)
    assert config.all_peers == (1, 2, 3)


def test_timeouts_derive_from_ticks():
    config = ZabConfig([1, 2, 3], tick=0.1, init_limit=5, sync_limit=3)
    assert config.handshake_timeout() == pytest.approx(0.5)
    assert config.staleness_timeout() == pytest.approx(0.3)


def test_observers_disjoint_from_voters():
    config = ZabConfig([1, 2, 3], observers=[4, 5])
    assert config.all_peers == (1, 2, 3, 4, 5)
    with pytest.raises(ConfigError):
        ZabConfig([1, 2, 3], observers=[3])


def test_validation_errors():
    with pytest.raises(ConfigError):
        ZabConfig([])
    with pytest.raises(ConfigError):
        ZabConfig([1], tick=0)
    with pytest.raises(ConfigError):
        ZabConfig([1], init_limit=0)
    with pytest.raises(ConfigError):
        ZabConfig([1], max_outstanding=0)


def test_custom_quorum_must_match_voters():
    quorum = MajorityQuorum([1, 2, 3])
    config = ZabConfig([1, 2, 3], quorum=quorum)
    assert config.quorum is quorum
    with pytest.raises(ConfigError):
        ZabConfig([1, 2, 3, 4], quorum=quorum)
