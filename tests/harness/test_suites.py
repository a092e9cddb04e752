"""Suite input checks live in the library, so every caller gets them."""

import pytest

from repro.common.errors import ConfigError
from repro.grid.suites import run_chaos, run_elastic


def test_run_chaos_unknown_preset_suggests_closest():
    with pytest.raises(ConfigError, match=r"did you mean 'leader-crash'\?"):
        run_chaos(fault="leader-crsh")


def test_run_chaos_unknown_strategy_suggests_closest():
    with pytest.raises(
        ConfigError, match=r"unknown recovery strategy .*'async-snapshot'\?"
    ):
        run_chaos(strategy="asyn-snapshot")


def test_run_elastic_unknown_strategy_suggests_closest():
    with pytest.raises(
        ConfigError, match=r"unknown migration strategy .*'fluid'\?"
    ):
        run_elastic(strategy="fluda")
