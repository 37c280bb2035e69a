from __future__ import annotations

import os
from pathlib import Path

import pytest

import ptcsolver
from ptcsolver import PtcContext, RoundingMode, Scenario, tax_year_params
from ptcsolver.money import Money


@pytest.fixture(scope="session")
def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this ``ptcsolver``."""
    src = str(Path(ptcsolver.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def dollars(amount) -> Money:
    return Money.from_dollars(amount)


@pytest.fixture(scope="session")
def params_2018():
    return tax_year_params("2018")


@pytest.fixture(scope="session")
def params_2019():
    return tax_year_params("2019")


@pytest.fixture(scope="session")
def brooklyn() -> Scenario:
    """One adult and one dependent child in Kings County, 2018: the household
    whose return breaks the iterative method."""
    return Scenario(
        poverty_line=dollars(16240),
        benchmark_premium=dollars(10390),
        purchased_premium=dollars(10390),
        income=dollars(71150),
        tax_year="2018",
    )


@pytest.fixture
def brooklyn_dollar_ctx(brooklyn, params_2018) -> PtcContext:
    return PtcContext(brooklyn, params_2018, RoundingMode.DOLLAR)


@pytest.fixture
def brooklyn_cent_ctx(brooklyn, params_2018) -> PtcContext:
    return PtcContext(brooklyn, params_2018, RoundingMode.CENT)
