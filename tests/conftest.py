from pathlib import Path

import pytest

from gridline.factors import build_factors
from gridline.network import load_hourly_series, load_network
from gridline.ratings import RatingParams
from gridline.weather import load_weather

_ACCEPTANCE_RESULTS = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not item.module.__name__.endswith("test_acceptance"):
        return
    labels = getattr(item.module, "CRITERIA", {})
    label = labels.get(item.function.__name__)
    if label:
        _ACCEPTANCE_RESULTS.append((label, report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label, passed in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"[{'PASS' if passed else 'FAIL'}] {label}")

CASES = Path(__file__).parent / "cases"
CASE_NAMES = ("case3", "case5", "case30")


@pytest.fixture(scope="session")
def cases_dir():
    return CASES


@pytest.fixture(scope="session")
def networks():
    return {name: load_network(CASES / name) for name in CASE_NAMES}


@pytest.fixture(scope="session")
def serieses(networks):
    return {name: load_hourly_series(CASES / name, networks[name])
            for name in CASE_NAMES}


@pytest.fixture(scope="session")
def weathers():
    return {name: load_weather(CASES / f"weather_{name}.csv") for name in CASE_NAMES}


@pytest.fixture(scope="session")
def factors_map(networks):
    return {name: build_factors(net) for name, net in networks.items()}


@pytest.fixture(scope="session")
def params():
    return RatingParams()
