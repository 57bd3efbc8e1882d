import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[nodeid]
        label = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{label}  {nodeid.split('::')[-1]}")


@pytest.fixture
def c4():
    from macomplex import SimplicialComplex

    return SimplicialComplex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


@pytest.fixture
def c5():
    from macomplex import cycle

    return cycle(5)
