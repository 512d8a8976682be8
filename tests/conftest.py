import numpy as np
import pytest

import pulsefront.fronts as fr
import pulsefront.profiles as pr
import pulsefront.stability as st

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collect one pass/fail line per criterion for the terminal summary."""

    def _report(number: int, passed: bool, detail: str):
        line = f"ACCEPTANCE {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
        print(line)
        _ACCEPTANCE_LINES.append((number, line))

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def unit_coeff():
    return pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))


@pytest.fixture(scope="session")
def cos_coeff():
    return pr.CoefficientProfile.from_curve(pr.HarmonicCurve(2.0, 1.0))


@pytest.fixture(scope="session")
def cubic03():
    return pr.make_cubic(0.3)


@pytest.fixture(scope="session")
def homog_inst(unit_coeff, cubic03):
    """Reference instance: a = 1, cubic with level 0.3, period 1."""
    return pr.ProblemInstance(coeff=unit_coeff, reaction=cubic03, L=1.0)


@pytest.fixture(scope="session")
def homog_front(homog_inst):
    """Reference pulsating front, shared by the acceptance criteria."""
    return fr.compute_pulsating_front(homog_inst, fr.FrontRunConfig(),
                                      fr.Budget(300.0))


@pytest.fixture(scope="session")
def homog_spectrum(homog_inst, homog_front):
    """The linearized period map's spectrum on the reference front, at the
    node budget the benchmark uses."""
    return st.poincare_spectrum(homog_inst, homog_front, n_nodes=400)


@pytest.fixture(scope="session")
def quench_records():
    """The oscillating-diffusivity family over its amplitude grid (criterion 12);
    the slowest front, lambda = 4, also tests the stopping rule."""
    cfg = fr.FrontRunConfig(tail_floor=1e-4)
    out = []
    for lam in (0.0, 1.0, 2.0, 3.0, 4.0):
        inst = pr.make_xin_example(0.2, lam, 0.3)
        out.append((lam, fr.classify_quenching(inst, cfg, fr.Budget(900.0))))
    return out
