"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  The family scan (the expensive part) is run once per
session and reused by the two criteria that consume it."""

import pytest

from nhlgi import acceptance
from nhlgi.scan import DEFAULT_THETA_GRID, maximize_family


@pytest.fixture(scope="module")
def family():
    return maximize_family(DEFAULT_THETA_GRID, acceptance.DEFAULT_SCAN_BUDGET, seed=0)


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    line = f"criterion {result.number:2d}: {status}  {result.name}  [{result.details}]"
    print(line)
    assert result.passed, line


class TestAcceptance:
    def test_criterion_01_equal_spacing_closed_form(self):
        _report(acceptance.criterion_1())

    def test_criterion_02_third_correlator_surface(self):
        _report(acceptance.criterion_2())

    def test_criterion_03_scan_endpoints(self, family):
        _report(acceptance.criterion_3(family))

    def test_criterion_04_embedded_protocol_value(self):
        _report(acceptance.criterion_4())

    def test_criterion_05_postselection_identities(self):
        _report(acceptance.criterion_5())

    def test_criterion_06_trajectory_distance_speed(self):
        _report(acceptance.criterion_6())

    def test_criterion_07_long_horizon_stability(self):
        _report(acceptance.criterion_7())

    def test_criterion_08_noise_degradation(self):
        _report(acceptance.criterion_8())

    def test_criterion_09_scan_ranking_consistency(self, family):
        _report(acceptance.criterion_9(family))

    def test_criterion_10_trace_distance_identity(self):
        _report(acceptance.criterion_10())
