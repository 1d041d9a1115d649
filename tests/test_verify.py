"""The identity suite passes as shipped and catches injected mutations."""

from fractions import Fraction

from causalurn import likelihood, moments, verify
from causalurn.tables import ObservedTable
from causalurn.verify import run_verification, science_tables_up_to


def test_science_table_family_count():
    # Compositions of n into four cells, n = 2..6.
    assert sum(1 for _ in science_tables_up_to(6)) == 10 + 20 + 35 + 56 + 84


def test_suite_passes_as_shipped():
    report = run_verification(max_n=5, mc_draws=5000)
    assert report.ok
    assert all("PASS" in line for line in report.lines())


def test_detects_variance_off_by_one(monkeypatch):
    # A wrong harmed-count coefficient in the variance must trip the suite.
    original = moments.population_tau_variance

    def mutated(science, n_treated):
        return original(science, n_treated) + Fraction(
            2 * science.n01, science.total ** 2
        )

    monkeypatch.setattr(moments, "population_tau_variance", mutated)
    report = run_verification(max_n=4, mc_draws=5000)
    broken = {r.name: r for r in report.results}
    assert not broken["rate-difference mean and variance"].ok
    assert not report.ok


def test_detects_wrong_prediction_mse(monkeypatch):
    original = moments.population_attributable_mse

    def mutated(science, n_treated):
        return original(science, n_treated) * Fraction(99, 100)

    monkeypatch.setattr(moments, "population_attributable_mse", mutated)
    report = run_verification(max_n=4, mc_draws=5000)
    broken = {r.name: r for r in report.results}
    assert not broken["attributable prediction moments"].ok


def test_report_lines_include_failures(monkeypatch):
    original = moments.population_tau_variance

    def mutated(science, n_treated):
        return original(science, n_treated) + 1

    monkeypatch.setattr(moments, "population_tau_variance", mutated)
    report = run_verification(max_n=3, mc_draws=5000)
    lines = report.lines()
    assert any(line.startswith("FAIL") for line in lines)
    assert any("failure [" in line for line in lines)


def test_detects_likelihood_off_by_one_on_one_cell(monkeypatch):
    # Science (1, 1, 0, 1) with one treated unit reaches this table with
    # probability 1/3; only this (table, point) pair is made wrong.
    target = (ObservedTable(1, 0, 0, 2), 1, 1, 0)
    original = likelihood._numerator

    def mutated(obs, n11, n10, n01):
        return original(obs, n11, n10, n01) + ((obs, n11, n10, n01) == target)

    monkeypatch.setattr(likelihood, "_numerator", mutated)
    report = run_verification(max_n=3, mc_draws=5000)
    broken = {r.name: r for r in report.results}
    lik = broken["likelihood equals assignment probability"]
    assert (lik.failed, lik.ok) == (1, False)
    assert broken["support matches positive probability"].ok
    assert (
        "  failure [likelihood equals assignment probability]: "
        "science=ScienceTable(n11=1, n10=1, n01=0, n00=1) N1=1 "
        "obs=ObservedTable(n11=1, n10=0, n01=0, n00=2): "
        "likelihood != probability 1/3"
    ) in report.lines()


def test_detects_support_that_admits_everything(monkeypatch):
    monkeypatch.setattr(verify, "in_general_support", lambda obs, point: True)
    report = run_verification(max_n=3, mc_draws=5000)
    broken = {r.name: r for r in report.results}
    support = broken["support matches positive probability"]
    assert not support.ok
    assert support.failed > 0
    assert broken["likelihood equals assignment probability"].ok
    failures = [
        line for line in report.lines()
        if line.startswith("  failure [support matches positive probability]: ")
    ]
    assert len(failures) == min(support.failed, 5)
    assert all("unreachable table inside the support" in line for line in failures)
