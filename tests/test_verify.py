"""The identity suite passes as shipped and catches injected mutations."""

import inspect
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from causalurn import (
    ParameterPoint,
    a_posterior,
    likelihood,
    moments,
    oracle,
    tables,
)
from causalurn.cli import EXIT_INFEASIBLE, EXIT_VERIFY, main
from causalurn.tables import ObservedTable, ScienceTable
from causalurn.verify import run_verification, science_tables_up_to
import test_oracle
import test_properties


def test_science_table_family_count():
    # Compositions of n into four cells, n = 2..6.
    assert sum(1 for _ in science_tables_up_to(6)) == 10 + 20 + 35 + 56 + 84


@pytest.mark.parametrize("max_n", [4.5, True, "8", None], ids=["4.5", "True", "str", "None"])
def test_science_tables_take_an_integer_max_n(max_n):
    # The rule holds at the call, before any table is read.
    with pytest.raises(TypeError) as raised:
        science_tables_up_to(max_n)
    assert str(raised.value) == f"max_n must be an integer, got {max_n!r}"


@pytest.mark.parametrize("max_n", [1, 0, -3])
def test_no_science_table_has_fewer_than_2_units(max_n):
    assert list(science_tables_up_to(max_n)) == []


@pytest.mark.parametrize("options,message", [
    ({"seed": -1}, "seed must be nonnegative, got -1"),
    ({"mc_draws": 0}, "draws must be positive, got 0"),
], ids=["seed", "draws"])
def test_sampling_options_are_checked_before_any_enumeration(monkeypatch, options, message):
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started before the options were checked")

    monkeypatch.setattr(oracle, "_design_laws", no_work)
    with pytest.raises(ValueError) as raised:
        run_verification(6, **options)
    assert str(raised.value) == message


@pytest.mark.parametrize("max_n,error,message", [
    (1, ValueError, "max_n must be at least 2, got 1: no design has fewer than 2 units"),
    (0, ValueError, "max_n must be at least 2, got 0: no design has fewer than 2 units"),
    (-1, ValueError, "max_n must be at least 2, got -1: no design has fewer than 2 units"),
    (True, TypeError, "max_n must be an integer, got True"),
    (8.5, TypeError, "max_n must be an integer, got 8.5"),
    ("8", TypeError, "max_n must be an integer, got '8'"),
    (None, TypeError, "max_n must be an integer, got None"),
], ids=["1", "0", "-1", "True", "8.5", "str", "None"])
def test_max_n_is_checked_before_any_enumeration(monkeypatch, max_n, error, message):
    # No science table has fewer than 2 units, so a smaller max_n would check
    # nothing; the rule is the library's, met before any design is counted.
    def no_work(*args, **kwargs):
        raise AssertionError("a design was counted or walked before max_n was checked")

    monkeypatch.setattr(oracle, "_assignment_count", no_work)
    monkeypatch.setattr(oracle, "_design_laws", no_work)
    monkeypatch.setattr(likelihood, "_grid", no_work)
    with pytest.raises(error) as raised:
        run_verification(max_n)
    assert str(raised.value) == message


def test_suite_passes_as_shipped():
    report = run_verification(max_n=5, mc_draws=5000)
    assert report.ok
    assert all("PASS" in line for line in report.lines())


def test_detects_variance_off_by_one(monkeypatch):
    # A wrong harmed-count coefficient in the variance must trip the suite:
    # 2 n01 / N^2 added to moments._tau_variance, the integer kernel that
    # population_tau_variance wraps, over its denominator N^2 (N - 1) (N1 N0)^3.
    original = moments._tau_variance

    def mutated(total, n_treated, y1, y0, diff, n01):
        numerator, denominator = original(total, n_treated, y1, y0, diff, n01)
        return numerator + 2 * n01 * denominator // total ** 2, denominator

    monkeypatch.setattr(moments, "_tau_variance", mutated)
    report = run_verification(max_n=4, mc_draws=5000)
    broken = {r.name: r for r in report.results}
    assert not broken["rate-difference mean and variance"].ok
    assert not report.ok


def test_detects_a_harmed_count_term_short_of_one_scale_factor(monkeypatch, capsys):
    # The 2 n01 / N^2 term loses one factor of the N1 N0 scale that every
    # margin carries: moments._tau_variance, the one variance formula behind
    # the population variance verify checks and every plug-in, rebuilt from
    # its source with that one change. verify and the plug-in property test
    # both catch it.
    source = inspect.getsource(moments._tau_variance)
    right = "2 * n01 * total * scale * scale * scale"
    assert right in source
    namespace = dict(vars(moments))
    exec(source.replace(right, "2 * n01 * total * scale * scale"), namespace)
    monkeypatch.setattr(moments, "_tau_variance", namespace["_tau_variance"])
    code, lines = _verify_max_n_6(capsys)
    assert code == EXIT_VERIFY
    assert [line[:4] for line in lines[:7]] == ["FAIL"] + ["PASS"] * 6
    with pytest.raises(AssertionError):
        test_properties.test_plugins_are_the_fraction_formulas_at_estimated_margins()


def test_detects_wrong_prediction_mse(monkeypatch):
    # moments._prediction_mse, the integer kernel that
    # population_attributable_mse wraps, scaled by 99/100.
    original = moments._prediction_mse

    def mutated(total, n_treated, y0):
        numerator, denominator = original(total, n_treated, y0)
        return numerator * 99, denominator * 100

    monkeypatch.setattr(moments, "_prediction_mse", mutated)
    report = run_verification(max_n=4, mc_draws=5000)
    broken = {r.name: r for r in report.results}
    assert not broken["attributable prediction moments"].ok


def test_report_lines_include_failures(monkeypatch):
    # One added to the variance moments._tau_variance states.
    original = moments._tau_variance

    def mutated(*margins):
        numerator, denominator = original(*margins)
        return numerator + denominator, denominator

    monkeypatch.setattr(moments, "_tau_variance", mutated)
    report = run_verification(max_n=3, mc_draws=5000)
    lines = report.lines()
    assert any(line.startswith("FAIL") for line in lines)
    assert any("failure [" in line for line in lines)


def _wrap_grid(monkeypatch, rows):
    # Replaces likelihood._grid by ``rows(obs, n01, walked)``, each row
    # (n11, n10s, numerators), at each harmed count of its range, where
    # ``walked`` is the shipped walk at that count as {(n11, n10): numerator},
    # empty when the support is.
    original = likelihood._grid

    def mutated(obs, n01s):
        walked = {n01: {} for n01 in n01s}
        for n01, n11, n10s, ws in original(obs, n01s):
            walked[n01].update(((n11, n10), w) for n10, w in zip(n10s, ws))
        return ((n01, *row) for n01, grid in walked.items() for row in rows(obs, n01, grid))

    monkeypatch.setattr(likelihood, "_grid", mutated)


def test_detects_likelihood_off_by_one_on_one_cell(monkeypatch):
    # Science (1, 1, 0, 1) with one treated unit reaches this table with
    # probability 1/3; only this (table, point) pair is made wrong.
    target = (ObservedTable(1, 0, 0, 2), 0)

    def rows(obs, n01, walked):
        if (obs, n01) == target:
            walked[1, 1] += 1
        return [(n11, range(n10, n10 + 1), [w]) for (n11, n10), w in walked.items()]

    _wrap_grid(monkeypatch, rows)
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
    # Every (n11, n10) that fits the population is on the grid, with the
    # walked numerator where the support has one and 0 elsewhere.
    def rows(obs, n01, walked):
        room = obs.total - n01
        grid = [(n11, range(room - n11 + 1)) for n11 in range(room + 1)]
        return [(n11, n10s, [walked.get((n11, n10), 0) for n10 in n10s]) for n11, n10s in grid]

    _wrap_grid(monkeypatch, rows)
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


def _verify_max_n_6(capsys):
    code = main(["verify", "--max-n", "6", "--draws", "2000"])
    return code, capsys.readouterr().out.splitlines()


def test_detects_a_window_cut_short_in_the_walk(monkeypatch, capsys):
    # Each (s, x) run of the walk stops one n10 early: likelihood._add_run,
    # the kernel behind both the grid and the sweep, rebuilt from its source
    # with that one change.
    source = inspect.getsource(likelihood._add_run)
    assert "stop = m - c\n" in source
    namespace = dict(vars(likelihood))
    exec(source.replace("stop = m - c\n", "stop = m - c - 1\n"), namespace)
    monkeypatch.setattr(likelihood, "_add_run", namespace["_add_run"])
    code, lines = _verify_max_n_6(capsys)
    assert code == EXIT_VERIFY
    assert lines[3].startswith("FAIL  likelihood equals assignment probability:")


def test_detects_a_wrong_seed_in_the_walk(monkeypatch, capsys):
    # Every run's seed a_x(n01) = C(s - n01, x) C(n01, k) takes C(n01, k + 1):
    # likelihood._seed, the one seed behind the grid, the row sums and the
    # sensitivity sweep, rebuilt from its source with that one change. The
    # row sums reach it through the uniform A posterior, at a harmed count
    # above 0. A single point is the urn sum likelihood._numerator instead.
    source = inspect.getsource(likelihood._seed)
    right = "math.comb(n01, s - obs.n01 - x)"
    assert right in source
    obs, n01s = ObservedTable(2, 1, 1, 2), range(0, 4)
    swept = list(likelihood._columns(obs, n01s))
    rows, grid = a_posterior(obs, 1), list(likelihood._grid(obs, n01s))
    namespace = dict(vars(likelihood))
    exec(source.replace(right, "math.comb(n01, s - obs.n01 - x + 1)"), namespace)
    monkeypatch.setattr(likelihood, "_seed", namespace["_seed"])
    assert list(likelihood._columns(obs, n01s)) != swept
    assert a_posterior(obs, 1) != rows
    assert list(likelihood._grid(obs, n01s)) != grid
    code, lines = _verify_max_n_6(capsys)
    assert code == EXIT_VERIFY
    assert lines[3].startswith("FAIL  likelihood equals assignment probability:")


def test_detects_a_slot_one_bit_too_narrow(monkeypatch, capsys):
    # Each packed slot one bit narrower than C(N, N1) needs: likelihood._slots,
    # the one width statement behind the packing of the sensitivity sweep and
    # of verify's walk over every harmed count, rebuilt from its source with
    # that one change. A column above half of C(N, N1) carries into the slot
    # of the next harmed count.
    source = inspect.getsource(likelihood._slots)
    right = ".bit_length()"
    assert right in source
    obs, n01s = ObservedTable(2, 1, 1, 2), range(0, 4)
    swept = list(likelihood._columns(obs, n01s))
    namespace = dict(vars(likelihood))
    exec(source.replace(right, right + " - 1"), namespace)
    monkeypatch.setattr(likelihood, "_slots", namespace["_slots"])
    assert list(likelihood._columns(obs, n01s)) != swept
    code, lines = _verify_max_n_6(capsys)
    assert code == EXIT_VERIFY
    assert [line[:4] for line in lines[:7]] == ["PASS"] * 3 + ["FAIL"] + ["PASS"] * 3
    assert lines[3].startswith("FAIL  likelihood equals assignment probability:")


def test_detects_a_reach_one_count_short_in_the_sweep(monkeypatch, capsys):
    # Each run's reach stops one harmed count below min(hi, k + n01_obs):
    # likelihood._pack, the one statement of which counts a run reaches,
    # behind the sensitivity sweep and verify's walk over every harmed count,
    # rebuilt from its source with that one change.
    source = inspect.getsource(likelihood._pack)
    right = "k + obs.n01"
    assert right in source
    obs, n01s = ObservedTable(2, 1, 1, 2), range(0, 4)
    swept = list(likelihood._columns(obs, n01s))
    namespace = dict(vars(likelihood))
    exec(source.replace(right, right + " - 1"), namespace)
    monkeypatch.setattr(likelihood, "_pack", namespace["_pack"])
    assert list(likelihood._columns(obs, n01s)) != swept
    code, lines = _verify_max_n_6(capsys)
    assert code == EXIT_VERIFY
    assert [line[:4] for line in lines[:7]] == ["PASS"] * 3 + ["FAIL"] + ["PASS"] * 3
    assert lines[3].startswith("FAIL  likelihood equals assignment probability:")


def test_walks_each_observed_table_once_per_design(monkeypatch):
    # One likelihood._grid call per (N, N1, observed table), over every harmed
    # count 0..N: at N <= 5 the designs hold 85 observed tables, where a walk
    # per harmed count made 449 calls.
    calls, original = [], likelihood._grid

    def counted(obs, n01s):
        calls.append((obs, n01s))
        return original(obs, n01s)

    monkeypatch.setattr(likelihood, "_grid", counted)
    assert run_verification(max_n=5, mc_draws=2000).ok
    assert len(calls) == len({obs for obs, _ in calls}) == 85
    assert all(n01s == range(obs.total + 1) for obs, n01s in calls)


def test_detects_a_run_box_one_harmed_count_short(monkeypatch, capsys):
    # The box's top k = min(hi, n10_obs) one lower: tables._run_box, the one
    # statement of the runs behind the support rows, the grid, the row sums
    # and the sensitivity sweep, rebuilt from its source with that one change
    # and patched into every module that binds it.
    source = inspect.getsource(tables._run_box)
    right = "min(hi, obs.n10) + 1"
    assert right in source
    obs, n01s = ObservedTable(2, 1, 1, 2), range(0, 4)
    swept = list(likelihood._columns(obs, n01s))
    namespace = dict(vars(tables))
    exec(source.replace(right, "min(hi, obs.n10)"), namespace)
    bound = [module for name, module in sys.modules.items() if name.startswith("causalurn")
             and getattr(module, "_run_box", None) is tables._run_box]
    assert {tables, likelihood} <= set(bound)
    for module in bound:
        monkeypatch.setattr(module, "_run_box", namespace["_run_box"])
    assert list(likelihood._columns(obs, n01s)) != swept
    code, lines = _verify_max_n_6(capsys)
    assert code == EXIT_VERIFY
    assert lines[4].startswith("FAIL  support matches positive probability:")


def test_detects_rows_one_run_short(monkeypatch, capsys):
    # Each row's last run dropped: tables._rows, the one statement of which
    # runs sit on which support row, behind the support, the membership test,
    # the grid and the row sums, rebuilt from its source with that one change
    # and patched into every module that binds it.
    source = inspect.getsource(tables._rows)
    right = "min(xs.stop, n11 + hi)"
    assert right in source
    obs, n01 = ObservedTable(2, 1, 1, 2), 1
    grid = [ParameterPoint(n11, n10, n01) for n11 in range(7) for n10 in range(7)]
    member = [tables.in_general_support(obs, point) for point in grid]
    support = tables.general_support(obs, n01)
    weights = a_posterior(obs, n01)
    namespace = dict(vars(tables))
    exec(source.replace(right, right + " - 1"), namespace)
    bound = [module for name, module in sys.modules.items() if name.startswith("causalurn")
             and getattr(module, "_rows", None) is tables._rows]
    assert {tables, likelihood} <= set(bound)
    for module in bound:
        monkeypatch.setattr(module, "_rows", namespace["_rows"])
    assert [tables.in_general_support(obs, point) for point in grid] != member
    assert tables.general_support(obs, n01) != support
    assert a_posterior(obs, n01) != weights
    code, lines = _verify_max_n_6(capsys)
    assert code == EXIT_VERIFY
    assert [line[:4] for line in lines[:7]] == ["PASS"] * 3 + ["FAIL"] * 2 + ["PASS"] * 2


def test_detects_cells_that_add_the_harmed_count(monkeypatch, capsys):
    # The n10 cell gains n01: moments._cells, the integer kernel that
    # moment_cells wraps, holds each cell times N1 N0.
    original = moments._cells

    def mutated(obs, n01):
        n11, n00, n10 = original(obs, n01)
        return n11, n00, n10 + n01 * obs.n_treated * obs.n_control

    monkeypatch.setattr(moments, "_cells", mutated)
    code, lines = _verify_max_n_6(capsys)
    assert code == EXIT_VERIFY
    assert [line[:4] for line in lines[:7]] == ["PASS", "FAIL"] + ["PASS"] * 5


def _assert_swapped_report(capsys, target):
    # verify --max-n 4 with the way counts of two tables of ``target`` at
    # N1 = 1 swapped: the likelihood identity fails at exactly those two
    # tables, the support identity holds, and every failure names ``target``.
    code = main(["verify", "--max-n", "4", "--draws", "2000"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_VERIFY
    assert lines[3] == ("FAIL  likelihood equals assignment probability: "
                        "353 identities checked, 2 failed")
    assert lines[4].startswith("PASS  support matches positive probability:")
    failures = [line for line in lines if line.startswith("  failure [")]
    assert failures and all(f"science={target} N1=1" in line for line in failures)
    assert [line.split(" obs=")[1] for line in failures if " obs=" in line] == [
        "ObservedTable(n11=0, n10=1, n01=2, n00=1): likelihood != probability 1/2",
        "ObservedTable(n11=1, n10=0, n01=1, n00=2): likelihood != probability 1/4",
    ]
    return lines


def _swap_two_pairs(monkeypatch, right, pick):
    # oracle._design_laws with its expression ``right`` rebuilt to swap, between
    # two pairs of science (2, 1, 0, 1) at N1 = 1, what ``pick`` reads off the
    # oracle's law of each. A treated never-responder and a treated
    # always-responder reach different observed tables, in 1 and 2 ways.
    target = ScienceTable(2, 1, 0, 1)
    dist = oracle.enumerate_assignments(target, 1)
    (never, _, always), (to_never, _, to_always) = dist.compositions, list(dist._observed())
    assert (never[4], always[4]) == (1, 2)

    def pair(composition):  # (x, y), each arm's composition as (x11, x10, x01, x00)
        x = composition[:4]
        return x, tuple(s - t for s, t in zip(test_oracle._counts(target), x))

    swapped = {pair(never): pick(always, to_always), pair(always): pick(never, to_never)}
    mutated = test_oracle._hooked_design_laws(
        right, lambda value, x, y: swapped.get((x, y), value))
    monkeypatch.setattr(oracle, "_design_laws", mutated)
    return target


def test_detects_an_oracle_that_swaps_two_way_counts(monkeypatch, capsys):
    # The pair walk gives each of the two pairs the other's way count. The
    # way counts still total C(4, 1), so only this science table's identities
    # fail: two likelihoods, the moments and the cell means.
    target = _swap_two_pairs(monkeypatch, "ways * c01[y01] * c00[rest - y01]",
                             lambda composition, observed: composition[4])
    _assert_swapped_report(capsys, target)


def test_detects_an_observed_table_map_that_swaps_two_way_counts(monkeypatch, capsys):
    # The same swap made in the kernel's map from pairs to observed tables,
    # its way counts left as they are. verify reads the likelihood's table law
    # and both moment sums off that one tally, so the likelihood identity
    # fails with the moments.
    target = _swap_two_pairs(monkeypatch, "keys[y11 + y01]",
                             lambda composition, observed: tuple(observed[1:3]))
    lines = _assert_swapped_report(capsys, target)
    assert [line[:4] for line in lines[:3]] == ["FAIL"] * 3


def test_a_design_over_the_cap_fails_before_any_is_walked(monkeypatch, capsys):
    # C(7, 2) = 21 is the first design of --max-n 9 over a cap of 20; every
    # design is checked against the cap before any table is enumerated or walked.
    def refuse(*args):
        raise AssertionError("walked or enumerated a design before the cap check")

    monkeypatch.setenv(oracle.ENUM_CAP_ENV, "20")
    monkeypatch.setattr(oracle, "_design_laws", refuse)
    monkeypatch.setattr(likelihood, "_grid", refuse)
    assert main(["verify", "--max-n", "9"]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "infeasible: C(7, 2) = 21 exceeds the cap 20; use monte_carlo instead\n"
    )


def test_detects_a_wrong_entry_in_the_binomial_table(monkeypatch, capsys):
    # The oracle's design kernel builds one binomial table per design and
    # reads every way count of it from there. C(3, 1) read as 4 in that table,
    # and nowhere else, not in C(N, N1) nor in lemma1_check, changes the way
    # count of every pair that treats 1 of 3 units of one type: the four
    # identities read off those laws fail.
    def comb(n, k):
        return 4 if (n, k) == (3, 1) else math.comb(n, k)

    namespace = dict(vars(oracle), math=SimpleNamespace(**{**vars(math), "comb": comb}))
    exec(inspect.getsource(oracle._design_laws), namespace)
    monkeypatch.setattr(oracle, "_design_laws", namespace["_design_laws"])
    code, lines = _verify_max_n_6(capsys)
    assert code == EXIT_VERIFY
    assert [line[:4] for line in lines[:7]] == ["FAIL"] * 4 + ["PASS"] * 3


# The whole report of verify --max-n 5 --draws 2000 with every seed taking
# C(n01, k + 1): its counts, failure text and failure order.
_SEED_OFF_BY_ONE_MAX_N_5 = [
    "PASS  rate-difference mean and variance: 758 identities checked",
    "PASS  cell estimators are unbiased: 379 identities checked",
    "PASS  attributable prediction moments: 758 identities checked",
    "FAIL  likelihood equals assignment probability: 198 identities checked, 829 failed",
    "PASS  support matches positive probability: 3619 identities checked",
    "PASS  treated-sum moments (constants): 21 identities checked",
    "PASS  monte carlo agrees with exact moments: 2 identities checked",
    "  failure [likelihood equals assignment probability]: "
    "science=ScienceTable(n11=0, n10=0, n01=0, n00=2) N1=1 "
    "obs=ObservedTable(n11=0, n10=1, n01=0, n00=1): likelihood != probability 1",
    "  failure [likelihood equals assignment probability]: "
    "science=ScienceTable(n11=0, n10=0, n01=1, n00=1) N1=1 "
    "obs=ObservedTable(n11=0, n10=1, n01=0, n00=1): likelihood != probability 1/2",
    "  failure [likelihood equals assignment probability]: "
    "science=ScienceTable(n11=0, n10=0, n01=2, n00=0) N1=1 "
    "obs=ObservedTable(n11=0, n10=1, n01=1, n00=0): likelihood != probability 1",
    "  failure [likelihood equals assignment probability]: "
    "science=ScienceTable(n11=0, n10=1, n01=0, n00=1) N1=1 "
    "obs=ObservedTable(n11=0, n10=1, n01=0, n00=1): likelihood != probability 1/2",
    "  failure [likelihood equals assignment probability]: "
    "science=ScienceTable(n11=0, n10=1, n01=0, n00=1) N1=1 "
    "obs=ObservedTable(n11=1, n10=0, n01=0, n00=1): likelihood != probability 1/2",
]


def test_a_failing_report_is_pinned_line_for_line(monkeypatch, capsys):
    source = inspect.getsource(likelihood._seed)
    right = "math.comb(n01, s - obs.n01 - x)"
    assert right in source
    namespace = dict(vars(likelihood))
    exec(source.replace(right, "math.comb(n01, s - obs.n01 - x + 1)"), namespace)
    monkeypatch.setattr(likelihood, "_seed", namespace["_seed"])
    code = main(["verify", "--max-n", "5", "--draws", "2000"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_VERIFY, "")
    assert captured.out.splitlines() == _SEED_OFF_BY_ONE_MAX_N_5


def test_detects_cells_off_by_half_a_unit_of_the_scale(monkeypatch, capsys):
    # n11 gains 1 / (2 N1 N0): in moments._cells, the integer kernel that
    # moment_cells wraps, the cell times N1 N0 is off by 1/2, so verify must
    # compare what the kernel returns exactly rather than round it.
    original = moments._cells

    def mutated(obs, n01):
        n11, n00, n10 = original(obs, n01)
        return n11 + Fraction(1, 2), n00, n10

    monkeypatch.setattr(moments, "_cells", mutated)
    code = main(["verify", "--max-n", "5", "--draws", "2000"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert (code, captured.err) == (EXIT_VERIFY, "")
    assert [line[:4] for line in lines[:7]] == ["PASS", "FAIL"] + ["PASS"] * 5
    assert lines[1].startswith("FAIL  cell estimators are unbiased:")
    assert all(line.startswith("  failure [cell estimators are unbiased]: ") for line in lines[7:])
