"""Smoke tests of the experiment drivers (quick configuration)."""

import warnings
from types import SimpleNamespace

import pytest

from repro.experiments import __main__ as cli
from repro.experiments import (
    ExperimentConfig,
    fig4,
    fig5,
    table1,
    table2,
)
from repro.experiments.config import FIG6_PAPER, TABLE2_PAPER


@pytest.fixture(scope="module")
def quick():
    return ExperimentConfig(quick=True, seed=99)


class TestConfig:
    def test_quick_reduces_budget(self):
        config = ExperimentConfig(quick=True)
        assert config.maxiter <= 8
        assert config.shots <= 256

    def test_paper_constants_complete(self):
        for backend, models in TABLE2_PAPER.items():
            for model, stages in models.items():
                assert set(stages) == {"raw", "go", "m3", "cvar"}
        assert len(FIG6_PAPER) == 6

    def test_backend_factory(self):
        config = ExperimentConfig()
        assert config.backend("toronto").name == "ibmq_toronto"


class TestTable1:
    def test_matches_paper_exactly(self, quick):
        result = table1.run(quick)
        assert table1.verify(result) == []
        rendering = table1.render(result)
        assert "166.220" in rendering  # auckland T1
        assert "5962.667" in rendering  # toronto readout length


class TestFig4:
    def test_optima_match(self, quick):
        result = fig4.run(quick)
        for task, row in result.items():
            assert row["max_cut"] == row["paper_max_cut"]
        assert "Max-Cut" in fig4.render(result)


@pytest.fixture(scope="module")
def fig5_quick(quick):
    """One quick fig5 run: its result, each model's ``TrainResult`` and
    the warnings the run raised."""
    trained = {}
    train = fig5.train_model

    def capture(model, *args, **kwargs):
        trained[model.name] = train(model, *args, **kwargs)
        return trained[model.name]

    fig5.train_model = capture
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fig5.run(quick)
    finally:
        fig5.train_model = train
    return result, trained, caught


class TestFig5Quick:
    def test_runs_and_reports(self, fig5_quick):
        result, _trained, _caught = fig5_quick
        rendering = fig5.render(result)
        assert "hybrid+PO" in rendering
        assert result.hybrid_duration == 320
        assert result.hybrid_po_duration < 320
        assert 0.0 <= result.pulse_ar <= 1.0

    def test_pulse_budget_recorded_without_warning(self, fig5_quick):
        result, trained, caught = fig5_quick
        # 54 parameters need n + 2 = 56 evaluations, above maxiter 12
        assert len(trained["pulse"].best_parameters) == 54
        assert [
            str(w.message) for w in caught if issubclass(w.category, UserWarning)
        ] == []
        assert trained["pulse"].budget == result.pulse_budget == 56
        assert "pulse-level COBYLA budget: 56 evaluations" in fig5.render(
            result
        )
        # scipy already ran 56 evaluations, so the run is unchanged
        assert trained["pulse"].evaluations == 56
        assert trained["hybrid"].evaluations == 8
        assert (result.pulse_ar, result.hybrid_ar, result.hybrid_po_ar) == (
            0.5425347222222222,
            0.5217013888888888,
            0.5080295138888888,
        )


class TestTable2Quick:
    def test_structure(self, quick):
        result = table2.run(quick)
        assert len(result.ars) == 3 * 2 * 4
        assert set(result.po_durations) == {
            "auckland",
            "toronto",
            "guadalupe",
        }
        rendering = table2.render(result)
        assert "Raw AR" in rendering and "CVaR AR" in rendering


def stub_driver(label, violations=(), mismatches=None):
    """A driver whose checks report the given violations/mismatches."""
    driver = SimpleNamespace(
        run=lambda config: label,
        render=lambda result: f"{result} table",
        shape_checks=lambda result: list(violations),
    )
    if mismatches is not None:
        driver.verify = lambda result: list(mismatches)
    return driver


class TestCommandLine:
    @pytest.mark.parametrize(
        "violations, mismatches, status",
        [
            ((), None, 0),
            ((), [], 0),
            (["hybrid < gate at raw"], None, 1),
            ((), ["toronto T1 differs"], 1),
        ],
    )
    def test_exit_status(self, monkeypatch, violations, mismatches, status):
        driver = stub_driver("stub", violations, mismatches)
        monkeypatch.setattr(cli, "DRIVERS", {"stub": driver})
        assert cli.main(["stub", "--quick"]) == status

    def test_prints_every_result_before_failing(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli,
            "DRIVERS",
            {"a": stub_driver("a", ["too short"]), "b": stub_driver("b")},
        )
        assert cli.main(["all"]) == 1
        out = capsys.readouterr().out
        assert "a table" in out and "  - too short" in out
        assert "b table" in out and "all paper shape checks passed" in out
