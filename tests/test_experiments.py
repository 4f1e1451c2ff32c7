"""Tests for the experiment harness: configs, reporting, scenario building."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    PRESETS,
    ScaleConfig,
    build_scenario,
    get_scale,
    make_model,
    run_experiment,
    table2_datasets,
)
from repro.config import SMOKE
from repro.models import (
    DecisionTreeClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)

TINY = ScaleConfig(
    name="tiny",
    n_samples=200,
    n_predictions=80,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=5,
    mlp_hidden=(16,),
    mlp_epochs=2,
    rf_trees=4,
    grna_hidden=(24,),
    grna_epochs=3,
    distiller_hidden=(32,),
    distiller_dummy=200,
    distiller_epochs=2,
)


class TestScaleConfig:
    def test_presets_exist(self):
        assert set(PRESETS) == {"smoke", "default", "full"}

    def test_get_scale_by_name(self):
        assert get_scale("smoke") is SMOKE

    def test_get_scale_passthrough(self):
        assert get_scale(TINY) is TINY

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            get_scale("huge")

    def test_predictions_capped_by_samples(self):
        with pytest.raises(ValidationError):
            ScaleConfig(name="bad", n_samples=10, n_predictions=20, n_trials=1)

    def test_fraction_bounds_checked(self):
        with pytest.raises(ValidationError):
            ScaleConfig(
                name="bad", n_samples=10, n_predictions=5, n_trials=1,
                fractions=(1.5,),
            )

    def test_full_preset_matches_paper_shapes(self):
        full = PRESETS["full"]
        assert full.mlp_hidden == (600, 300, 100)
        assert full.grna_hidden == (600, 200, 100)
        assert full.distiller_hidden == (2000, 200)
        assert full.rf_trees == 100 and full.rf_depth == 3
        assert full.dt_depth == 5
        assert full.n_trials == 10


class TestExperimentResult:
    @pytest.fixture()
    def result(self):
        return ExperimentResult(
            experiment_id="figX",
            title="demo",
            columns=["dataset", "value", "ok"],
            rows=[("bank", 0.5, True), ("news", float("nan"), False)],
            meta={"scale": "tiny"},
        )

    def test_to_text_contains_everything(self, result):
        text = result.to_text()
        assert "figX" in text and "bank" in text and "0.5000" in text
        assert "scale=tiny" in text
        assert "n/a" in text  # NaN formatting
        assert "yes" in text and "no" in text

    def test_column_extraction(self, result):
        assert result.column("dataset") == ["bank", "news"]

    def test_filtered(self, result):
        rows = result.filtered(dataset="bank")
        assert len(rows) == 1 and rows[0][1] == 0.5

    def test_unknown_column_raises(self, result):
        with pytest.raises(ValueError):
            result.column("nope")


class TestMakeModel:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("lr", LogisticRegression),
            ("nn", MLPClassifier),
            ("dt", DecisionTreeClassifier),
            ("rf", RandomForestClassifier),
        ],
    )
    def test_kinds(self, kind, cls):
        model = make_model(kind, TINY, np.random.default_rng(0))
        assert isinstance(model, cls)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            make_model("svm", TINY, np.random.default_rng(0))

    def test_dropout_forwarded(self):
        model = make_model("nn", TINY, np.random.default_rng(0), dropout=0.3)
        assert model.dropout == 0.3


class TestBuildScenario:
    def test_scenario_consistency(self):
        scenario = build_scenario("bank", "lr", 0.4, TINY, seed=0)
        assert scenario.X_adv.shape[0] == scenario.V.shape[0] == TINY.n_predictions
        assert scenario.X_adv.shape[1] == scenario.view.d_adv
        assert scenario.X_target.shape[1] == scenario.view.d_target
        assert scenario.V.shape[1] == scenario.dataset.n_classes

    def test_v_comes_from_the_protocol(self):
        scenario = build_scenario("bank", "lr", 0.4, TINY, seed=0)
        np.testing.assert_allclose(
            scenario.V, scenario.model.predict_proba(scenario.X_pred_full)
        )

    def test_adv_and_target_recombine(self):
        scenario = build_scenario("bank", "lr", 0.4, TINY, seed=0)
        np.testing.assert_array_equal(
            scenario.view.assemble(scenario.X_adv, scenario.X_target),
            scenario.X_pred_full,
        )

    def test_seed_reproducibility(self):
        a = build_scenario("bank", "lr", 0.4, TINY, seed=5)
        b = build_scenario("bank", "lr", 0.4, TINY, seed=5)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.X_adv, b.X_adv)

    def test_n_predictions_override(self):
        scenario = build_scenario("bank", "lr", 0.4, TINY, seed=0, n_predictions=30)
        assert scenario.V.shape[0] == 30


class TestRunners:
    def test_registry_covers_all_paper_artifacts(self):
        assert set(EXPERIMENTS) == {
            "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "budget", "comm", "traffic", "fault_storm",
        }

    def test_registry_entries_accept_scale_uniformly(self):
        """Regression: table2 used to be a lambda that swallowed ``scale``.

        Every registry entry must take one positional scale argument (name
        or ScaleConfig), so the batch engine and CLI can treat them alike.
        """
        import inspect

        for experiment_id, runner in EXPERIMENTS.items():
            signature = inspect.signature(runner)
            signature.bind("smoke")  # raises TypeError if scale is rejected
            parameter = next(iter(signature.parameters.values()))
            assert parameter.name == "scale", experiment_id

    def test_registry_matches_decomposed_specs(self):
        """The classic registry and the trial-unit registry must agree."""
        from repro.experiments import EXPERIMENT_SPECS
        from repro.experiments.spec import _ensure_registered

        _ensure_registered()
        assert set(EXPERIMENTS) == set(EXPERIMENT_SPECS)

    def test_table2(self):
        result = table2_datasets()
        assert len(result.rows) == 6

    def test_table2_accepts_scale(self):
        assert table2_datasets("smoke").rows == table2_datasets(TINY).rows
        assert run_experiment("table2", "smoke").rows == table2_datasets().rows

    def test_run_experiment_rejects_bad_jobs(self):
        with pytest.raises(ValidationError):
            run_experiment("table2", jobs=0)

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError):
            run_experiment("fig99")

    def test_fig5_tiny_run(self):
        from repro.experiments import fig5_esa

        result = fig5_esa(TINY, datasets=("drive",), seed=1)
        assert result.columns[0] == "dataset"
        assert len(result.rows) == len(TINY.fractions)
        # drive has 11 classes: 40% of 48 features ≈ 19 > 10 ⇒ not exact,
        # but ESA should still beat random guessing.
        row = result.rows[0]
        esa_mse, rg_mse = row[2], row[3]
        assert esa_mse < rg_mse

    def test_fig6_tiny_run(self):
        from repro.experiments import fig6_pra

        result = fig6_pra(TINY, datasets=("bank",), seed=1)
        row = result.rows[0]
        assert 0.0 <= row[2] <= 1.0  # CBR is a rate
        assert 0.0 < row[4] <= 1.0  # restricted fraction

    def test_cli_main(self, capsys):
        from repro.experiments.runner import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "bank" in out and "45211" in out


class TestCsvExport:
    @pytest.fixture()
    def result(self):
        return ExperimentResult(
            experiment_id="figX",
            title="demo",
            columns=["dataset", "value", "ok"],
            rows=[("bank", 0.5, True), ("news", float("nan"), False)],
        )

    def test_to_csv_header_and_rows(self, result):
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "dataset,value,ok"
        assert lines[1] == "bank,0.5,true"
        assert lines[2] == "news,,false"  # NaN becomes an empty cell

    def test_csv_quotes_commas(self):
        r = ExperimentResult("x", "t", ["a"], [("hello, world",)])
        assert '"hello, world"' in r.to_csv()

    def test_save_csv_and_text(self, result, tmp_path):
        csv_path = tmp_path / "out.csv"
        txt_path = tmp_path / "out.txt"
        result.save(csv_path)
        result.save(txt_path)
        assert csv_path.read_text().startswith("dataset,value,ok")
        assert txt_path.read_text().startswith("== figX")

    def test_cli_output_dir(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["table2", "--output-dir", str(tmp_path)]) == 0
        saved = (tmp_path / "table2.csv").read_text()
        assert saved.startswith("dataset,samples,classes,features")
        capsys.readouterr()
