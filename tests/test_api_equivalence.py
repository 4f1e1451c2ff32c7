"""Refactor-equivalence harness: facade-based runners == legacy skeletons.

PR 1's store tests prove serial == parallel == resumed for the decomposed
runners; this module extends that harness one level up and proves the
scenario-API refactor itself changed no numbers. Each ``legacy_*``
function below is the pre-refactor ``figN_run_unit`` body, verbatim —
direct attack construction, hand-wired rng streams — and the tests assert
its payload is *bit-identical* (``==`` on floats, not allclose) to what
the refactored runner produces through :func:`repro.api.run_scenario`.
"""

import numpy as np
import pytest

from repro.attacks import (
    EqualitySolvingAttack,
    GenerativeRegressionNetwork,
    PathRestrictionAttack,
    RandomGuessAttack,
    attack_random_forest,
    random_path,
)
from repro.config import ScaleConfig
from repro.api import build_scenario, grna_kwargs_from_scale
from repro.experiments.figures import (
    fig5_run_unit,
    fig5_units,
    fig6_run_unit,
    fig6_units,
    fig7_run_unit,
    fig7_units,
)
from repro.metrics import aggregate_cbr, mse_per_feature, path_cbr
from repro.models import RandomForestDistiller
from repro.utils.random import spawn_rngs

TINY = ScaleConfig(
    name="tiny-eq",
    n_samples=200,
    n_predictions=60,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=4,
    mlp_hidden=(12,),
    mlp_epochs=2,
    rf_trees=3,
    rf_depth=2,
    dt_depth=4,
    grna_hidden=(16,),
    grna_epochs=2,
    grna_batch_size=32,
    distiller_hidden=(24,),
    distiller_dummy=150,
    distiller_epochs=2,
)


def _random_guess_mses(view, X_adv, X_target, rng):
    """The historical fig5/fig7 baseline helper, verbatim."""
    uniform = RandomGuessAttack(view, distribution="uniform", rng=rng).run(X_adv)
    gaussian = RandomGuessAttack(view, distribution="gaussian", rng=rng).run(X_adv)
    return (
        float(mse_per_feature(uniform.x_target_hat, X_target)),
        float(mse_per_feature(gaussian.x_target_hat, X_target)),
    )


def _legacy_run_grna(scenario, model_kind, scale, trial_seed):
    """The historical ``figures._run_grna``, verbatim."""
    grna_rng, distill_rng, dummy_rng = spawn_rngs(trial_seed + 1, 3)
    kwargs = grna_kwargs_from_scale(scale, grna_rng)
    if model_kind == "rf":
        distiller = RandomForestDistiller(
            hidden_sizes=scale.distiller_hidden,
            n_dummy=scale.distiller_dummy,
            epochs=scale.distiller_epochs,
            rng=distill_rng,
        )
        result, _ = attack_random_forest(
            scenario.model,
            scenario.view,
            scenario.X_adv,
            scenario.V,
            distiller=distiller,
            grna_kwargs=kwargs,
            rng=dummy_rng,
        )
        return result.x_target_hat
    attack = GenerativeRegressionNetwork(scenario.model, scenario.view, **kwargs)
    return attack.run(scenario.X_adv, scenario.V).x_target_hat


def legacy_fig5_run_unit(spec, scale):
    """Pre-refactor fig5_run_unit, verbatim."""
    params = spec.kwargs
    scenario = build_scenario(
        params["dataset"], "lr", params["fraction"], scale, spec.seed
    )
    attack = EqualitySolvingAttack(scenario.model, scenario.view)
    result = attack.run(scenario.X_adv, scenario.V)
    rg_u, rg_g = _random_guess_mses(
        scenario.view, scenario.X_adv, scenario.X_target, spec.seed
    )
    return {
        "esa_mse": float(mse_per_feature(result.x_target_hat, scenario.X_target)),
        "rg_uniform_mse": rg_u,
        "rg_gaussian_mse": rg_g,
        "exact": bool(attack.is_exact),
    }


def legacy_fig6_run_unit(spec, scale):
    """Pre-refactor fig6_run_unit, verbatim."""
    params = spec.kwargs
    scenario = build_scenario(
        params["dataset"], "dt", params["fraction"], scale, spec.seed
    )
    structure = scenario.model.tree_structure()
    attack = PathRestrictionAttack(structure, scenario.view)
    attack_rng, guess_rng = spawn_rngs(spec.seed, 2)
    labels = np.argmax(scenario.V, axis=1)
    counts, rg_counts, restricted = [], [], []
    for i in range(scenario.X_adv.shape[0]):
        result = attack.run(scenario.X_adv[i], int(labels[i]), rng=attack_rng)
        counts.append(
            path_cbr(
                structure,
                result.selected_path,
                scenario.X_pred_full[i],
                scenario.view.target_indices,
            )
        )
        rg_counts.append(
            path_cbr(
                structure,
                random_path(structure, guess_rng),
                scenario.X_pred_full[i],
                scenario.view.target_indices,
            )
        )
        restricted.append(float(result.n_paths_restricted / result.n_paths_total))
    return {
        "pra_cbr": float(aggregate_cbr(counts)),
        "rg_cbr": float(aggregate_cbr(rg_counts)),
        "restricted": restricted,
    }


def legacy_fig7_run_unit(spec, scale):
    """Pre-refactor fig7_run_unit, verbatim."""
    params = spec.kwargs
    payload = {}
    scenario = None
    for model_kind in params["models"]:
        scenario = build_scenario(
            params["dataset"], model_kind, params["fraction"], scale, spec.seed
        )
        x_hat = _legacy_run_grna(scenario, model_kind, scale, spec.seed)
        payload[f"grna_{model_kind}_mse"] = float(
            mse_per_feature(x_hat, scenario.X_target)
        )
    rg_u, rg_g = _random_guess_mses(
        scenario.view, scenario.X_adv, scenario.X_target, spec.seed
    )
    payload["rg_uniform_mse"] = rg_u
    payload["rg_gaussian_mse"] = rg_g
    return payload


class TestRefactorEquivalence:
    """fig5/fig7 (and fig6) payloads are bit-identical across the refactor."""

    @pytest.mark.parametrize("dataset", ["bank", "drive"])
    def test_fig5_bit_identical(self, dataset):
        for unit in fig5_units(TINY, datasets=(dataset,), seed=5):
            assert fig5_run_unit(unit, TINY) == legacy_fig5_run_unit(unit, TINY)

    def test_fig6_bit_identical(self):
        for unit in fig6_units(TINY, datasets=("bank",), seed=6):
            assert fig6_run_unit(unit, TINY) == legacy_fig6_run_unit(unit, TINY)

    def test_fig7_bit_identical_all_models(self):
        """One unit spans LR, RF (distilled), and NN — the full GRNA surface."""
        for unit in fig7_units(
            TINY, datasets=("bank",), models=("lr", "rf", "nn"), seed=7
        ):
            assert fig7_run_unit(unit, TINY) == legacy_fig7_run_unit(unit, TINY)


def _force_seed_kernels(monkeypatch):
    """Route every vectorized hot path back onto its retained seed kernel.

    Covers tree growing (`_best_split_slow`), tree/forest prediction
    (`_predict_slow` / `_predict_proba_slow`), PRA restriction
    (`_restrict_slow`), GRNA's composed-graph loss, and the allocating
    Adam step — i.e. the complete pre-PR model layer.
    """
    from repro.attacks.grna import GenerativeRegressionNetwork
    from repro.attacks.pra import PathRestrictionAttack
    from repro.models.forest import RandomForestClassifier
    from repro.models.tree import DecisionTreeClassifier
    from repro.nn.optim import Adam
    from repro.utils.numeric import one_hot

    def slow_proba(self, X):
        return one_hot(self._predict_slow(X), self.n_classes_)

    def slow_restrict_batch(self, X_adv, predicted_classes):
        X_adv = np.atleast_2d(np.asarray(X_adv, dtype=np.float64))
        classes = np.asarray(predicted_classes, dtype=np.int64).ravel()
        return np.stack(
            [self._restrict_slow(X_adv[i], int(c)) for i, c in enumerate(classes)]
        )

    monkeypatch.setattr(DecisionTreeClassifier, "_fast_split", False)
    monkeypatch.setattr(
        DecisionTreeClassifier, "predict", DecisionTreeClassifier._predict_slow
    )
    monkeypatch.setattr(DecisionTreeClassifier, "predict_proba", slow_proba)
    monkeypatch.setattr(
        RandomForestClassifier,
        "predict_proba",
        RandomForestClassifier._predict_proba_slow,
    )
    monkeypatch.setattr(PathRestrictionAttack, "restrict_batch", slow_restrict_batch)
    monkeypatch.setattr(GenerativeRegressionNetwork, "_fast_loss", False)
    monkeypatch.setattr(Adam, "_fast_step", False)


class TestKernelEquivalence:
    """DT/RF scenario cells are bit-identical under forced seed kernels.

    The perf PR vectorized the model-layer hot loops but retained each
    seed implementation behind a dispatch flag; re-running whole figure
    cells with every flag forced slow must reproduce the fast payloads
    exactly — covering tree fit + predict (fig6/PRA) and forest voting +
    distillation + GRNA training (fig7/RF, fig7/NN) end to end.
    """

    def test_fig6_dt_cell_bit_identical_under_seed_kernels(self, monkeypatch):
        units = list(fig6_units(TINY, datasets=("bank",), seed=6))
        fast = [fig6_run_unit(unit, TINY) for unit in units]
        _force_seed_kernels(monkeypatch)
        slow = [fig6_run_unit(unit, TINY) for unit in units]
        assert fast == slow

    def test_fig7_rf_and_nn_cells_bit_identical_under_seed_kernels(self, monkeypatch):
        units = list(fig7_units(TINY, datasets=("bank",), models=("rf", "nn"), seed=7))
        fast = [fig7_run_unit(unit, TINY) for unit in units]
        _force_seed_kernels(monkeypatch)
        slow = [fig7_run_unit(unit, TINY) for unit in units]
        assert fast == slow


class TestServingEquivalence:
    """The metered serving boundary is invisible at default knobs.

    Every run-unit now accumulates its prediction pool through a
    :class:`~repro.serving.PredictionService`; these tests pin down that
    the redesign is pure plumbing — a ledgered, cacheable boundary whose
    default (unlimited budget, single round, no cache) reproduces the
    legacy skeletons to the bit, while metering is observable on the
    report.
    """

    def test_fig5_with_metering_and_cache_bit_identical(self):
        """An ample finite budget plus the response cache change nothing."""
        from repro.api import ScenarioConfig, run_scenario

        for unit in fig5_units(TINY, datasets=("bank",), seed=5):
            params = unit.kwargs
            legacy = legacy_fig5_run_unit(unit, TINY)
            report = run_scenario(
                ScenarioConfig(
                    dataset=params["dataset"],
                    model="lr",
                    attack="esa",
                    target_fraction=params["fraction"],
                    scale=TINY,
                    seed=unit.seed,
                    baselines=("uniform", "gaussian"),
                    query_budget=10 * TINY.n_predictions,
                    cache=True,
                )
            )
            assert report.metrics["mse"] == legacy["esa_mse"]
            assert report.metrics["rg_uniform_mse"] == legacy["rg_uniform_mse"]
            assert report.metrics["rg_gaussian_mse"] == legacy["rg_gaussian_mse"]

    def test_every_run_unit_reports_its_query_cost(self):
        """Each cell's report carries queries_used == the accumulated pool."""
        from repro.api import ScenarioConfig, run_scenario

        report = run_scenario(
            ScenarioConfig(
                dataset="bank",
                model="lr",
                attack="esa",
                target_fraction=0.4,
                scale=TINY,
                seed=5,
            )
        )
        assert report.queries_used == TINY.n_predictions
        assert (
            report.result.info["n_predictions_used"] == TINY.n_predictions
        )

    def test_legacy_scenarios_flow_through_the_service(self):
        """The legacy oracle's own build path is served, not raw predict."""
        scenario = build_scenario("bank", "lr", 0.4, TINY, 5)
        assert scenario.service is not None
        assert scenario.service.ledger.queries_used == scenario.V.shape[0]


class TestFederationEquivalence:
    """The message-passing runtime is invisible at default knobs.

    Every scenario protocol round now executes as serialized,
    ledger-charged messages through a
    :class:`~repro.federation.FederationRuntime`; these tests pin the
    acceptance criteria: default configs reproduce the legacy skeletons
    to the bit (the classes above already run through the runtime — here
    batched rounds must agree too), every cross-party
    float in a predict round is accounted in the CommLedger, and the
    ledger's bytes equal the sum of encoded frame sizes exactly.
    """

    def test_fig5_bit_identical_with_batched_rounds(self):
        """Batched rounds reproduce the legacy payload exactly."""
        from repro.api import ScenarioConfig, run_scenario

        for unit in fig5_units(TINY, datasets=("bank",), seed=5):
            params = unit.kwargs
            legacy = legacy_fig5_run_unit(unit, TINY)
            report = run_scenario(
                ScenarioConfig(
                    dataset=params["dataset"],
                    model="lr",
                    attack="esa",
                    target_fraction=params["fraction"],
                    scale=TINY,
                    seed=unit.seed,
                    baselines=("uniform", "gaussian"),
                    batch_size=16,
                )
            )
            assert report.metrics["mse"] == legacy["esa_mse"]
            assert report.metrics["rg_uniform_mse"] == legacy["rg_uniform_mse"]
            assert report.metrics["rg_gaussian_mse"] == legacy["rg_gaussian_mse"]

    def test_every_cross_party_float_is_accounted(self):
        """Ledger bytes == sum of encoded frames; zero unmetered transfers."""
        from repro.federation.message import encoded_size

        scenario = build_scenario("bank", "lr", 0.4, TINY, 5)
        runtime = scenario.runtime
        ledger = runtime.ledger.as_dict()
        log = runtime.transport.delivery_log
        # Exactness: the ledger is the sum of the delivered frame sizes.
        assert ledger["bytes"] == sum(record.nbytes for record in log)
        assert ledger["messages"] == len(log)
        # Completeness: the accumulated pool's every target-side float
        # crossed inside metered feature_block frames of exactly the
        # predicted size — nothing moved outside the log.
        n = scenario.V.shape[0]
        expected = [
            encoded_size("feature_request", np.int64, (n,)),
            encoded_size(
                "feature_block", np.float64, (n, scenario.view.d_target)
            ),
        ]
        assert sorted(record.nbytes for record in log) == sorted(expected)
        assert ledger["bytes"] == runtime.estimate_predict_bytes(n)

    def test_default_report_comm_cost_is_stable_metadata(self):
        """comm_cost rides on the report without touching the metrics."""
        from repro.api import ScenarioConfig, run_scenario

        report = run_scenario(
            ScenarioConfig(
                dataset="bank",
                model="lr",
                attack="esa",
                target_fraction=0.4,
                scale=TINY,
                seed=5,
            )
        )
        assert report.comm_cost["rounds"] == 1
        assert report.comm_cost["byte_budget"] is None
        assert set(report.comm_cost["edges"]) == {"0->1", "1->0"}


class TestCheckpointEquivalence:
    """Suspend/resume is invisible in the numbers: resumed == fresh.

    The checkpoint subsystem promises bit-identity, not approximation —
    a run suspended mid-epoch (GRNA training), mid-accumulation (the
    serving/federation protocol rounds), or mid-trace (sharded replay)
    and then resumed must produce exactly the report an uninterrupted
    run produces. ``halt_after`` stands in for the kill
    (``scripts/kill_resume_smoke.py`` proves the SIGKILL case in CI).
    """

    def _reference(self, model_kind, attack, **kwargs):
        from repro.api import ScenarioConfig, run_scenario

        return run_scenario(
            ScenarioConfig(
                dataset="bank",
                model=model_kind,
                attack=attack,
                target_fraction=0.4,
                scale=TINY,
                seed=11,
                **kwargs,
            )
        )

    @pytest.mark.parametrize("model_kind", ["nn", "rf"])
    def test_grna_training_resumes_mid_epoch(self, model_kind, tmp_path):
        """Both GRNA paths (direct and distilled) resume bit-identically."""
        from repro.api import ScenarioConfig, run_scenario
        from repro.checkpoint import CheckpointPause, CheckpointPlan

        fresh = self._reference(model_kind, "grna")

        def run(plan):
            return run_scenario(
                ScenarioConfig(
                    dataset="bank",
                    model=model_kind,
                    attack="grna",
                    target_fraction=0.4,
                    scale=TINY,
                    seed=11,
                    attack_params={"checkpoint": plan},
                )
            )

        with pytest.raises(CheckpointPause):
            run(CheckpointPlan(tmp_path, halt_after=1))
        from repro.checkpoint import SnapshotStore

        assert SnapshotStore(tmp_path).steps() == [0]
        resumed = run(CheckpointPlan(tmp_path))
        assert resumed.metrics == fresh.metrics
        assert np.array_equal(
            resumed.result.x_target_hat, fresh.result.x_target_hat
        )

    @pytest.mark.parametrize(
        "model_kind,attack",
        [("lr", "esa"), ("nn", "grna"), ("dt", "pra"), ("rf", "grna")],
    )
    def test_serving_resumes_at_round_boundary(self, model_kind, attack, tmp_path):
        """The metered accumulation resumes between federation rounds.

        ``batch_size=16`` splits the pool into multiple protocol rounds;
        the run halts after two of them, so the resume must fast-forward
        the accumulated rows, the query ledger, *and* the CommLedger —
        every model kind, both attack families.
        """
        from repro.api import ScenarioConfig, run_scenario
        from repro.checkpoint import CheckpointPause, CheckpointPlan

        fresh = self._reference(model_kind, attack, batch_size=16)

        def run(plan):
            return run_scenario(
                ScenarioConfig(
                    dataset="bank",
                    model=model_kind,
                    attack=attack,
                    target_fraction=0.4,
                    scale=TINY,
                    seed=11,
                    batch_size=16,
                ),
                serving_checkpoint=plan,
            )

        with pytest.raises(CheckpointPause):
            run(CheckpointPlan(tmp_path, halt_after=2))
        resumed = run(CheckpointPlan(tmp_path))
        assert resumed.to_json() == fresh.to_json()
        assert resumed.comm_cost == fresh.comm_cost
        assert resumed.queries_used == fresh.queries_used

    def test_sharded_replay_resumes_mid_trace(self, tmp_path):
        """A traffic replay suspends mid-trace and resumes to the same books."""
        from repro.checkpoint import CheckpointPause, CheckpointPlan
        from repro.workload import (
            ShardedPredictionService,
            attacker_trace,
            make_trace,
        )

        vfl = build_scenario("bank", "lr", 0.4, TINY, 5).vfl
        trace = make_trace(
            6, 18, n_samples=vfl.n_samples, batch_size=3, seed=11
        ).merge(
            attacker_trace("needle", np.arange(5), repeats=3, batch_size=4, seed=12)
        )

        def make_sharded():
            return ShardedPredictionService(
                vfl,
                n_shards=3,
                consumer_budgets={"needle": 4},
                max_batch=4,
                cache=True,
                cache_size=6,
                exhaustion="raise",
                seed=5,
            )

        fresh = make_sharded().replay(trace)
        with pytest.raises(CheckpointPause):
            make_sharded().replay(
                trace, checkpoint=CheckpointPlan(tmp_path, every=2, halt_after=7)
            )
        resumed = make_sharded().replay(
            trace, checkpoint=CheckpointPlan(tmp_path, every=2)
        )
        assert resumed.accounting() == fresh.accounting()
        assert resumed.refusals == fresh.refusals

    def test_resumable_facade_report_is_byte_identical(self, tmp_path):
        """run_scenario_resumable: halt, resume, compare report.json bytes."""
        from repro.api import ScenarioConfig, run_scenario, run_scenario_resumable
        from repro.checkpoint import CheckpointPause

        config = ScenarioConfig(
            dataset="bank",
            model="nn",
            attack="grna",
            target_fraction=0.4,
            scale=TINY,
            seed=11,
            batch_size=16,
        )
        fresh = run_scenario(config)
        with pytest.raises(CheckpointPause):
            run_scenario_resumable(
                config, store_dir=tmp_path / "run", halt_after=1
            )
        assert not (tmp_path / "run" / "report.json").exists()
        resumed = run_scenario_resumable(config, store_dir=tmp_path / "run")
        assert resumed.to_json() == fresh.to_json()
        assert (
            tmp_path / "run" / "report.json"
        ).read_text() == fresh.to_json() + "\n"

    def test_resumable_facade_pins_its_config(self, tmp_path):
        """Resuming a directory under a different config is refused."""
        import dataclasses

        from repro.api import ScenarioConfig, run_scenario_resumable
        from repro.exceptions import CheckpointError

        config = ScenarioConfig(
            dataset="bank",
            model="lr",
            attack="esa",
            target_fraction=0.4,
            scale=TINY,
            seed=11,
        )
        run_scenario_resumable(config, store_dir=tmp_path / "run")
        with pytest.raises(CheckpointError, match="fresh store_dir"):
            run_scenario_resumable(
                dataclasses.replace(config, seed=12), store_dir=tmp_path / "run"
            )

    def test_checkpointed_serving_refuses_defense_stacks(self, tmp_path):
        """State the plan cannot capture is refused, never half-resumed."""
        from repro.api import ScenarioConfig, run_scenario
        from repro.checkpoint import CheckpointPlan
        from repro.exceptions import CheckpointError

        with pytest.raises(CheckpointError, match="defense"):
            run_scenario(
                ScenarioConfig(
                    dataset="bank",
                    model="lr",
                    attack="esa",
                    target_fraction=0.4,
                    scale=TINY,
                    seed=11,
                    defenses=[("rounding", {"digits": 2})],
                ),
                serving_checkpoint=CheckpointPlan(tmp_path),
            )


class TestTelemetryEquivalence:
    """Tracing is observational: the knob changes no number anywhere.

    The telemetry layer rides every hot path (serving chunks, federation
    rounds, GRNA epochs), so the oracle harness pins its acceptance
    criterion directly: a traced run's payload is *bit-identical* to the
    legacy skeleton's, and the default (off) path produces a report with
    no telemetry at all.
    """

    def test_fig5_bit_identical_with_tracing_on(self):
        from repro.api import ScenarioConfig, run_scenario

        for unit in fig5_units(TINY, datasets=("bank",), seed=5):
            params = unit.kwargs
            legacy = legacy_fig5_run_unit(unit, TINY)
            report = run_scenario(
                ScenarioConfig(
                    dataset=params["dataset"],
                    model="lr",
                    attack="esa",
                    target_fraction=params["fraction"],
                    scale=TINY,
                    seed=unit.seed,
                    baselines=("uniform", "gaussian"),
                    telemetry=True,
                )
            )
            assert report.metrics["mse"] == legacy["esa_mse"]
            assert report.metrics["rg_uniform_mse"] == legacy["rg_uniform_mse"]
            assert report.metrics["rg_gaussian_mse"] == legacy["rg_gaussian_mse"]
            assert report.telemetry["records"] > 0

    def test_grna_bit_identical_with_tracing_on(self):
        from repro.api import ScenarioConfig, run_scenario

        config = dict(
            dataset="bank",
            model="nn",
            attack="grna",
            target_fraction=0.4,
            scale=TINY,
            seed=7,
        )
        off = run_scenario(ScenarioConfig(**config))
        on = run_scenario(ScenarioConfig(**config, telemetry=True))
        assert on.metrics == off.metrics
        assert on.queries_used == off.queries_used
        assert on.comm_cost == off.comm_cost
        assert off.telemetry == {}
        assert on.telemetry["by_kind"]["grna.epoch"] == TINY.grna_epochs
