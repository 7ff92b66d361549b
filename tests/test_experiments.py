"""Tests for the experiment harness (one per table/figure of the paper).

These run reduced configurations to stay fast; the benchmark harness under
``benchmarks/`` regenerates the full-size artefacts.
"""

from __future__ import annotations

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import (
    fig1_threads,
    fig3_strategies,
    fig4_corun_events,
    fig5_gpu_intraop,
    table1_parallelism,
    table2_input_size,
    table3_corun,
    table4_regression,
    table5_hillclimb,
    table6_topops,
    table7_gpu_corun,
)
from repro.experiments.cli import main as cli_main


class TestExperimentRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig1", "fig3", "fig4", "fig5",
            "table1", "table2", "table3", "table4", "table5", "table6", "table7",
            # beyond the paper: Table III raised to fleet scale
            "fleet",
        }

    def test_every_experiment_declares_paper_reference(self):
        for module in ALL_EXPERIMENTS.values():
            assert hasattr(module, "PAPER_REFERENCE")
            assert module.PAPER_REFERENCE


class TestMotivationExperiments:
    def test_fig1_optima_below_recommendation(self):
        result = fig1_threads.run(thread_counts=tuple(range(2, 66, 4)))
        for op_type, (threads, _) in result.optima.items():
            assert threads < 64, op_type
        # Ordering of the three operations matches the paper.
        assert (
            result.optima["Conv2DBackpropFilter"][0]
            <= result.optima["Conv2DBackpropInput"][0]
            <= result.optima["Conv2D"][0]
        )
        report = fig1_threads.format_report(result)
        assert "Conv2DBackpropFilter" in report

    def test_table2_optimum_grows_with_input_size(self):
        result = table2_input_size.run(operations=("Conv2DBackpropFilter",))
        small = result.entry("Conv2DBackpropFilter", (32, 8, 8, 384))
        large = result.entry("Conv2DBackpropFilter", (32, 8, 8, 2048))
        assert large.best_threads > small.best_threads
        assert small.performance_variance > large.performance_variance
        assert "Table II" in table2_input_size.format_report(result)

    def test_table3_split_corun_wins(self):
        result = table3_corun.run()
        assert result.split_speedup > result.hyperthreading_speedup >= 0.95
        assert result.split_speedup > 1.2
        assert "Serial execution" in table3_corun.format_report(result)

    def test_table1_recommendation_not_optimal_but_oversubscription_worse(self):
        result = table1_parallelism.run(models=("dcgan",), reduced=True)
        best = max(
            result.speedup("dcgan", inter, intra)
            for inter in table1_parallelism.INTER_OP
            for intra in table1_parallelism.INTRA_OP
        )
        assert best > 1.0
        assert result.speedup("dcgan", 2, 136) < 0.7
        assert "Table I" in table1_parallelism.format_report(result)


class TestModelAccuracyExperiments:
    def test_table5_accuracy_decreases_with_interval(self):
        result = table5_hillclimb.run(models=("dcgan",), intervals=(2, 16), reduced=True)
        assert result.accuracy[("dcgan", 2)] > result.accuracy[("dcgan", 16)]
        assert result.accuracy[("dcgan", 2)] > 0.85
        assert "x=2" in table5_hillclimb.format_report(result)

    def test_table4_empty_regressor_mapping_uses_defaults(self):
        result = table4_regression.run(
            sample_counts=(1,), regressors={}, reduced=True,
            max_train_ops=4, max_test_ops=2,
        )
        assert set(name for name, _ in result.accuracy) == set(
            table4_regression.default_regressor_factories()
        )

    def test_table4_regression_worse_than_hill_climbing(self):
        regressors = {"ols": table4_regression.default_regressor_factories()["ols"],
                      "k_neighbors": table4_regression.default_regressor_factories()["k_neighbors"]}
        table4 = table4_regression.run(
            sample_counts=(4,), regressors=regressors, reduced=True,
            max_train_ops=12, max_test_ops=4,
        )
        table5 = table5_hillclimb.run(models=("dcgan",), intervals=(4,), reduced=True)
        best_regression = max(table4.accuracy.values())
        assert table5.accuracy[("dcgan", 4)] > best_regression
        assert "Table IV" in table4_regression.format_report(table4)


class TestSchedulingExperiments:
    @pytest.fixture(scope="class")
    def fig3(self):
        return fig3_strategies.run(models=("dcgan",), include_manual=True, reduced=True)

    def test_fig3_ours_beats_recommendation_and_matches_manual(self, fig3):
        speedups = fig3.speedups()["dcgan"]
        assert speedups["all_strategies"] > 1.1
        assert speedups["all_strategies"] >= speedups["manual"] * 0.9
        assert "Figure 3" in fig3_strategies.format_report(fig3)

    def test_fig3_increments_not_regressive(self, fig3):
        increments = fig3.increments()["dcgan"]
        assert increments["strategies_1_2_vs_recommendation"] >= 0.98
        assert increments["strategy_3_vs_strategies_1_2"] >= 1.0
        assert increments["strategy_4_vs_strategy_3"] >= 0.95

    def test_fig4_corunning_is_dynamic(self):
        result = fig4_corun_events.run(models=("dcgan",), reduced=True, max_events=2000)
        averages = result.averages()
        assert averages[("dcgan", "with_s4")] >= averages[("dcgan", "without_s4")] * 0.95
        series = result.with_s4["dcgan"]
        assert len(set(series)) > 1  # concurrency varies over the step
        assert "Figure 4" in fig4_corun_events.format_report(result)

    def test_table6_strategies_rarely_hurt_top_ops(self):
        result = table6_topops.run(models=("dcgan",), reduced=True, top_n=5)
        entries = result.for_model("dcgan")
        assert len(entries) == 5
        # A few individual op types may regress slightly (Strategy 2 uses the
        # largest instance's thread count for every instance), but the top
        # operations as a group must improve.
        for entry in entries:
            assert entry.speedup > 0.75
        improved = [entry for entry in entries if entry.speedup >= 1.0]
        assert len(improved) >= 3
        total_rec = sum(entry.recommendation_time for entry in entries)
        total_s12 = sum(entry.strategies_1_2_time for entry in entries)
        assert total_s12 <= total_rec * 1.02
        assert "Table VI" in table6_topops.format_report(result)


class TestGpuExperiments:
    def test_fig5_default_launch_not_optimal(self):
        result = fig5_gpu_intraop.run()
        assert result.default_gap_threads("BiasAdd") > 0.05
        assert result.default_gap_threads("MaxPooling") > 0.05
        assert "Figure 5a" in fig5_gpu_intraop.format_report(result)

    def test_table7_corun_speedups_in_paper_range(self):
        result = table7_gpu_corun.run()
        for op in table7_gpu_corun.PAPER_REFERENCE:
            assert 1.5 < result.speedup(op) <= 2.0
        assert "Table VII" in table7_gpu_corun.format_report(result)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table7" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["nope"]) == 2

    def test_run_single_cheap_experiment(self, capsys, tmp_path, monkeypatch):
        # Keep the CLI's default-on cache out of the repo's .sweep_cache:
        # a stale entry there could otherwise mask model-code edits.
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        assert cli_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_jobs_and_cache_flags(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert cli_main(["table3", "--jobs", "2", "--cache-dir", str(cache_dir)]) == 0
        assert "Table III" in capsys.readouterr().out
        assert any(cache_dir.rglob("*.pkl"))  # results were persisted
        assert cli_main(["table3", "--no-cache"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_invalid_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["table3", "--jobs", "0"])

    def test_forwarding_handles_wrapped_run(self, capsys, monkeypatch, tmp_path):
        """_run_one must inspect signatures, not __code__ (which breaks on
        functools-wrapped run functions)."""
        import functools
        import types

        from repro import experiments as experiments_package
        from repro.experiments import cli, table3_corun

        @functools.wraps(table3_corun.run)
        def wrapped_run(*args, **kwargs):
            wrapped_run.called_with = kwargs
            return table3_corun.run(*args, **kwargs)

        module = types.SimpleNamespace(
            run=wrapped_run,
            format_report=table3_corun.format_report,
            PAPER_REFERENCE=table3_corun.PAPER_REFERENCE,
        )
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        monkeypatch.setitem(experiments_package.ALL_EXPERIMENTS, "wrapped", module)
        assert cli.main(["wrapped"]) == 0
        assert "Table III" in capsys.readouterr().out
        assert "executor" in wrapped_run.called_with
        assert "reduced" not in wrapped_run.called_with  # run() doesn't take it


class TestExperimentsBenchHarness:
    def test_report_structure_and_gates(self):
        from benchmarks import experiments_bench

        report = experiments_bench.run_experiments_benchmark(("table3", "fig5"), jobs=2)
        assert report["reports_identical"]
        assert report["phases"]["process-warm"]["tasks_executed"] == 0
        assert report["phases"]["process-warm"]["cache_hits"] > 0
        # The gate checker flags a made-up regression.
        bad = dict(report, headline_speedup=1.0)
        assert any("below" in failure for failure in experiments_bench.check_gates(bad))
        broken = dict(report, reports_identical=False, mismatched_experiments=["table3"])
        assert any("diverged" in failure for failure in experiments_bench.check_gates(broken))
        assert "headline speedup" in experiments_bench.format_report(report)
