"""Tests for workload generation, the simulated user study, Figure 1 harness and reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.evaluation import (
    GENERAL_MODELS,
    TEXT2SQL_PROFILES,
    ModelBenchmarkScore,
    SimulatedText2SQLModel,
    best_model_for,
    evaluate_model_on_workload,
    run_figure1,
)
from repro.metrics import GoldResultCache, compare_execution, profile_query_set
from repro.reporting import (
    format_table,
    render_figure1,
    render_figure4,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.schema import profile_database
from repro.sql import parse_select
from repro.study import (
    CONDITION_ORDER,
    Condition,
    StudyRunner,
    accuracy_table,
    assign_conditions,
    backtranslation_figure,
    latency_table,
    make_participants,
)
from repro.workloads import (
    BENCHMARK_NAMES,
    beaver_spec,
    build_benchmark,
    spider_spec,
)


class TestWorkloadGeneration:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            build_benchmark("NotABenchmark")

    def test_benchmark_names(self):
        assert BENCHMARK_NAMES == ("Spider", "Bird", "Fiben", "Beaver")

    def test_specs_reflect_paper_scale_relations(self):
        beaver = beaver_spec()
        spider = spider_spec()
        assert beaver.table_count > spider.table_count
        assert beaver.columns_per_table_min > spider.columns_per_table_min
        assert beaver.null_rate > spider.null_rate
        assert beaver.column_name_duplication > spider.column_name_duplication

    def test_generated_queries_parse_and_execute(self, tiny_spider):
        assert len(tiny_spider.queries) == 10
        for query in tiny_spider.queries:
            parse_select(query.sql)
            tiny_spider.database.execute(query.sql)

    def test_queries_have_gold_nl_and_tables(self, tiny_spider):
        for query in tiny_spider.queries:
            assert query.gold_nl
            assert query.tables
            assert query.dataset == "Spider"

    def test_generation_is_deterministic(self):
        first = build_benchmark("Spider", seed=5, row_scale=0.002, query_count=5)
        second = build_benchmark("Spider", seed=5, row_scale=0.002, query_count=5)
        assert [q.sql for q in first.queries] == [q.sql for q in second.queries]

    def test_generation_is_independent_of_hash_seed(self):
        # str hashes are salted per process, so only a fresh interpreter per
        # PYTHONHASHSEED can show whether generation depends on them.
        script = (
            "import hashlib, json\n"
            "from repro.workloads import BENCHMARK_NAMES, build_benchmark\n"
            "def digest(value):\n"
            "    return hashlib.sha256(repr(value).encode()).hexdigest()\n"
            "workloads = {name: build_benchmark(name, seed=7, row_scale=0.0015, query_count=20)\n"
            "             for name in BENCHMARK_NAMES}\n"
            "print(json.dumps({name: {\n"
            "    'sql': digest([q.sql for q in w.queries]),\n"
            "    'gold_nl': digest([q.gold_nl for q in w.queries]),\n"
            "    'rows': digest([(t.name, t.rows) for t in w.database.tables()]),\n"
            "} for name, w in workloads.items()}))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        workers = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH", "")])
            )
            workers.append(
                subprocess.Popen(
                    [sys.executable, "-c", script],
                    env=env,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )
        digests = []
        for worker in workers:
            stdout, _ = worker.communicate(timeout=120)
            assert worker.returncode == 0
            digests.append(json.loads(stdout))
        assert set(digests[0]) == set(BENCHMARK_NAMES)
        assert digests[0] == digests[1]

    def test_different_seeds_differ(self):
        first = build_benchmark("Spider", seed=5, row_scale=0.002, query_count=5)
        second = build_benchmark("Spider", seed=6, row_scale=0.002, query_count=5)
        assert [q.sql for q in first.queries] != [q.sql for q in second.queries]

    def test_beaver_is_more_complex_than_spider(self, tiny_spider, tiny_beaver):
        spider_profile = profile_query_set("Spider", tiny_spider.query_sql).averages
        beaver_profile = profile_query_set("Beaver", tiny_beaver.query_sql).averages
        assert beaver_profile["tokens"] > spider_profile["tokens"]
        assert beaver_profile["tables"] > spider_profile["tables"]
        assert beaver_profile["aggregations"] > spider_profile["aggregations"]

    def test_beaver_data_profile_vs_spider(self, tiny_spider, tiny_beaver):
        spider_data = profile_database(tiny_spider.database)
        beaver_data = profile_database(tiny_beaver.database)
        assert beaver_data.columns_per_table > spider_data.columns_per_table
        assert beaver_data.tables_per_db > spider_data.tables_per_db
        assert beaver_data.sparsity > spider_data.sparsity
        assert beaver_data.uniqueness < spider_data.uniqueness

    def test_sample_queries_deterministic(self, tiny_spider):
        assert [q.query_id for q in tiny_spider.sample_queries(3, seed=1)] == [
            q.query_id for q in tiny_spider.sample_queries(3, seed=1)
        ]


class TestStudy:
    def test_participants_are_balanced(self):
        participants = make_participants(18, seed=0)
        advanced = [p for p in participants if p.is_advanced]
        assert len(participants) == 18
        assert len(advanced) == 9

    def test_assignment_counterbalanced(self):
        participants = make_participants(18, seed=0)
        assignment = assign_conditions(participants)
        for condition in CONDITION_ORDER:
            members = [pid for pid, c in assignment.items() if c is condition]
            assert len(members) == 6

    def test_study_produces_tables_and_figure(self, tiny_beaver, tiny_bird):
        runner = StudyRunner(
            tiny_beaver, tiny_bird, participant_count=6, queries_per_dataset=3, seed=1
        )
        result = runner.run()
        assert len(result.annotations) == 6 * 6  # 6 participants x 6 queries

        accuracy = accuracy_table(result)
        latency = latency_table(result)
        assert set(accuracy.per_dataset) == {"Beaver", "Bird"}
        # Latency ordering: Manual slowest, BenchPress fastest overall.
        assert latency.total[Condition.MANUAL] > latency.total[Condition.VANILLA_LLM]
        assert latency.total[Condition.MANUAL] > latency.total[Condition.BENCHPRESS]
        # Accuracy ordering: BenchPress at least as good as Manual overall.
        assert accuracy.overall[Condition.BENCHPRESS] >= accuracy.overall[Condition.MANUAL]

        figure = backtranslation_figure(
            result, {"Beaver": tiny_beaver, "Bird": tiny_bird}, max_per_condition=4
        )
        for condition in CONDITION_ORDER:
            assert sum(figure.distribution[condition].values()) <= 4
            assert set(figure.distribution[condition]) == {1, 2, 3, 4, 5}

    def test_study_requires_enough_participants(self, tiny_beaver, tiny_bird):
        from repro.errors import StudyError

        with pytest.raises(StudyError):
            StudyRunner(tiny_beaver, tiny_bird, participant_count=2)


class TestEvaluationHarness:
    def test_best_model_mapping(self):
        assert best_model_for("Spider") == "miniSeek"
        assert best_model_for("beaver") == "contextModel"
        assert best_model_for("unknown") == "GPT-4o"

    def test_model_prediction_and_accuracy(self, tiny_spider):
        model = SimulatedText2SQLModel.for_workload("GPT-4o", tiny_spider)
        score = evaluate_model_on_workload(model, tiny_spider, max_queries=5)
        assert 0.0 <= score.accuracy <= 1.0
        assert score.evaluated_queries > 0

    def test_comprehension_decreases_with_complexity(self, tiny_spider, tiny_beaver):
        model_public = SimulatedText2SQLModel.for_workload("GPT-4o", tiny_spider)
        model_enterprise = SimulatedText2SQLModel.for_workload("GPT-4o", tiny_beaver)
        simple = model_public.comprehension_for(tiny_spider.queries[0].sql)
        complex_scores = [
            model_enterprise.comprehension_for(query.sql) for query in tiny_beaver.queries
        ]
        assert simple > sum(complex_scores) / len(complex_scores)

    def test_run_figure1_structure(self, tiny_spider, tiny_beaver):
        result = run_figure1(
            {"Spider": tiny_spider, "Beaver": tiny_beaver},
            models=("GPT-4o",),
            include_best_models=False,
            max_queries=5,
        )
        series = result.series("GPT-4o")
        assert set(series) == {"Spider", "Beaver"}
        assert result.accuracy("GPT-4o", "Spider") == series["Spider"]
        with pytest.raises(KeyError):
            result.accuracy("GPT-4o", "Fiben")
        assert isinstance(result.enterprise_gap("GPT-4o"), float)

    def test_general_models_defined(self):
        assert "GPT-4o" in GENERAL_MODELS


#: The Figure 1 harness scale (``benchmarks/conftest.py``).
HARNESS_ROW_SCALE = 0.0015
HARNESS_QUERY_COUNT = 20
HARNESS_MAX_QUERIES = 12


@pytest.fixture(scope="module")
def harness_workloads():
    """Every benchmark family at the Figure 1 harness scale, by generator seed 0-2."""
    return {
        seed: {
            name: build_benchmark(
                name, seed=seed, row_scale=HARNESS_ROW_SCALE, query_count=HARNESS_QUERY_COUNT
            )
            for name in BENCHMARK_NAMES
        }
        for seed in range(3)
    }


def _figure1_models(benchmark: str) -> tuple[str, ...]:
    return (*GENERAL_MODELS, best_model_for(benchmark))


class TestFigure1SharedWork:
    """One gold parse per question and one comparison per distinct pair."""

    @pytest.mark.parametrize("seed", range(3))
    def test_predict_shares_the_cached_gold_tree(self, harness_workloads, seed):
        for name, workload in harness_workloads[seed].items():
            database = workload.database
            ambiguity = 1.0 - profile_database(database).uniqueness
            models = [
                (
                    SimulatedText2SQLModel.for_workload(model_name, workload),
                    # The same model parsing gold into a fresh tree each time.
                    SimulatedText2SQLModel(
                        TEXT2SQL_PROFILES[model_name], workload.schema, schema_ambiguity=ambiguity
                    ),
                )
                for model_name in _figure1_models(name)
            ]
            for query in workload.queries:
                tree = database.parse_cached(query.sql)
                before = repr(tree)
                hits, misses = database.statement_cache_hits, database.statement_cache_misses
                for shared, fresh in models:
                    assert shared.predict(query.gold_nl, query.sql) == fresh.predict(
                        query.gold_nl, query.sql
                    ), (name, query.query_id, shared.name)
                # Each shared model read the gold through the statement cache.
                assert database.statement_cache_hits == hits + len(models)
                assert database.statement_cache_misses == misses
                assert database.parse_cached(query.sql) is tree
                assert repr(tree) == before, (name, query.query_id)

    def test_memoised_comparisons_equal_uncached_ones(self, harness_workloads):
        # Seed 0 only: seeds 1 and 2 each hold predicted cross joins that take
        # 10-105 s to execute, because evaluation is not yet bounded.
        workloads = harness_workloads[0]
        expected = []
        pairs = []
        for name, workload in workloads.items():
            database = workload.database
            cache = GoldResultCache(database)
            for model_name in _figure1_models(name):
                model = SimulatedText2SQLModel.for_workload(model_name, workload)
                evaluated = matches = 0
                for query in workload.queries[:HARNESS_MAX_QUERIES]:
                    predicted = model.predict(query.gold_nl, query.sql)
                    pairs.append((name, query.sql, predicted))
                    shared = compare_execution(database, query.sql, predicted, gold_cache=cache)
                    uncached = compare_execution(database, query.sql, predicted)
                    assert shared == uncached, (name, model_name, query.query_id)
                    evaluated += uncached.gold_executed
                    matches += uncached.gold_executed and uncached.match
                expected.append(ModelBenchmarkScore(
                    model_name, name, matches / evaluated if evaluated else 0.0, evaluated, matches
                ))
        assert len(set(pairs)) < len(pairs)  # some models repeat a prediction
        result = run_figure1(workloads, max_queries=HARNESS_MAX_QUERIES)
        assert result.scores == expected


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]], title="T")
        assert text.startswith("T\n")
        assert "333" in text

    def test_render_table1_and_2(self, tiny_spider, tiny_beaver):
        from repro.metrics import build_table1, profile_databases, build_table2

        profiles = {
            "Beaver": profile_query_set("Beaver", tiny_beaver.query_sql),
            "Spider": profile_query_set("Spider", tiny_spider.query_sql),
        }
        rows = build_table1(profiles, "Beaver")
        text = render_table1("Beaver", profiles["Beaver"].averages, rows)
        assert "Table 1" in text and "Spider" in text

        data_profiles = profile_databases(
            {"Beaver": tiny_beaver.database, "Spider": tiny_spider.database}
        )
        text2 = render_table2("Beaver", data_profiles["Beaver"].as_dict(), build_table2(data_profiles, "Beaver"))
        assert "Table 2" in text2 and "Uniqueness" in text2

    def test_render_study_tables_and_figures(self, tiny_beaver, tiny_bird):
        runner = StudyRunner(tiny_beaver, tiny_bird, participant_count=3, queries_per_dataset=2, seed=0)
        result = runner.run()
        accuracy_text = render_table3(accuracy_table(result))
        latency_text = render_table4(latency_table(result))
        assert "BenchPress" in accuracy_text and "Manual" in accuracy_text
        assert "min" in latency_text
        figure = backtranslation_figure(result, {"Beaver": tiny_beaver, "Bird": tiny_bird},
                                        max_per_condition=2)
        assert "level 5" in render_figure4(figure)

    def test_render_figure1(self):
        text = render_figure1(
            {"GPT-4o": {"Spider": 0.9, "Beaver": 0.1}}, best_models={"Spider": "miniSeek"}
        )
        assert "Figure 1" in text and "miniSeek" in text

    def test_render_figure1_marks_unscored_cells(self):
        text = render_figure1(
            {"GPT-4o": {"Spider": 0.9, "Bird": 0.0}, "miniSeek": {"Spider": 1.0}}
        )
        rows = {line.split(" | ")[0].strip(): line.split(" | ") for line in text.splitlines()}
        assert [cell.strip() for cell in rows["GPT-4o"][1:]] == ["90.0%", "0.0%"]
        assert [cell.strip() for cell in rows["miniSeek"][1:]] == ["100.0%", "—"]
