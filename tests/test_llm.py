"""Tests for the simulated-LLM subsystem: sql2nl, nl2sql, prompts, knowledge."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.llm import (
    KnowledgeBase,
    NLToSQLGenerator,
    Prompt,
    PromptBuilder,
    SimulatedLLM,
    describe_query,
    extract_facts,
    fact_coverage,
    get_profile,
    humanize,
    select_facts,
)
from repro.metrics import compare_execution
from repro.retrieval import ContextRetriever
from repro.sql import parse_select


class TestSql2Nl:
    def test_humanize(self):
        assert humanize("MOIRA_LIST_NAME") == "moira list name"
        assert humanize("camelCase") == "camel case"

    def test_facts_cover_all_clause_kinds(self):
        sql = (
            "SELECT dept_id, COUNT(*), AVG(salary) FROM employees "
            "WHERE salary > 100 AND name LIKE 'A%' GROUP BY dept_id "
            "HAVING COUNT(*) >= 2 ORDER BY dept_id DESC LIMIT 5"
        )
        kinds = {fact.kind for fact in extract_facts(parse_select(sql))}
        assert {"projection", "aggregate", "table", "filter", "group", "having",
                "order", "limit"} <= kinds

    def test_full_fidelity_description_mentions_key_content(self):
        nl = describe_query(
            "SELECT COUNT(*) FROM employees WHERE salary > 100000", fidelity=1.0
        )
        assert "number of rows" in nl
        assert "employees" in nl
        assert "100000" in nl

    def test_distinct_and_set_operation_facts(self):
        facts = extract_facts(parse_select("SELECT DISTINCT a FROM t UNION SELECT b FROM u"))
        kinds = {fact.kind for fact in facts}
        assert "distinct" in kinds and "set_operation" in kinds

    def test_trivial_cte_wrapper_is_unwrapped(self):
        nl = describe_query(
            "WITH summary AS (SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id) "
            "SELECT * FROM summary",
            fidelity=1.0,
        )
        assert "employees" in nl
        assert "summary" not in nl.lower() or "dept" in nl

    def test_low_fidelity_drops_content(self):
        sql = (
            "SELECT a, b, c, SUM(d) FROM t WHERE e = 1 AND f = 2 AND g = 3 "
            "GROUP BY a, b, c ORDER BY a LIMIT 7"
        )
        full = describe_query(sql, fidelity=1.0)
        partial = describe_query(sql, fidelity=0.3, seed="x")
        assert len(partial) < len(full)

    def test_descriptions_are_deterministic(self):
        sql = "SELECT a FROM t WHERE b = 1"
        assert describe_query(sql, fidelity=0.7, seed=1) == describe_query(sql, fidelity=0.7, seed=1)

    def test_different_seeds_can_differ(self):
        sql = "SELECT a, b, c FROM t WHERE d = 1 AND e = 2 ORDER BY a LIMIT 3"
        variants = {describe_query(sql, fidelity=0.6, seed=i) for i in range(6)}
        assert len(variants) > 1

    def test_knowledge_adds_clarification(self):
        knowledge = KnowledgeBase()
        knowledge.add("MOIRA_LIST", "the mailing list system")
        nl = describe_query(
            "SELECT COUNT(*) FROM MOIRA_LIST", fidelity=1.0, knowledge=knowledge
        )
        assert "mailing list system" in nl

    def test_fact_coverage_bounds(self):
        facts = extract_facts(parse_select("SELECT a FROM t WHERE b = 1"))
        assert fact_coverage(facts, describe_query("SELECT a FROM t WHERE b = 1")) == pytest.approx(1.0)
        assert fact_coverage(facts, "something entirely unrelated") < 0.5

    @given(fidelity=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_select_facts_never_empty_and_monotone_bounds(self, fidelity):
        facts = extract_facts(parse_select(
            "SELECT a, SUM(b) FROM t WHERE c = 1 GROUP BY a ORDER BY a LIMIT 3"
        ))
        kept = select_facts(facts, fidelity, seed=3)
        assert 1 <= len(kept) <= len(facts)


class TestNl2Sql:
    def test_round_trip_simple_query(self, hr_schema, hr_database):
        sql = "SELECT name, salary FROM employees WHERE salary > 90000"
        nl = describe_query(sql, fidelity=1.0)
        predicted = NLToSQLGenerator(hr_schema).generate(nl).sql
        assert compare_execution(hr_database, sql, predicted).match

    def test_round_trip_group_by_join(self, hr_schema, hr_database):
        sql = (
            "SELECT departments.dept_name, COUNT(*) FROM employees "
            "JOIN departments ON employees.dept_id = departments.dept_id "
            "GROUP BY departments.dept_name"
        )
        nl = describe_query(sql, fidelity=1.0)
        predicted = NLToSQLGenerator(hr_schema).generate(nl).sql
        assert compare_execution(hr_database, sql, predicted).match

    def test_round_trip_preserves_string_literal_case(self, hr_schema):
        nl = describe_query("SELECT emp_id FROM employees WHERE name = 'Alice'", fidelity=1.0)
        predicted = NLToSQLGenerator(hr_schema).generate(nl).sql
        assert "'Alice'" in predicted

    def test_generator_sees_tables_added_after_its_first_use(self, hr_schema):
        from repro.schema import ColumnSchema, TableSchema

        generator = NLToSQLGenerator(hr_schema)
        first = generator.generate("Find the name of the employees table.")
        assert first.sql == "SELECT name FROM employees"
        hr_schema.add_table(
            TableSchema("projects", [ColumnSchema("project_name"), ColumnSchema("budget")])
        )
        second = generator.generate("Find the project name of the projects table.")
        assert second.matched_tables == ["projects"]
        assert second.sql == "SELECT project_name FROM projects"

    def test_no_table_mention_yields_no_sql(self):
        from repro.schema import DatabaseSchema

        generator = NLToSQLGenerator(DatabaseSchema(name="empty"))
        result = generator.generate("Find the average of something undefined.")
        assert result.sql is None
        assert not result.produced_sql

    def test_limit_and_order_are_reconstructed(self, hr_schema):
        sql = "SELECT name FROM employees ORDER BY salary DESC LIMIT 3"
        nl = describe_query(sql, fidelity=1.0)
        result = NLToSQLGenerator(hr_schema).generate(nl)
        assert result.select.limit == 3
        assert result.select.order_by and result.select.order_by[0].ascending is False

    def test_in_subquery_round_trip(self, hr_schema, hr_database):
        sql = (
            "SELECT name FROM employees WHERE dept_id IN "
            "(SELECT dept_id FROM departments WHERE budget >= 300000)"
        )
        nl = describe_query(sql, fidelity=1.0)
        predicted = NLToSQLGenerator(hr_schema).generate(nl).sql
        assert compare_execution(hr_database, sql, predicted).match

    def test_boolean_filter_round_trip(self):
        from repro.engine import Database
        from repro.schema import parse_ddl_script

        ddl = "CREATE TABLE flags (id INT, active BOOLEAN)"
        database = Database()
        database.execute(ddl)
        database.execute("INSERT INTO flags VALUES (1, TRUE), (2, FALSE), (3, TRUE)")
        schema = parse_ddl_script(ddl)
        sql = "SELECT id FROM flags WHERE active = TRUE"
        predicted = NLToSQLGenerator(schema).generate(describe_query(sql, fidelity=1.0)).sql
        assert compare_execution(database, sql, predicted).match


class TestPromptsAndKnowledge:
    def test_prompt_render_contains_sections(self, hr_schema):
        retriever = ContextRetriever(hr_schema)
        retriever.record_annotation("SELECT COUNT(*) FROM employees", "How many employees?")
        context = retriever.retrieve("SELECT name FROM employees")
        knowledge = KnowledgeBase()
        knowledge.add("employees", "people employed by the organisation")
        prompt = PromptBuilder(num_candidates=4).build(
            "SELECT name FROM employees", context=context, knowledge=knowledge,
            priorities=["emphasise filtering logic"],
        )
        text = prompt.render()
        assert "Relevant schema" in text
        assert "Example 1" in text
        assert "Domain knowledge" in text
        assert "emphasise filtering logic" in text
        assert prompt.has_schema_context and prompt.has_examples and prompt.has_knowledge

    def test_vanilla_prompt_has_no_context(self):
        prompt = PromptBuilder().build("SELECT a FROM t", context=None)
        assert not prompt.has_schema_context
        assert not prompt.has_examples

    def test_knowledge_base_dedupes_terms(self):
        knowledge = KnowledgeBase()
        knowledge.add("J-term", "January term")
        knowledge.add("j-term", "the one-month January term")
        assert len(knowledge) == 1
        assert knowledge.lookup("J-TERM").explanation == "the one-month January term"

    def test_knowledge_relevance_and_coverage(self):
        knowledge = KnowledgeBase()
        knowledge.add("MOIRA_LIST", "mailing lists")
        assert knowledge.relevant_entries("SELECT * FROM MOIRA_LIST")
        assert knowledge.relevant_entries("SELECT * FROM PAYROLL") == []
        assert knowledge.coverage("SELECT * FROM MOIRA_LIST") > 0
        assert knowledge.coverage("SELECT * FROM PAYROLL") == 0

    def test_failure_patterns_rendered(self):
        knowledge = KnowledgeBase()
        knowledge.add_failure_pattern("ignores ordering", "always describe ORDER BY")
        assert "ignores ordering" in knowledge.render_for_prompt("SELECT 1")


class TestSimulatedLLM:
    def test_context_increases_fidelity(self, hr_schema):
        llm = SimulatedLLM("gpt-4o", schema=hr_schema)
        builder = PromptBuilder()
        retriever = ContextRetriever(hr_schema)
        sql = "SELECT name FROM employees WHERE salary > 100000"
        with_context = llm.effective_fidelity(builder.build(sql, context=retriever.retrieve(sql)))
        without_context = llm.effective_fidelity(builder.build(sql, context=None))
        assert with_context > without_context

    def test_complex_queries_have_lower_fidelity(self, hr_schema):
        llm = SimulatedLLM("gpt-4o", schema=hr_schema)
        builder = PromptBuilder()
        simple = llm.effective_fidelity(builder.build("SELECT name FROM employees"))
        complex_sql = (
            "SELECT d.dept_name, COUNT(*), AVG(e.salary) FROM employees e "
            "JOIN departments d ON e.dept_id = d.dept_id "
            "WHERE e.salary > (SELECT AVG(salary) FROM employees) "
            "GROUP BY d.dept_name HAVING COUNT(*) > 1 ORDER BY 2 DESC"
        )
        complex_fidelity = llm.effective_fidelity(builder.build(complex_sql))
        assert complex_fidelity < simple

    def test_model_profiles_ranked(self, hr_schema):
        builder = PromptBuilder()
        sql = "SELECT a FROM t"
        strong = SimulatedLLM("gpt-4o").effective_fidelity(builder.build(sql))
        weak = SimulatedLLM("gpt-3.5-turbo").effective_fidelity(builder.build(sql))
        assert strong > weak

    def test_generation_returns_requested_candidates(self, hr_schema):
        llm = SimulatedLLM("gpt-4o", schema=hr_schema)
        prompt = PromptBuilder(num_candidates=4).build("SELECT name FROM employees")
        result = llm.generate(prompt)
        assert 1 <= len(result.candidates) <= 4
        assert result.model_name == "gpt-4o"
        assert llm.usage.requests == 1

    def test_unparseable_prompt_raises_the_parser_error(self, hr_schema):
        prompt = PromptBuilder().build("SELEC name FRM employees")
        with pytest.raises(Exception) as parsed:
            parse_select(prompt.sql)
        llm = SimulatedLLM("gpt-4o", schema=hr_schema)
        for generate in (lambda: llm.generate(prompt), lambda: llm.generate_batch([prompt])):
            with pytest.raises(type(parsed.value)) as raised:
                generate()
            assert str(raised.value) == str(parsed.value)
        assert llm.usage.as_dict() == SimulatedLLM("gpt-4o").usage.as_dict()

    def test_backtranslate_uses_schema(self, hr_schema):
        llm = SimulatedLLM("gpt-4o", schema=hr_schema)
        sql = llm.backtranslate("Find the name, from the employees table.")
        assert sql is not None and "employees" in sql

    def test_backtranslate_without_schema_returns_none(self):
        assert SimulatedLLM("gpt-4o").backtranslate("anything") is None

    def test_unknown_model_gets_generic_profile(self):
        assert get_profile("mystery-model").name == "mystery-model"
