"""E7 — ablations of BenchPress's design choices (DESIGN.md §Key design decisions).

Measures the effect on prompt fidelity (the driver of candidate quality) of:

* retrieval-augmented generation (relevant tables + prior examples),
* accumulated domain knowledge injection,
* the number of generated candidates,

on enterprise (Beaver) queries.  Expected direction: each assistance feature
increases effective fidelity; more candidates increase the chance that at
least one candidate is complete.
"""

from repro.core import AnnotationPipeline, TaskConfig
from repro.llm import KnowledgeBase
from repro.metrics import judge_annotation
from repro.reporting import format_table


def _mean_fidelity(pipeline, queries):
    total = 0.0
    for query in queries:
        candidate_set = pipeline.generate_candidates(query.sql)
        total += pipeline.llm.effective_fidelity(candidate_set.prompt)
    return total / len(queries)


def _run_ablation(beaver_workload):
    queries = beaver_workload.queries[:8]
    schema = beaver_workload.schema

    configurations = {
        "full (RAG + knowledge)": TaskConfig(),
        "no RAG": TaskConfig(rag_enabled=False),
        "no knowledge feedback": TaskConfig(knowledge_feedback_enabled=False),
        "no assistance": TaskConfig(rag_enabled=False, knowledge_feedback_enabled=False),
    }

    fidelities = {}
    for label, config in configurations.items():
        pipeline = AnnotationPipeline(schema, config=config, dataset_name="Beaver")
        # Seed domain knowledge and a few prior annotations to emulate an
        # in-progress session (the feedback loop's accumulated state).
        if config.knowledge_feedback_enabled:
            for term, explanation in beaver_workload.spec.domain_terms.items():
                pipeline.feedback_loop.knowledge.add(term, explanation)
        if config.rag_enabled:
            for query in beaver_workload.queries[8:12]:
                pipeline.retriever.record_annotation(query.sql, query.gold_nl)
        fidelities[label] = _mean_fidelity(pipeline, queries)

    # Candidate-count sweep: probability that the best of k candidates is accurate.
    candidate_rates = {}
    for k in (1, 2, 4):
        pipeline = AnnotationPipeline(
            schema, config=TaskConfig(num_candidates=k), dataset_name="Beaver"
        )
        accurate = 0
        for query in queries:
            candidate_set = pipeline.generate_candidates(query.sql)
            if any(judge_annotation(query.sql, c).accurate for c in candidate_set.candidates):
                accurate += 1
        candidate_rates[k] = accurate / len(queries)

    return fidelities, candidate_rates


def test_ablations(benchmark, beaver_workload):
    fidelities, candidate_rates = benchmark.pedantic(
        _run_ablation, args=(beaver_workload,), rounds=1, iterations=1
    )

    print()
    print(format_table(
        ["Configuration", "Mean prompt fidelity"],
        [[label, f"{value:.3f}"] for label, value in fidelities.items()],
        title="Ablation: assistance features (Beaver queries)",
    ))
    print(format_table(
        ["Candidates (k)", "Queries with >=1 accurate candidate"],
        [[str(k), f"{rate * 100:.0f}%"] for k, rate in candidate_rates.items()],
        title="Ablation: number of candidates",
    ))

    assert fidelities["full (RAG + knowledge)"] >= fidelities["no RAG"]
    assert fidelities["full (RAG + knowledge)"] >= fidelities["no assistance"]
    assert fidelities["no RAG"] >= fidelities["no assistance"] - 1e-9
    assert candidate_rates[4] >= candidate_rates[1]
