"""The BenchPress annotation loop (paper §4.1, steps 3.5–7).

For each SQL query the pipeline:

1. optionally *decomposes* nested queries into CTE-style logical units,
2. *retrieves* context — similar prior annotations and the relevant schema
   tables,
3. *generates* candidate NL descriptions with the configured (simulated) LLM,
4. optionally *recomposes* per-unit descriptions into one explanation,
5. applies *human feedback* (accept/edit/rewrite/discard, priorities,
   domain knowledge),
6. records accepted annotations — both into the export set and into the
   example store so later queries retrieve them (the growing-archive effect
   the paper describes).

Bulk annotation (:meth:`AnnotationPipeline.annotate_many`) runs as a *wave
scheduler*: queries are parsed and decomposed up front, retrieval for a wave
is one vectorized pass, generation for the wave is one batched LLM call, and
feedback/commit then runs per query in order.  Because committing an accepted
annotation can change what the *next* query in the same wave would have
retrieved, each query's prompts are re-validated against the live store at
commit time and regenerated individually when stale — so the batched path
produces bit-identical annotations to a sequential loop while spending far
fewer LLM round trips, and the paper's growing-archive effect is preserved
exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.config import TaskConfig
from repro.core.feedback import Feedback, FeedbackAction, FeedbackLoop
from repro.core.journal import ANNOTATION_COMMITTED, FEEDBACK_APPLIED, EventJournal
from repro.errors import DeadlineExceededError, JournalError, PipelineError
from repro.llm.base import LLMClient
from repro.llm.prompts import Prompt, PromptBuilder
from repro.llm.resilience import Deadline
from repro.llm.simulated import SimulatedLLM
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.retrieval.retriever import ContextRetriever, References, RetrievedContext
from repro.schema.model import DatabaseSchema
from repro.sql.analyzer import is_nested
from repro.sql.ast_nodes import Select
from repro.sql.decompose import DecompositionResult, decompose
from repro.sql.lexer import tokenize
from repro.sql.normalizer import QueryKeys, token_keys
from repro.sql.parser import parse_select
from repro.sql.printer import PrintedToken
from repro.sql.recompose import recompose

@dataclass
class CandidateSet:
    """Candidates generated for one query, plus the context that produced them."""

    sql: str
    candidates: list[str]
    dataset: str = ""
    prompt: Prompt | None = None
    context: RetrievedContext | None = None
    decomposition: DecompositionResult | None = None
    unit_candidates: dict[str, list[str]] = field(default_factory=dict)
    model_name: str = ""
    #: Pre-parsed AST and retrieval keys of :attr:`sql` (optimisation hints:
    #: the commit links and archives the statement from them instead of
    #: parsing or lexing the text again).
    ast: object | None = field(default=None, init=False, compare=False, repr=False)
    keys: QueryKeys | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def was_decomposed(self) -> bool:
        """Whether the nested-query decomposition path was taken."""
        return self.decomposition is not None and self.decomposition.was_nested


@dataclass
class WaveStats:
    """Accounting for one :meth:`AnnotationPipeline.annotate_many` run."""

    queries: int = 0
    waves: int = 0
    batched_queries: int = 0
    regenerated_queries: int = 0
    llm_requests: int = 0


@dataclass
class _WaveItem:
    """One query's in-flight state inside a wave."""

    statement: str  # as submitted
    sql: str  # without surrounding blanks and trailing semicolons
    query_id: str | None
    decomposition: DecompositionResult | None
    unit_names: list[str | None]  # None = whole-query (flat) unit
    unit_sqls: list[str]
    commit_tag: object = None  # opaque caller tag journaled with the commit
    select: Select | None = None  # phase-1 parse of ``sql``
    keys: QueryKeys | None = None  # retrieval keys of ``sql``
    unit_asts: list[Select] = field(default_factory=list)  # one tree per unit
    # Per unit: its lex as (kind, value) pairs, and the keys derived from it.
    unit_tokens: list[list[PrintedToken] | None] = field(default_factory=list)
    unit_keys: list[QueryKeys] = field(default_factory=list)
    # The decomposer's (tables, columns) per unit; None = walk the tree.
    unit_references: list[References | None] = field(default_factory=list)
    contexts: list[RetrievedContext | None] = field(default_factory=list)
    prompts: list[Prompt] = field(default_factory=list)
    candidate_lists: list[list[str]] = field(default_factory=list)


@dataclass
class AnnotationRecord:
    """One accepted (or discarded) annotation."""

    query_id: str
    sql: str
    nl: str
    dataset: str = ""
    accepted: bool = True
    action: str = FeedbackAction.ACCEPT.value
    candidates: list[str] = field(default_factory=list)
    was_decomposed: bool = False
    model_name: str = ""


class AnnotationPipeline:
    """Drives the annotation loop for one project/dataset."""

    def __init__(
        self,
        schema: DatabaseSchema,
        config: TaskConfig | None = None,
        llm: LLMClient | None = None,
        retriever: ContextRetriever | None = None,
        feedback_loop: FeedbackLoop | None = None,
        dataset_name: str = "",
    ) -> None:
        self.config = config or TaskConfig()
        self.config.validate()
        self.schema = schema
        self.dataset_name = dataset_name
        self.feedback_loop = feedback_loop or FeedbackLoop()
        self.retriever = retriever or ContextRetriever(
            schema, top_k_examples=self.config.top_k_examples
        )
        self.llm = llm or SimulatedLLM(
            self.config.model_name, schema=schema, knowledge=self.feedback_loop.knowledge
        )
        self._prompt_builder = PromptBuilder(
            num_candidates=self.config.num_candidates,
            max_examples=self.config.top_k_examples,
        )
        self.annotations: list[AnnotationRecord] = []
        self.last_run_stats = WaveStats()
        self._counter = 0
        self._retry_policy = self.config.retry_policy()
        # Jitter salt for LLM retry backoff: keyed by project so concurrent
        # tenants hitting the same transient error don't retry in lockstep.
        self._retry_salt = dataset_name
        self._journal: EventJournal | None = None
        self._journal_project = dataset_name
        #: Observability sink; no-op unless a service injects a live one.
        self.telemetry: Telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def attach_journal(self, journal: EventJournal | None, project: str | None = None) -> None:
        """Start (or stop, with ``None``) journaling this pipeline's commits.

        Every record produced by :meth:`submit_feedback` — and the example it
        commits to the archive, and the feedback that produced it — is
        appended to the journal as one atomic ``annotation_committed`` event;
        feedback that produces no record (regeneration requests) is journaled
        as ``feedback_applied``.  Must not be attached while a replay is
        rebuilding this pipeline, or events would be journaled twice.
        """
        self._journal = journal
        if project is not None:
            self._journal_project = project

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Propagate one telemetry sink through this pipeline's components.

        Covers the LLM client (call/retry/backoff accounting) and the example
        archive (search accounting) in addition to the pipeline itself; passing :data:`~repro.obs.NULL_TELEMETRY` detaches.
        """
        self.telemetry = telemetry
        self.llm.telemetry = telemetry
        self.retriever.example_store.telemetry = telemetry

    # ------------------------------------------------------------------
    # candidate generation (steps 3.5 - 5.5)
    # ------------------------------------------------------------------

    def generate_candidates(self, sql: str, query_id: str | None = None) -> CandidateSet:
        """Run decomposition, retrieval and LLM generation for one query.

        This is a wave's phase 1 followed by the sequential regeneration step
        for a single item, so it produces exactly what a size-1 wave would.
        """
        return self._regenerate(self._prepare_item(sql, query_id), None, None)

    def _prepare_item(
        self, sql: str, query_id: str | None = None, commit_tag: object = None
    ) -> _WaveItem:
        """Strip, parse and (when nested) decompose one statement."""
        statement, sql = sql, sql.strip().rstrip(";")
        if not sql:
            raise PipelineError("cannot annotate an empty SQL string")
        select = parse_select(sql)
        # The parse's lex, answered by the lexer's cache.
        tokens = [(token.kind, token.value) for token in tokenize(sql)]
        keys = token_keys(tokens)
        decomposition = (
            decompose(select)
            if self.config.decomposition_enabled and is_nested(select)
            else None
        )
        if decomposition is not None and decomposition.was_nested:
            unit_names: list[str | None] = [unit.name for unit in decomposition.units]
            unit_sqls = [unit.sql for unit in decomposition.units]
            # The decomposer's trees, shared read-only by linking, retrieval,
            # prompts and the LLM: each parses back from its unit's text to
            # an identical tree (tests/test_sql_roundtrip.py), so nothing
            # parses the unit texts again.  Their keys come from the tokens
            # the decomposer printed them with and their references from its
            # walk, so nothing lexes or walks them again either.
            unit_asts = [unit.query for unit in decomposition.units]
            unit_tokens = [unit.tokens for unit in decomposition.units]
            unit_keys = [unit.keys for unit in decomposition.units]
            unit_references = [(unit.tables, unit.columns) for unit in decomposition.units]
        else:
            decomposition = None
            unit_names = [None]
            unit_sqls = [sql]
            unit_asts = [select]  # phase-1 parse reused downstream
            unit_tokens = [tokens]
            unit_keys = [keys]
            unit_references = [None]
        return _WaveItem(
            statement=statement,
            sql=sql,
            query_id=query_id,
            decomposition=decomposition,
            unit_names=unit_names,
            unit_sqls=unit_sqls,
            commit_tag=commit_tag,
            select=select,
            keys=keys,
            unit_asts=unit_asts,
            unit_tokens=unit_tokens,
            unit_keys=unit_keys,
            unit_references=unit_references,
        )

    def _retrieve(
        self,
        sql: str,
        ast: object | None,
        keys: QueryKeys,
        references: References | None = None,
    ) -> RetrievedContext | None:
        if not self.config.rag_enabled:
            return None
        return self.retriever.retrieve(sql, ast=ast, keys=keys, references=references)

    def _build_prompt(
        self,
        sql: str,
        context: RetrievedContext | None,
        ast: object | None = None,
        tokens: list[PrintedToken] | None = None,
    ) -> Prompt:
        knowledge = (
            self.feedback_loop.knowledge if self.config.knowledge_feedback_enabled else None
        )
        return self._prompt_builder.build(
            sql,
            context=context,
            knowledge=knowledge,
            priorities=self.feedback_loop.priorities,
            ast=ast,
            tokens=tokens,
        )

    def _merge_unit_candidates(
        self, decomposition: DecompositionResult, unit_candidates: dict[str, list[str]]
    ) -> list[str]:
        """Recompose per-unit candidate descriptions into whole-query ones."""
        merged: list[str] = []
        for candidate_index in range(self.config.num_candidates):
            descriptions = {
                name: candidates[min(candidate_index, len(candidates) - 1)]
                for name, candidates in unit_candidates.items()
                if candidates
            }
            merged_text = recompose(decomposition, descriptions).text
            if merged_text not in merged:
                merged.append(merged_text)
        return merged

    # ------------------------------------------------------------------
    # feedback + acceptance (steps 6 - 7)
    # ------------------------------------------------------------------

    def submit_feedback(
        self,
        candidate_set: CandidateSet,
        feedback: Feedback,
        query_id: str | None = None,
        commit_tag: object = None,
        *,
        tagged_sql: str | None = None,
    ) -> AnnotationRecord | None:
        """Apply annotator feedback; returns the record when one is produced.

        ``None`` is returned when the feedback asks for regeneration (call
        :meth:`generate_candidates` again — the new priorities and knowledge
        are already folded into the session).

        This is the pipeline's durability commit point: with a journal
        attached, the produced record, the example it adds to the archive and
        the feedback that shaped it are appended as *one* atomic event, so a
        crash either persists the whole commit or none of it.  ``commit_tag``
        is an opaque caller token (the service passes job ids) embedded in the
        event so replay can settle queue bookkeeping.  ``tagged_sql`` is the
        statement submitted under that tag (the job's SQL); when the record's
        SQL equals it, the journaled record leaves its SQL out and replay
        takes it from the job.
        """
        outcome = self.feedback_loop.apply(candidate_set.candidates, feedback)
        if outcome.needs_regeneration:
            if self._journal is not None:
                self._journal.append(
                    FEEDBACK_APPLIED,
                    {
                        "project": self._journal_project,
                        "feedback": feedback.to_state(),
                        "candidates": list(candidate_set.candidates),
                    },
                )
            return None

        self._counter += 1
        record = AnnotationRecord(
            query_id=query_id or f"{(self.dataset_name or 'query').lower()}-{self._counter:05d}",
            sql=candidate_set.sql,
            nl=outcome.final_text or "",
            dataset=self.dataset_name,
            accepted=outcome.accepted,
            action=outcome.action.value,
            candidates=list(candidate_set.candidates),
            was_decomposed=candidate_set.was_decomposed,
            model_name=candidate_set.model_name,
        )
        self.annotations.append(record)

        example = None
        if outcome.accepted and self.config.auto_accept_into_examples and record.nl:
            example = self.retriever.record_annotation(
                record.sql,
                record.nl,
                dataset=self.dataset_name,
                ast=candidate_set.ast,
                keys=candidate_set.keys,
            )
        if self._journal is not None:
            # Shallow dicts, not dataclasses.asdict: the payload is consumed
            # by json.dumps before anything can mutate it, and asdict's
            # recursive deep copy is measurable on this per-commit path.  The
            # example leaves out its SQL and NL, which are the record's
            # (stripped), and carries the skeleton and the feature profile
            # the archive just computed, with the hashes of the features the
            # text brought into the archive, so replay need not lex,
            # tokenise, count or hash its text again.
            example_state = None
            if example is not None:
                store = self.retriever.example_store
                example_state = {
                    "example_id": example.example_id,
                    "dataset": example.dataset,
                    "tables": example.tables,
                    "quality": example.quality,
                    "skeleton": store.skeleton(example.example_id),
                }
                profile = store.profile_state(example.example_id)
                if profile is not None:
                    example_state["profile"] = profile
            record_state = vars(record)
            if commit_tag is not None and record.sql == tagged_sql:
                record_state = dict(record_state)
                del record_state["sql"]
            self._journal.append(
                ANNOTATION_COMMITTED,
                {
                    "project": self._journal_project,
                    "job_id": commit_tag,
                    "record": record_state,
                    "feedback": feedback.to_state(),
                    "example": example_state,
                },
            )
        return record

    def annotate(self, sql: str, query_id: str | None = None) -> AnnotationRecord:
        """Annotate one statement, accepting the top candidate: a size-1 wave."""
        return self.annotate_many([sql], [query_id])[0]

    def annotate_many(
        self,
        statements: list[str],
        query_ids: list[str | None] | None = None,
        batch_size: int | None = None,
        commit_tags: list | None = None,
    ) -> list[AnnotationRecord]:
        """Annotate SQL statements in batched waves with accept-top feedback.

        The statements are processed in waves of up to ``batch_size``
        (defaulting to :attr:`TaskConfig.batch_size`): each wave is parsed
        and decomposed up front, retrieval runs as one vectorized pass,
        generation is one batched LLM call, then feedback and example-store
        commits run per query in submission order.  Prompts invalidated by an
        intra-wave commit are regenerated individually, so the records are
        identical to a sequential loop of size-1 waves (:meth:`annotate`).

        Waves are sized from the live archive (see :meth:`WaveRun.run_next_wave`).

        A statement that fails stops the run: the statements before it are
        committed, and its exception is raised as soon as the run parks it
        (see :meth:`WaveRun.run_next_wave`).
        """
        run = self.wave_run(
            statements, query_ids=query_ids, batch_size=batch_size, commit_tags=commit_tags
        )
        while not run.done:
            for outcome in run.run_next_wave():
                if isinstance(outcome, Exception):
                    raise outcome
        run.finish()
        return run.records

    def wave_run(
        self,
        statements: list[str],
        query_ids: list[str | None] | None = None,
        batch_size: int | None = None,
        commit_tags: list | None = None,
        deadline: Deadline | None = None,
    ) -> "WaveRun":
        """An incremental :class:`WaveRun` over these statements.

        :meth:`annotate_many` is exactly ``wave_run(...)`` driven to
        completion in a loop; the service's drain scheduler instead
        interleaves ``run_next_wave`` calls from several projects' runs, one
        wave per project per round, which is what makes drains fair *and*
        bit-identical per project.  A ``deadline`` is carried into every
        wave's LLM calls, shrinking their timeouts as the budget runs down.
        """
        return WaveRun(
            self,
            statements,
            query_ids=query_ids,
            batch_size=batch_size,
            commit_tags=commit_tags,
            deadline=deadline,
        )

    def _run_wave(
        self,
        statements: list[str],
        query_ids: list[str | None],
        commit_tags: list,
        stats: WaveStats,
        records: list,
        deadline: Deadline | None = None,
    ) -> None:
        """Run one wave, appending each record to ``records`` once committed.

        A record is appended only after :meth:`submit_feedback` returned, so
        when the wave raises, ``records`` holds exactly its durable commits.
        """
        tel = self.telemetry
        with tel.span("pipeline.wave", project=self.dataset_name, size=len(statements)):
            # Phase 1 — parse and decompose every statement in the wave.
            items = [
                self._prepare_item(sql, query_id, commit_tag)
                for sql, query_id, commit_tag in zip(statements, query_ids, commit_tags)
            ]

            # Phase 2 — one vectorized retrieval pass over every generation unit.
            all_unit_sqls = [unit_sql for item in items for unit_sql in item.unit_sqls]
            all_unit_asts = [unit_ast for item in items for unit_ast in item.unit_asts]
            store_version = self.retriever.example_store.version
            if self.config.rag_enabled:
                contexts = self.retriever.retrieve_batch(
                    all_unit_sqls,
                    asts=all_unit_asts,
                    keys=[keys for item in items for keys in item.unit_keys],
                    references=[refs for item in items for refs in item.unit_references],
                )
            else:
                contexts = [None] * len(all_unit_sqls)
            all_unit_tokens = [tokens for item in items for tokens in item.unit_tokens]
            prompts = [
                self._build_prompt(unit_sql, context, ast=unit_ast, tokens=tokens)
                for unit_sql, context, unit_ast, tokens in zip(
                    all_unit_sqls, contexts, all_unit_asts, all_unit_tokens
                )
            ]

            # Phase 3 — one batched generation call for the whole wave.
            llm_started = time.perf_counter() if tel.enabled else 0.0
            results = self.llm.generate_batch_with_retry(
                prompts,
                self._retry_policy,
                salt=self._retry_salt,
                deadline=deadline,
            )
            if tel.enabled:
                tel.observe(
                    "pipeline_wave_llm_seconds",
                    time.perf_counter() - llm_started,
                    project=self.dataset_name,
                    model=self.llm.name,
                )
            cursor = 0
            for item in items:
                item.contexts = contexts[cursor : cursor + len(item.unit_sqls)]
                item.prompts = prompts[cursor : cursor + len(item.unit_sqls)]
                item.candidate_lists = [
                    result.candidates for result in results[cursor : cursor + len(item.unit_sqls)]
                ]
                cursor += len(item.unit_sqls)

            # Phase 4 — feedback and commit, per query in submission order.  The
            # example store grows as annotations are accepted, so each query's
            # prompts are validated against the live store first.
            feedback_revision = self.feedback_loop.revision
            for item in items:
                candidate_set = self._commit_candidate_set(
                    item, stats, feedback_revision, store_version, deadline
                )
                record = self.submit_feedback(
                    candidate_set,
                    Feedback(action=FeedbackAction.ACCEPT, selected_index=0),
                    query_id=item.query_id,
                    commit_tag=item.commit_tag,
                    tagged_sql=item.statement,
                )
                assert record is not None  # ACCEPT feedback never asks to regenerate
                records.append(record)

    def _commit_candidate_set(
        self,
        item: _WaveItem,
        stats: WaveStats,
        feedback_revision: int,
        store_version: int,
        deadline: Deadline | None = None,
    ) -> CandidateSet:
        """Reuse the wave's batched candidates when still valid, else redo.

        A batched prompt is stale when an annotation committed earlier in the
        wave changed what retrieval (or session guidance) now produces for
        it.  Validation is tiered:

        * a feedback-revision bump (new knowledge/priorities) always
          invalidates,
        * with RAG disabled, or an example store untouched since the wave's
          retrieval pass, nothing can have drifted, so the wave result
          stands,
        * an LLM that reads example *content*
          (:attr:`~repro.llm.base.LLMClient.example_content_sensitive`)
          requires the freshly-rebuilt prompts to match the batched ones
          exactly,
        * the simulated models only consume the example *count*, so a cheap
          ranked-count probe suffices.

        Stale queries regenerate against fresh retrieval, reproducing the
        sequential path bit-for-bit.
        """
        stale = self.feedback_loop.revision != feedback_revision
        fresh_contexts: list[RetrievedContext | None] | None = None
        fresh_prompts: list[Prompt] | None = None
        if (
            not stale
            and self.config.rag_enabled
            and self.retriever.example_store.version != store_version
        ):
            if getattr(self.llm, "example_content_sensitive", True):
                fresh_contexts, fresh_prompts = self._fresh_prompts(item)
                stale = fresh_prompts != item.prompts
            else:
                stale = any(
                    self.retriever.example_count(unit_sql, keys=keys)
                    != len(prompt.examples)
                    for unit_sql, keys, prompt in zip(item.unit_sqls, item.unit_keys, item.prompts)
                )

        if stale:
            candidate_set = self._regenerate(item, fresh_contexts, fresh_prompts, deadline)
            stats.regenerated_queries += 1
            return candidate_set

        stats.batched_queries += 1
        if item.decomposition is not None:
            unit_candidates = {
                name: candidates
                for name, candidates in zip(item.unit_names, item.candidate_lists)
            }
            candidates = self._merge_unit_candidates(item.decomposition, unit_candidates)
            return self._candidate_set(item, candidates, unit_candidates, None, None)
        return self._candidate_set(
            item, item.candidate_lists[0], {}, item.prompts[0], item.contexts[0]
        )

    def _fresh_prompts(
        self, item: _WaveItem
    ) -> tuple[list[RetrievedContext | None], list[Prompt]]:
        """Retrieve and build every unit's prompt against the live store."""
        contexts = [
            self._retrieve(unit_sql, unit_ast, keys, references)
            for unit_sql, unit_ast, keys, references in zip(
                item.unit_sqls, item.unit_asts, item.unit_keys, item.unit_references
            )
        ]
        prompts = [
            self._build_prompt(unit_sql, context, ast=unit_ast, tokens=tokens)
            for unit_sql, context, unit_ast, tokens in zip(
                item.unit_sqls, contexts, item.unit_asts, item.unit_tokens
            )
        ]
        return contexts, prompts

    def _candidate_set(
        self,
        item: _WaveItem,
        candidates: list[str],
        unit_candidates: dict[str, list[str]],
        prompt: Prompt | None,
        context: RetrievedContext | None,
    ) -> CandidateSet:
        candidate_set = CandidateSet(
            sql=item.sql,
            candidates=candidates,
            dataset=self.dataset_name,
            prompt=prompt,
            context=context,
            decomposition=item.decomposition,
            unit_candidates=unit_candidates,
            model_name=self.llm.name,
        )
        candidate_set.ast = item.select
        candidate_set.keys = item.keys
        return candidate_set

    def _regenerate(
        self,
        item: _WaveItem,
        fresh_contexts: list[RetrievedContext | None] | None,
        fresh_prompts: list[Prompt] | None,
        deadline: Deadline | None = None,
    ) -> CandidateSet:
        """Generate one wave item's candidates in one LLM call over its units.

        This is the sequential path: :meth:`generate_candidates` is exactly
        this step on a freshly prepared item, and a wave falls back to it for
        items whose batched prompts went stale.  Uses the fresh
        contexts/prompts computed during validation when available so
        retrieval is not repeated.
        """
        if fresh_contexts is None or fresh_prompts is None:
            fresh_contexts, fresh_prompts = self._fresh_prompts(item)
        results = self.llm.generate_batch_with_retry(
            fresh_prompts,
            self._retry_policy,
            salt=self._retry_salt,
            deadline=deadline,
        )
        if item.decomposition is not None:
            unit_candidates = {
                name: result.candidates for name, result in zip(item.unit_names, results)
            }
            candidates = self._merge_unit_candidates(item.decomposition, unit_candidates)
            context = self._retrieve(item.sql, item.select, item.keys)
            prompt = self._build_prompt(item.sql, context, ast=item.select)
        else:
            unit_candidates = {}
            candidates = results[0].candidates
            context = fresh_contexts[0]
            prompt = fresh_prompts[0]
        return self._candidate_set(item, candidates, unit_candidates, prompt, context)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def accepted_annotations(self) -> list[AnnotationRecord]:
        """Annotations that were accepted (not discarded)."""
        return [record for record in self.annotations if record.accepted]

    @property
    def example_count(self) -> int:
        """Number of examples currently available for retrieval."""
        return len(self.retriever.example_store)


class WaveRun:
    """Resumable wave-at-a-time driver for one pipeline's batched annotation.

    Holds the cursor and the accumulated outcomes/stats of an
    :meth:`AnnotationPipeline.annotate_many` run, but
    advances only when :meth:`run_next_wave` is called.  Driving a run to
    completion in a tight loop reproduces ``annotate_many`` exactly; the
    multi-project scheduler instead calls ``run_next_wave`` once per round on
    every tenant's run, so independent projects' waves overlap on the LLM
    boundary while each project still sees its own waves strictly in order —
    the per-project record stream is bit-identical either way.

    The run isolates its own failures: :attr:`outcomes` holds one entry per
    settled statement, in order — its record, or the exception it was parked
    with.

    A ``WaveRun`` must only ever be advanced by one thread at a time (the
    scheduler guarantees this by never submitting a project's next wave until
    its previous one returned).
    """

    def __init__(
        self,
        pipeline: AnnotationPipeline,
        statements: list[str],
        query_ids: list[str | None] | None = None,
        batch_size: int | None = None,
        commit_tags: list | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        if query_ids is not None and len(query_ids) != len(statements):
            raise PipelineError("query_ids must align with statements")
        if commit_tags is not None and len(commit_tags) != len(statements):
            raise PipelineError("commit_tags must align with statements")
        batch_size = batch_size if batch_size is not None else pipeline.config.batch_size
        if batch_size < 1:
            raise PipelineError("batch_size must be at least 1")
        self.pipeline = pipeline
        #: Drain budget carried into every wave's LLM calls (``None`` = none).
        self.deadline = deadline
        self._statements = list(statements)
        self._query_ids = (
            list(query_ids) if query_ids is not None else [None] * len(self._statements)
        )
        self._commit_tags = (
            list(commit_tags) if commit_tags is not None else [None] * len(self._statements)
        )
        self._batch_size = batch_size
        self.stats = WaveStats(queries=len(self._statements))
        #: One entry per settled statement, in order: its committed record,
        #: or the ``Exception`` it was parked with.
        self.outcomes: list[AnnotationRecord | Exception] = []
        self._requests_before = pipeline.llm.usage.requests
        # Set once a wave has raised: from then on every wave holds one
        # statement, and a statement that raises in one is parked.  A run of
        # one statement has nothing to isolate and starts out isolating.
        self._isolating = len(self._statements) == 1
        self._finished = False
        # Monotonic end time of the previous wave; the gap to the next
        # wave's start is the run's scheduler queue wait.
        self._last_advance: float | None = None

    @property
    def done(self) -> bool:
        """Whether every statement has been settled."""
        return len(self.outcomes) >= len(self._statements)

    @property
    def records(self) -> list[AnnotationRecord]:
        """The records committed so far, in order."""
        return [outcome for outcome in self.outcomes if isinstance(outcome, AnnotationRecord)]

    def run_next_wave(self) -> list[AnnotationRecord | Exception]:
        """Advance one wave (parse → retrieve → generate → commit).

        Returns the outcomes the wave settled (empty when already done).
        The wave holds ``batch_size`` statements once the archive holds
        ``top_k_examples`` examples or RAG is off; while it holds fewer,
        every commit changes the next prompt's example count, so the wave
        holds one statement, as it does once a wave has raised.

        When a wave raises an ordinary ``Exception``, the commits it made
        stand and the rest of the run goes one statement per wave; a
        statement that raises in one of those isolation waves is parked as
        its outcome.  So in a run of several statements a failing statement
        is tried twice, whatever the size of the wave it first failed in; a
        run of one statement parks its failure at once.
        The deferral signal (:class:`~repro.errors.DeadlineExceededError`:
        the work is still valid, there is just no time left for it), journal
        errors and ``BaseException`` propagate, leaving the outcomes settled
        so far.
        Finishing the last wave finalises the run's stats automatically.
        """
        if self.done:
            self.finish()
            return []
        config = self.pipeline.config
        archive_full = (
            not config.rag_enabled or self.pipeline.example_count >= config.top_k_examples
        )
        start = len(self.outcomes)
        end = start + (self._batch_size if archive_full and not self._isolating else 1)
        wave_statements = self._statements[start:end]
        tel = self.pipeline.telemetry
        if tel.enabled:
            now = time.perf_counter()
            if self._last_advance is not None:
                tel.observe(
                    "pipeline_wave_queue_wait_seconds",
                    now - self._last_advance,
                    project=self.pipeline.dataset_name,
                )
            tel.observe_size(
                "pipeline_wave_size",
                len(wave_statements),
                project=self.pipeline.dataset_name,
            )
        try:
            self.pipeline._run_wave(
                wave_statements,
                self._query_ids[start:end],
                self._commit_tags[start:end],
                self.stats,
                self.outcomes,
                deadline=self.deadline,
            )
        except (DeadlineExceededError, JournalError):
            raise
        except Exception as exc:
            if self._isolating:
                self.outcomes.append(exc)
            else:
                self._isolating = True
        if tel.enabled:
            self._last_advance = time.perf_counter()
        self.stats.waves += 1
        if self.done:
            self.finish()
        return self.outcomes[start:]

    def finish(self) -> None:
        """Finalise run accounting and publish it as the pipeline's last run.

        Idempotent.  ``llm_requests`` is the request-counter delta over this
        run; with a dedicated client per project (the default) it is exact,
        while a client *shared* across concurrently-drained projects reports
        the requests observed in this run's window.
        """
        if self._finished:
            return
        self._finished = True
        self.stats.llm_requests = self.pipeline.llm.usage.requests - self._requests_before
        self.pipeline.last_run_stats = self.stats
