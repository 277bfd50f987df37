"""Recursive-descent SQL parser.

Builds :mod:`repro.sql.ast_nodes` trees from token streams produced by
:mod:`repro.sql.lexer`.  The grammar covers the query shapes that occur in the
BenchPress workloads: SELECT with joins, nested subqueries, CTEs, set
operations, aggregation, CASE/CAST, and the DDL/DML needed to populate the
in-memory execution engine.

Entry points:

* :func:`parse` — parse a single statement.
* :func:`parse_many` — parse a ``;``-separated script.
* :func:`parse_expression` — parse a standalone scalar expression.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    BinaryOperator,
    Cast,
    CaseWhen,
    ColumnDef,
    ColumnRef,
    CreateTable,
    CTE,
    Delete,
    DropTable,
    Exists,
    Expression,
    FunctionCall,
    Insert,
    InList,
    InSubquery,
    IsNull,
    Join,
    JoinType,
    Like,
    Literal,
    OrderItem,
    Parameter,
    Relation,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOperator,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
    UnaryOp,
    UnaryOperator,
)
from repro.sql.lexer import tokenize
from repro.sql.tokens import EOF_TOKEN, Token, TokenKind


class Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = self._index + offset
        if index >= len(self._tokens):
            return EOF_TOKEN
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*names):
            raise ParseError(
                f"expected keyword {'/'.join(names)}, got {token.value!r}",
                token.position,
                token.value,
            )
        return self._advance()

    def _expect_punctuation(self, char: str) -> Token:
        token = self._peek()
        if not token.is_punctuation(char):
            raise ParseError(
                f"expected {char!r}, got {token.value!r}", token.position, token.value
            )
        return self._advance()

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            self._advance()
            return token.value
        # Allow non-reserved-ish keywords as identifiers (e.g. a column named "key").
        if token.kind is TokenKind.KEYWORD and token.value in ("KEY", "SET", "FIRST", "LAST", "VALUES"):
            self._advance()
            return token.value
        raise ParseError(f"expected identifier, got {token.value!r}", token.position, token.value)

    def _match_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _match_punctuation(self, char: str) -> bool:
        if self._peek().is_punctuation(char):
            self._advance()
            return True
        return False

    def _at_end(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> Statement:
        """Parse one statement (SELECT/WITH/CREATE TABLE/INSERT/DELETE/DROP)."""
        token = self._peek()
        if token.is_keyword("SELECT", "WITH"):
            return self.parse_select()
        if token.is_keyword("CREATE"):
            return self._parse_create_table()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("DROP"):
            return self._parse_drop_table()
        if token.is_punctuation("("):
            return self.parse_select()
        raise ParseError(f"unexpected start of statement: {token.value!r}", token.position, token.value)

    def parse_script(self) -> list[Statement]:
        """Parse a ``;``-separated sequence of statements."""
        statements: list[Statement] = []
        while not self._at_end():
            if self._match_punctuation(";"):
                continue
            statements.append(self.parse_statement())
        return statements

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def parse_select(self) -> Select:
        """Parse a SELECT statement including WITH prefix and set operations."""
        ctes: list[CTE] = []
        if self._match_keyword("WITH"):
            self._match_keyword("RECURSIVE")
            ctes.append(self._parse_cte())
            while self._match_punctuation(","):
                ctes.append(self._parse_cte())

        select = self._parse_set_expression()
        select.ctes = ctes
        return select

    def _parse_cte(self) -> CTE:
        name = self._expect_identifier()
        column_names: list[str] = []
        if self._match_punctuation("("):
            column_names.append(self._expect_identifier())
            while self._match_punctuation(","):
                column_names.append(self._expect_identifier())
            self._expect_punctuation(")")
        self._expect_keyword("AS")
        self._expect_punctuation("(")
        query = self.parse_select()
        self._expect_punctuation(")")
        return CTE(name=name, query=query, column_names=column_names)

    def _parse_set_expression(self) -> Select:
        # ``A op1 B op2 C`` is a chain linked through ``set_right``: the head
        # holds A's clauses and op1, B holds op2, and so on.  The chain folds
        # left to right, as SQLite does: ``(A op1 B) op2 C``.
        head = self._parse_select_core()
        tail = head
        while tail.set_right is not None:  # a parenthesized compound head
            tail = tail.set_right
        while self._peek().is_keyword("UNION", "INTERSECT", "EXCEPT"):
            keyword = self._advance().value
            if keyword == "UNION":
                if self._match_keyword("ALL"):
                    operator = SetOperator.UNION_ALL
                else:
                    self._match_keyword("DISTINCT")
                    operator = SetOperator.UNION
            elif keyword == "INTERSECT":
                operator = SetOperator.INTERSECT
            else:
                operator = SetOperator.EXCEPT
            branch = self._parse_select_core()
            if branch.set_operator is not None:
                # A parenthesized compound operand keeps its grouping as a
                # derived table; spliced into the chain it would fold left.
                branch = Select(
                    select_items=[SelectItem(expression=Star())],
                    from_relation=SubqueryRef(query=branch, alias="_compound"),
                )
            # ORDER BY / LIMIT written after a set operation bind to the whole
            # combined result, but the core parser attaches them to the branch;
            # hoist them onto the head of the chain.
            if not head.order_by:
                head.order_by = branch.order_by
            if head.limit is None:
                head.limit = branch.limit
            if head.offset is None:
                head.offset = branch.offset
            branch.order_by = []
            branch.limit = None
            branch.offset = None
            tail.set_operator = operator
            tail.set_right = branch
            tail = branch
        # Trailing ORDER BY / LIMIT (possible after set operations).
        if self._peek().is_keyword("ORDER") and not head.order_by:
            head.order_by = self._parse_order_by()
        if self._peek().is_keyword("LIMIT") and head.limit is None:
            head.limit, head.offset = self._parse_limit()
        return head

    def _parse_select_core(self) -> Select:
        if self._match_punctuation("("):
            inner = self.parse_select()
            self._expect_punctuation(")")
            return inner

        self._expect_keyword("SELECT")
        select = Select()
        if self._match_keyword("DISTINCT"):
            select.distinct = True
        else:
            self._match_keyword("ALL")

        select.select_items.append(self._parse_select_item())
        while self._match_punctuation(","):
            select.select_items.append(self._parse_select_item())

        if self._match_keyword("FROM"):
            select.from_relation = self._parse_from()

        if self._match_keyword("WHERE"):
            select.where = self.parse_expression()

        if self._peek().is_keyword("GROUP"):
            self._advance()
            self._expect_keyword("BY")
            select.group_by.append(self.parse_expression())
            while self._match_punctuation(","):
                select.group_by.append(self.parse_expression())

        if self._match_keyword("HAVING"):
            select.having = self.parse_expression()

        if self._peek().is_keyword("ORDER"):
            select.order_by = self._parse_order_by()

        if self._peek().is_keyword("LIMIT"):
            select.limit, select.offset = self._parse_limit()

        return select

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.is_operator("*"):
            self._advance()
            return SelectItem(expression=Star())
        # t.* projection
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            if self._peek(1).is_punctuation(".") and self._peek(2).is_operator("*"):
                table = self._advance().value
                self._advance()  # '.'
                self._advance()  # '*'
                return SelectItem(expression=Star(table=table))

        expression = self.parse_expression()
        alias: str | None = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            alias = self._advance().value
        return SelectItem(expression=expression, alias=alias)

    def _parse_order_by(self) -> list[OrderItem]:
        self._expect_keyword("ORDER")
        self._expect_keyword("BY")
        items = [self._parse_order_item()]
        while self._match_punctuation(","):
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> OrderItem:
        expression = self.parse_expression()
        ascending = True
        if self._match_keyword("DESC"):
            ascending = False
        else:
            self._match_keyword("ASC")
        nulls_first: bool | None = None
        if self._match_keyword("NULLS"):
            if self._match_keyword("FIRST"):
                nulls_first = True
            else:
                self._expect_keyword("LAST")
                nulls_first = False
        return OrderItem(expression=expression, ascending=ascending, nulls_first=nulls_first)

    def _parse_limit(self) -> tuple[int | None, int | None]:
        self._expect_keyword("LIMIT")
        limit_token = self._peek()
        if limit_token.kind is not TokenKind.NUMBER:
            raise ParseError("LIMIT expects a numeric literal", limit_token.position, limit_token.value)
        self._advance()
        limit = int(float(limit_token.value))
        offset: int | None = None
        if self._match_keyword("OFFSET"):
            offset_token = self._peek()
            if offset_token.kind is not TokenKind.NUMBER:
                raise ParseError(
                    "OFFSET expects a numeric literal", offset_token.position, offset_token.value
                )
            self._advance()
            offset = int(float(offset_token.value))
        return limit, offset

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------

    def _parse_from(self) -> Relation:
        relation = self._parse_table_factor()
        while True:
            token = self._peek()
            if token.is_punctuation(","):
                self._advance()
                right = self._parse_table_factor()
                relation = Join(join_type=JoinType.CROSS, left=relation, right=right)
                continue
            join_type = self._try_parse_join_type()
            if join_type is None:
                break
            right = self._parse_table_factor()
            condition: Expression | None = None
            using_columns: list[str] = []
            if join_type is not JoinType.CROSS:
                if self._match_keyword("ON"):
                    condition = self.parse_expression()
                elif self._match_keyword("USING"):
                    self._expect_punctuation("(")
                    using_columns.append(self._expect_identifier())
                    while self._match_punctuation(","):
                        using_columns.append(self._expect_identifier())
                    self._expect_punctuation(")")
            relation = Join(
                join_type=join_type,
                left=relation,
                right=right,
                condition=condition,
                using_columns=using_columns,
            )
        return relation

    def _try_parse_join_type(self) -> JoinType | None:
        token = self._peek()
        if token.is_keyword("JOIN"):
            self._advance()
            return JoinType.INNER
        if token.is_keyword("INNER"):
            self._advance()
            self._expect_keyword("JOIN")
            return JoinType.INNER
        if token.is_keyword("LEFT"):
            self._advance()
            self._match_keyword("OUTER")
            self._expect_keyword("JOIN")
            return JoinType.LEFT
        if token.is_keyword("RIGHT"):
            self._advance()
            self._match_keyword("OUTER")
            self._expect_keyword("JOIN")
            return JoinType.RIGHT
        if token.is_keyword("FULL"):
            self._advance()
            self._match_keyword("OUTER")
            self._expect_keyword("JOIN")
            return JoinType.FULL
        if token.is_keyword("CROSS"):
            self._advance()
            self._expect_keyword("JOIN")
            return JoinType.CROSS
        return None

    def _parse_table_factor(self) -> Relation:
        token = self._peek()
        if token.is_punctuation("("):
            # Either a derived table or a parenthesised join.
            if self._peek(1).is_keyword("SELECT", "WITH"):
                self._advance()
                query = self.parse_select()
                self._expect_punctuation(")")
                self._match_keyword("AS")
                alias = self._expect_identifier()
                return SubqueryRef(query=query, alias=alias)
            self._advance()
            inner = self._parse_from()
            self._expect_punctuation(")")
            return inner

        name = self._expect_identifier()
        alias: str | None = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER) and not self._peek().is_keyword():
            alias = self._advance().value
        return TableRef(name=name, alias=alias)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------

    def parse_expression(self) -> Expression:
        """Parse an expression starting at the current token."""
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._peek().is_keyword("OR"):
            self._advance()
            right = self._parse_and()
            left = BinaryOp(op=BinaryOperator.OR, left=left, right=right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._peek().is_keyword("AND"):
            self._advance()
            right = self._parse_not()
            left = BinaryOp(op=BinaryOperator.AND, left=left, right=right)
        return left

    def _parse_not(self) -> Expression:
        if self._peek().is_keyword("NOT") and not self._peek(1).is_keyword("EXISTS"):
            self._advance()
            operand = self._parse_not()
            return UnaryOp(op=UnaryOperator.NOT, operand=operand)
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        if self._peek().is_keyword("EXISTS") or (
            self._peek().is_keyword("NOT") and self._peek(1).is_keyword("EXISTS")
        ):
            negated = self._match_keyword("NOT")
            self._expect_keyword("EXISTS")
            self._expect_punctuation("(")
            subquery = self.parse_select()
            self._expect_punctuation(")")
            return Exists(subquery=subquery, negated=negated)

        left = self._parse_comparison()
        return self._parse_predicate_suffix(left)

    def _parse_predicate_suffix(self, left: Expression) -> Expression:
        negated = False
        if self._peek().is_keyword("NOT") and self._peek(1).is_keyword("IN", "BETWEEN", "LIKE"):
            self._advance()
            negated = True

        token = self._peek()
        if token.is_keyword("IS"):
            self._advance()
            is_negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(operand=left, negated=is_negated)
        if token.is_keyword("IN"):
            self._advance()
            self._expect_punctuation("(")
            if self._peek().is_keyword("SELECT", "WITH"):
                subquery = self.parse_select()
                self._expect_punctuation(")")
                return InSubquery(operand=left, subquery=subquery, negated=negated)
            values = [self.parse_expression()]
            while self._match_punctuation(","):
                values.append(self.parse_expression())
            self._expect_punctuation(")")
            return InList(operand=left, values=values, negated=negated)
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_comparison()
            self._expect_keyword("AND")
            high = self._parse_comparison()
            return Between(operand=left, low=low, high=high, negated=negated)
        if token.is_keyword("LIKE"):
            self._advance()
            pattern = self._parse_comparison()
            return Like(operand=left, pattern=pattern, negated=negated)
        return left

    _COMPARISON_OPS = {
        "=": BinaryOperator.EQ,
        "<>": BinaryOperator.NEQ,
        "<": BinaryOperator.LT,
        "<=": BinaryOperator.LTE,
        ">": BinaryOperator.GT,
        ">=": BinaryOperator.GTE,
    }

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind is TokenKind.OPERATOR and token.value in self._COMPARISON_OPS:
            self._advance()
            right = self._parse_additive()
            return BinaryOp(op=self._COMPARISON_OPS[token.value], left=left, right=right)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self._peek().is_operator("+", "-", "||"):
            op_token = self._advance()
            right = self._parse_multiplicative()
            if op_token.value == "+":
                operator = BinaryOperator.ADD
            elif op_token.value == "-":
                operator = BinaryOperator.SUB
            else:
                operator = BinaryOperator.CONCAT
            left = BinaryOp(op=operator, left=left, right=right)
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self._peek().is_operator("*", "/", "%"):
            op_token = self._advance()
            right = self._parse_unary()
            operator = {
                "*": BinaryOperator.MUL,
                "/": BinaryOperator.DIV,
                "%": BinaryOperator.MOD,
            }[op_token.value]
            left = BinaryOp(op=operator, left=left, right=right)
        return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.is_operator("-"):
            self._advance()
            return UnaryOp(op=UnaryOperator.NEG, operand=self._parse_unary())
        if token.is_operator("+"):
            self._advance()
            return UnaryOp(op=UnaryOperator.POS, operand=self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()

        if token.kind is TokenKind.NUMBER:
            self._advance()
            text = token.value
            if "." in text or "e" in text.lower():
                return Literal(float(text))
            return Literal(int(text))
        if token.kind is TokenKind.STRING:
            self._advance()
            return Literal(token.value)
        if token.kind is TokenKind.PARAMETER:
            self._advance()
            return Parameter(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_punctuation("("):
            if self._peek(1).is_keyword("SELECT", "WITH"):
                self._advance()
                query = self.parse_select()
                self._expect_punctuation(")")
                return ScalarSubquery(query=query)
            self._advance()
            inner = self.parse_expression()
            self._expect_punctuation(")")
            return inner
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER) or (
            token.kind is TokenKind.KEYWORD and token.value in ("LEFT", "RIGHT", "KEY", "FIRST", "LAST", "VALUES", "SET", "IF")
        ):
            return self._parse_identifier_expression()

        raise ParseError(f"unexpected token {token.value!r} in expression", token.position, token.value)

    def _parse_cast(self) -> Expression:
        self._expect_keyword("CAST")
        self._expect_punctuation("(")
        operand = self.parse_expression()
        self._expect_keyword("AS")
        type_name = self._parse_type_name()
        self._expect_punctuation(")")
        return Cast(operand=operand, target_type=type_name)

    def _parse_type_name(self) -> str:
        """A type name with its optional parameters, e.g. ``DECIMAL(10,2)``.

        Parameters are joined by single commas whatever separated them, so
        the printed name parses back to itself.
        """
        type_name = self._expect_identifier()
        if self._match_punctuation("("):
            parts: list[str] = []
            while not self._peek().is_punctuation(")"):
                token = self._advance()
                if not token.is_punctuation(","):
                    parts.append(token.value)
            self._expect_punctuation(")")
            type_name = f"{type_name}({','.join(parts)})"
        return type_name

    def _parse_case(self) -> Expression:
        self._expect_keyword("CASE")
        case = CaseWhen()
        # Simple CASE (CASE expr WHEN v THEN r) is normalised into a searched
        # CASE by rewriting each WHEN into an equality comparison.
        base: Expression | None = None
        if not self._peek().is_keyword("WHEN"):
            base = self.parse_expression()
        while self._match_keyword("WHEN"):
            condition = self.parse_expression()
            if base is not None:
                condition = BinaryOp(op=BinaryOperator.EQ, left=base, right=condition)
            self._expect_keyword("THEN")
            result = self.parse_expression()
            case.conditions.append((condition, result))
        if self._match_keyword("ELSE"):
            case.else_result = self.parse_expression()
        self._expect_keyword("END")
        return case

    def _parse_identifier_expression(self) -> Expression:
        name = self._advance().value

        # Function call.
        if self._peek().is_punctuation("("):
            self._advance()
            distinct = False
            args: list[Expression] = []
            if self._peek().is_operator("*"):
                self._advance()
                args.append(Star())
            elif not self._peek().is_punctuation(")"):
                if self._match_keyword("DISTINCT"):
                    distinct = True
                args.append(self.parse_expression())
                while self._match_punctuation(","):
                    args.append(self.parse_expression())
            self._expect_punctuation(")")
            return FunctionCall(name=name, args=args, distinct=distinct)

        # Qualified column reference.
        if self._peek().is_punctuation("."):
            self._advance()
            if self._peek().is_operator("*"):
                self._advance()
                return Star(table=name)
            column = self._expect_identifier()
            return ColumnRef(name=column, table=name)

        return ColumnRef(name=name)

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def _parse_create_table(self) -> CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        if_not_exists = False
        if self._match_keyword("IF"):
            self._expect_keyword("NOT")
            # EXISTS is tokenized as a keyword.
            self._expect_keyword("EXISTS")
            if_not_exists = True
        name = self._parse_qualified_name()
        table = CreateTable(name=name, if_not_exists=if_not_exists)
        self._expect_punctuation("(")
        self._parse_table_element(table)
        while self._match_punctuation(","):
            self._parse_table_element(table)
        self._expect_punctuation(")")
        return table

    def _parse_qualified_name(self) -> str:
        parts = [self._expect_identifier()]
        while self._match_punctuation("."):
            parts.append(self._expect_identifier())
        return ".".join(parts)

    def _parse_table_element(self, table: CreateTable) -> None:
        token = self._peek()
        if token.is_keyword("PRIMARY"):
            self._advance()
            self._expect_keyword("KEY")
            self._expect_punctuation("(")
            table.primary_key.append(self._expect_identifier())
            while self._match_punctuation(","):
                table.primary_key.append(self._expect_identifier())
            self._expect_punctuation(")")
            return
        if token.is_keyword("FOREIGN"):
            self._advance()
            self._expect_keyword("KEY")
            self._expect_punctuation("(")
            local_columns = [self._expect_identifier()]
            while self._match_punctuation(","):
                local_columns.append(self._expect_identifier())
            self._expect_punctuation(")")
            self._expect_keyword("REFERENCES")
            ref_table = self._parse_qualified_name()
            ref_columns: list[str] = []
            if self._match_punctuation("("):
                ref_columns.append(self._expect_identifier())
                while self._match_punctuation(","):
                    ref_columns.append(self._expect_identifier())
                self._expect_punctuation(")")
            table.foreign_keys.append((local_columns, ref_table, ref_columns))
            return
        if token.is_keyword("UNIQUE", "CHECK"):
            # Table-level UNIQUE/CHECK constraints: skip the parenthesised body.
            self._advance()
            if self._match_punctuation("("):
                depth = 1
                while depth > 0:
                    inner = self._advance()
                    if inner.is_punctuation("("):
                        depth += 1
                    elif inner.is_punctuation(")"):
                        depth -= 1
            return
        table.columns.append(self._parse_column_def())

    def _parse_column_def(self) -> ColumnDef:
        name = self._expect_identifier()
        column = ColumnDef(name=name, type_name=self._parse_type_name())
        while True:
            token = self._peek()
            if token.is_keyword("NOT"):
                self._advance()
                self._expect_keyword("NULL")
                column.not_null = True
            elif token.is_keyword("NULL"):
                self._advance()
            elif token.is_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                column.primary_key = True
                column.not_null = True
            elif token.is_keyword("UNIQUE"):
                self._advance()
                column.unique = True
            elif token.is_keyword("DEFAULT"):
                self._advance()
                column.default = self._parse_primary()
            elif token.is_keyword("REFERENCES"):
                self._advance()
                ref_table = self._parse_qualified_name()
                ref_column = ""
                if self._match_punctuation("("):
                    ref_column = self._expect_identifier()
                    self._expect_punctuation(")")
                column.references = (ref_table, ref_column)
            elif token.is_keyword("CHECK"):
                self._advance()
                self._expect_punctuation("(")
                depth = 1
                while depth > 0:
                    inner = self._advance()
                    if inner.is_punctuation("("):
                        depth += 1
                    elif inner.is_punctuation(")"):
                        depth -= 1
            else:
                break
        return column

    def _parse_insert(self) -> Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._parse_qualified_name()
        columns: list[str] = []
        if self._match_punctuation("("):
            columns.append(self._expect_identifier())
            while self._match_punctuation(","):
                columns.append(self._expect_identifier())
            self._expect_punctuation(")")
        self._expect_keyword("VALUES")
        rows: list[list[Expression]] = []
        rows.append(self._parse_value_row())
        while self._match_punctuation(","):
            rows.append(self._parse_value_row())
        return Insert(table=table, columns=columns, rows=rows)

    def _parse_delete(self) -> Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._parse_qualified_name()
        where = self.parse_expression() if self._match_keyword("WHERE") else None
        return Delete(table=table, where=where)

    def _parse_drop_table(self) -> DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._match_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        name = self._parse_qualified_name()
        return DropTable(name=name, if_exists=if_exists)

    def _parse_value_row(self) -> list[Expression]:
        self._expect_punctuation("(")
        row = [self.parse_expression()]
        while self._match_punctuation(","):
            row.append(self.parse_expression())
        self._expect_punctuation(")")
        return row


def parse(sql: str) -> Statement:
    """Parse a single SQL statement and return its AST.

    Raises:
        ParseError: if trailing tokens remain after the statement.
    """
    parser = Parser(tokenize(sql))
    statement = parser.parse_statement()
    parser._match_punctuation(";")
    if not parser._at_end():
        leftover = parser._peek()
        raise ParseError(
            f"unexpected trailing input starting at {leftover.value!r}",
            leftover.position,
            leftover.value,
        )
    return statement


def parse_select(sql: str) -> Select:
    """Parse a statement and assert it is a SELECT."""
    statement = parse(sql)
    if not isinstance(statement, Select):
        raise ParseError("expected a SELECT statement")
    return statement


def parse_many(sql: str) -> list[Statement]:
    """Parse a ``;``-separated SQL script into a list of statements."""
    return Parser(tokenize(sql)).parse_script()


def parse_expression(sql: str) -> Expression:
    """Parse a standalone scalar expression (useful in tests)."""
    parser = Parser(tokenize(sql))
    expression = parser.parse_expression()
    if not parser._at_end():
        leftover = parser._peek()
        raise ParseError(
            f"unexpected trailing input starting at {leftover.value!r}",
            leftover.position,
            leftover.value,
        )
    return expression
