"""Property-based tests for the execution engine (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.engine import Database
from repro.engine.runtime import MemberSet
from repro.engine.types import compare_values


def _make_db(values):
    database = Database()
    database.execute("CREATE TABLE t (id INT, val INT, grp TEXT)")
    if values:
        rows = ", ".join(
            f"({index}, {value}, '{'ab'[index % 2]}')" for index, value in enumerate(values)
        )
        database.execute(f"INSERT INTO t (id, val, grp) VALUES {rows}")
    return database


values_strategy = st.lists(st.integers(min_value=-100, max_value=100), min_size=0, max_size=30)


class TestFilterProperties:
    @given(values=values_strategy, threshold=st.integers(min_value=-100, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_filter_matches_python_semantics(self, values, threshold):
        database = _make_db(values)
        rows = database.query(f"SELECT val FROM t WHERE val > {threshold}")
        assert sorted(row[0] for row in rows) == sorted(v for v in values if v > threshold)

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_where_true_returns_everything(self, values):
        database = _make_db(values)
        assert len(database.query("SELECT * FROM t WHERE 1 = 1")) == len(values)

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_filter_result_is_subset(self, values):
        database = _make_db(values)
        filtered = database.query("SELECT val FROM t WHERE val >= 0")
        assert len(filtered) <= len(values)


class TestAggregateProperties:
    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_count_matches_length(self, values):
        database = _make_db(values)
        assert database.query("SELECT COUNT(*) FROM t")[0][0] == len(values)

    @given(values=st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_sum_avg_min_max_match_python(self, values):
        database = _make_db(values)
        row = database.query("SELECT SUM(val), AVG(val), MIN(val), MAX(val) FROM t")[0]
        assert row[0] == sum(values)
        assert abs(row[1] - sum(values) / len(values)) < 1e-9
        assert row[2] == min(values)
        assert row[3] == max(values)

    @given(values=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_group_by_partitions_rows(self, values):
        database = _make_db(values)
        groups = database.query("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert sum(count for _, count in groups) == len(values)
        assert len(groups) <= 2


class TestOrderingAndLimitProperties:
    @given(values=values_strategy, limit=st.integers(min_value=0, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_limit_bounds_result_size(self, values, limit):
        database = _make_db(values)
        rows = database.query(f"SELECT val FROM t LIMIT {limit}")
        assert len(rows) == min(limit, len(values))

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_order_by_sorts(self, values):
        database = _make_db(values)
        rows = [row[0] for row in database.query("SELECT val FROM t ORDER BY val ASC")]
        assert rows == sorted(values)

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_distinct_removes_duplicates(self, values):
        database = _make_db(values)
        rows = [row[0] for row in database.query("SELECT DISTINCT val FROM t")]
        assert sorted(rows) == sorted(set(values))

    @given(values=values_strategy)
    @settings(max_examples=30, deadline=None)
    def test_union_all_counts_add(self, values):
        database = _make_db(values)
        total = database.query("SELECT val FROM t UNION ALL SELECT val FROM t")
        assert len(total) == 2 * len(values)


#: Values whose compare_values equality crosses types: ints, integral and
#: non-integral floats, signed zeros, infinities, NaN, bools and strings that
#: print like numbers or bools.
member_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 2.5, float("inf"), float("-inf"), float("nan")]),
    st.floats(min_value=-3, max_value=3),
    st.booleans(),
    st.sampled_from(["1", "1.0", "0", "-0.0", "2.5", "True", "False", "nan", "inf", "", "a"]),
)


def _scan_contains(value, members) -> bool:
    return any(member is not None and compare_values(value, member) == 0 for member in members)


class TestMemberSetProperties:
    @given(
        members=st.lists(st.one_of(st.none(), member_values), max_size=12),
        probes=st.lists(member_values, min_size=1, max_size=12),
    )
    @settings(max_examples=400, deadline=None)
    def test_contains_equals_linear_compare_values_scan(self, members, probes):
        hashed = MemberSet(members)
        scanned = MemberSet(members, hashed=False)
        for probe in probes:
            expected = _scan_contains(probe, members)
            assert hashed.contains(probe) is expected, (probe, members)
            assert scanned.contains(probe) is expected, (probe, members)

    def test_cross_type_equality_rules(self):
        members = MemberSet([1, "2", True, None, 3.5])
        assert members.contains(1.0) and members.contains(1)
        assert members.contains(2) and members.contains("2")
        assert not members.contains(2.0)  # str(2.0) is '2.0', not '2'
        assert members.contains("1") and not members.contains("1.0")
        assert members.contains(True) and members.contains("True") and not members.contains(1.5)
        assert members.contains(3.5) and members.contains("3.5")
        assert not MemberSet([1.0]).contains("1")
        assert not MemberSet([None]).contains(0)

    def test_nan_member_compares_equal_to_every_number(self):
        members = MemberSet(["x", float("nan")])
        assert members.contains(7) and members.contains(-0.5) and members.contains("x")
        assert not members.contains("7")
        assert MemberSet([4]).contains(float("nan"))
        assert not MemberSet(["4"]).contains(float("nan"))
