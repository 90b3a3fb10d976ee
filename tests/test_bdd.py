import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import live_nodes

from atomtrace.bdd import (
    Engine,
    FieldConstraint,
    HeaderLayout,
    InvalidLayout,
    LengthMismatch,
    UnknownField,
    ValueOutOfRange,
    Header,
)


def brute_set(engine, pred):
    """Independent oracle: the set of header ints on which pred is true."""
    layout = engine.layout
    return {
        v
        for v in range(1 << layout.total_width)
        if engine.eval(pred, layout.header_from_int(v))
    }


class TestLayout:
    def test_construction(self):
        layout = HeaderLayout((("h", 4),))
        assert layout.total_width == 4
        assert Engine(layout).width == 4

    def test_five_tuple_width(self):
        layout = HeaderLayout(
            (("src", 32), ("dst", 32), ("proto", 8), ("sport", 16), ("dport", 16))
        )
        assert layout.total_width == 104

    def test_zero_width_field_rejected(self):
        with pytest.raises(InvalidLayout):
            HeaderLayout((("x", 0),))

    def test_duplicate_name_rejected(self):
        with pytest.raises(InvalidLayout):
            HeaderLayout((("x", 2), ("x", 3)))

    def test_msb_first_bit_assignment(self):
        layout = HeaderLayout((("a", 2), ("b", 2)))
        h = layout.header({"a": 0b10, "b": 0b01})
        assert h.bits == (1, 0, 0, 1)
        assert layout.field_value(h, "a") == 2
        assert layout.field_value(h, "b") == 1


class TestMatch:
    def test_prefix_one_bit(self, small_engine):
        p = small_engine.match(FieldConstraint.prefix("h", 0b1000, 1))
        assert brute_set(small_engine, p) == set(range(8, 16))

    def test_full_range_is_true(self, small_engine):
        p = small_engine.match(FieldConstraint.range_("h", 0, 15))
        assert p == small_engine.true_

    def test_exact_point(self, small_engine):
        p = small_engine.match(FieldConstraint.exact("h", 0b1010))
        assert small_engine.sat_count(p) == 1
        assert brute_set(small_engine, p) == {0b1010}

    def test_unknown_field(self, small_engine):
        with pytest.raises(UnknownField):
            small_engine.match(FieldConstraint.exact("nope", 1))

    def test_value_out_of_range(self, small_engine):
        with pytest.raises(ValueOutOfRange):
            small_engine.match(FieldConstraint.exact("h", 16))

    @pytest.mark.parametrize("lo,hi", [(0, 0), (3, 11), (1, 14), (5, 5), (0, 7)])
    def test_range_matches_brute_force(self, small_engine, lo, hi):
        p = small_engine.match(FieldConstraint.range_("h", lo, hi))
        assert brute_set(small_engine, p) == set(range(lo, hi + 1))

    def test_range_nodes_bounded(self):
        # a range's BDD is the two chains that track its ends
        engine = Engine(HeaderLayout((("h", 4),)))
        for lo in range(16):
            for hi in range(lo, 16):
                p = engine.match(FieldConstraint.range_("h", lo, hi))
                assert brute_set(engine, p) == set(range(lo, hi + 1))
                assert len(live_nodes(engine, [p.node]) - {0, 1}) <= 2 * 4

    def test_constraints_on_one_field_intersect(self, small_engine):
        p = small_engine.match_all([
            FieldConstraint.range_("h", 3, 12),
            FieldConstraint.prefix("h", 0b0100, 2),
            FieldConstraint.range_("h", 0, 6),
        ])
        assert brute_set(small_engine, p) == {4, 5, 6}
        assert small_engine.match_all([
            FieldConstraint.exact("h", 3), FieldConstraint.exact("h", 4),
        ]) == small_engine.false_

    def test_match_all_builds_only_its_result(self):
        engine = Engine(HeaderLayout((("a", 3), ("b", 4), ("c", 2))))
        p = engine.match_all([
            FieldConstraint.range_("c", 1, 2),
            FieldConstraint.prefix("a", 0b100, 1),
            FieldConstraint.range_("b", 3, 12),
            FieldConstraint.exact("a", 0b101),
        ])
        assert engine._cache == {}
        assert live_nodes(engine, [p.node, 0, 1]) == set(range(len(engine._var)))
        a = engine.match(FieldConstraint.exact("a", 0b101))
        b = engine.match(FieldConstraint.range_("b", 3, 12))
        c = engine.match(FieldConstraint.range_("c", 1, 2))
        assert p == a & b & c


class TestCombine:
    def test_contradiction(self, small_engine):
        p = small_engine.match(FieldConstraint.prefix("h", 0b1000, 1))
        assert (p & ~p) == small_engine.false_

    def test_tautology(self, small_engine):
        p = small_engine.match(FieldConstraint.prefix("h", 0b1000, 1))
        assert (p | ~p) == small_engine.true_

    def test_and_of_prefixes(self, small_engine):
        p1 = small_engine.match(FieldConstraint.prefix("h", 0b1000, 1))
        p2 = small_engine.match(FieldConstraint.prefix("h", 0b1000, 2))
        assert brute_set(small_engine, p1 & p2) == set(range(8, 12))

    def test_idempotent_recomputation_same_handle(self, small_engine):
        p1 = small_engine.match(FieldConstraint.prefix("h", 0b1000, 1))
        p2 = small_engine.match(FieldConstraint.prefix("h", 0b1000, 2))
        assert (p1 & p2).node == (p1 & p2).node

    def test_engine_mismatch(self, small_engine):
        from atomtrace.bdd import EngineMismatch

        other = Engine(HeaderLayout((("h", 4),)))
        p = other.match(FieldConstraint.exact("h", 3))
        q = small_engine.match(FieldConstraint.exact("h", 3))
        with pytest.raises(EngineMismatch):
            small_engine.conj(p, q)


class TestExists:
    def test_vacuous(self, small_engine):
        assert small_engine.exists(small_engine.false_, ["h"]) == small_engine.false_

    def test_projecting_all_bits_of_nonempty(self, small_engine):
        p = small_engine.match(FieldConstraint.exact("h", 0b1010))
        assert small_engine.exists(p, ["h"]) == small_engine.true_

    def test_partial_projection(self):
        layout = HeaderLayout((("a", 2), ("b", 2)))
        e = Engine(layout)
        p = e.match(FieldConstraint.exact("a", 1)) & e.match(FieldConstraint.exact("b", 2))
        q = e.exists(p, ["a"])
        assert q == e.match(FieldConstraint.exact("b", 2))
        # brute force: headers whose b field is 2
        assert brute_set(e, q) == {v for v in range(16) if (v & 0b11) == 2}


class TestEvalAndQuery:
    def test_eval_true_constant(self, small_engine):
        for v in range(16):
            assert small_engine.eval(small_engine.true_, SMALL_HEADER(small_engine, v))

    def test_eval_prefix(self, small_engine):
        p = small_engine.match(FieldConstraint.prefix("h", 0b1000, 1))
        assert small_engine.eval(p, SMALL_HEADER(small_engine, 0b1010))
        q = small_engine.match(FieldConstraint.prefix("h", 0b1000, 2))
        assert not small_engine.eval(q, SMALL_HEADER(small_engine, 0b1100))

    def test_eval_length_mismatch(self, small_engine):
        with pytest.raises(LengthMismatch):
            small_engine.eval(small_engine.true_, Header((0, 1)))


def SMALL_HEADER(engine, v):
    return engine.layout.header_from_int(v)


# --- randomized properties over a 12-bit space ------------------------------

WIDE = HeaderLayout((("a", 5), ("b", 7)))


@st.composite
def expressions(draw, depth=0):
    """Random predicate expression as a build plan (engine-independent)."""
    if depth >= 4 or draw(st.booleans()):
        field = draw(st.sampled_from(["a", "b"]))
        width = 5 if field == "a" else 7
        kind = draw(st.sampled_from(["exact", "prefix", "range"]))
        if kind == "exact":
            return ("exact", field, draw(st.integers(0, (1 << width) - 1)))
        if kind == "prefix":
            length = draw(st.integers(0, width))
            return ("prefix", field, draw(st.integers(0, (1 << width) - 1)), length)
        lo = draw(st.integers(0, (1 << width) - 1))
        hi = draw(st.integers(lo, (1 << width) - 1))
        return ("range", field, lo, hi)
    op = draw(st.sampled_from(["and", "or", "not"]))
    if op == "not":
        return ("not", draw(expressions(depth + 1)))
    return (op, draw(expressions(depth + 1)), draw(expressions(depth + 1)))


def build_pred(engine, expr):
    tag = expr[0]
    if tag == "exact":
        return engine.match(FieldConstraint.exact(expr[1], expr[2]))
    if tag == "prefix":
        return engine.match(FieldConstraint.prefix(expr[1], expr[2], expr[3]))
    if tag == "range":
        return engine.match(FieldConstraint.range_(expr[1], expr[2], expr[3]))
    if tag == "not":
        return ~build_pred(engine, expr[1])
    a, b = build_pred(engine, expr[1]), build_pred(engine, expr[2])
    return (a & b) if tag == "and" else (a | b)


def eval_expr(expr, a_val, b_val):
    tag = expr[0]
    if tag in ("exact", "prefix", "range"):
        v = a_val if expr[1] == "a" else b_val
        width = 5 if expr[1] == "a" else 7
        if tag == "exact":
            return v == expr[2]
        if tag == "prefix":
            length = expr[3]
            return length == 0 or (v >> (width - length)) == (expr[2] >> (width - length))
        return expr[2] <= v <= expr[3]
    if tag == "not":
        return not eval_expr(expr[1], a_val, b_val)
    x, y = eval_expr(expr[1], a_val, b_val), eval_expr(expr[2], a_val, b_val)
    return (x and y) if tag == "and" else (x or y)


def truth_table(expr):
    return frozenset(
        (a, b) for a in range(32) for b in range(128) if eval_expr(expr, a, b)
    )


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions())
def test_canonicity_vs_brute_force(e1, e2):
    engine = Engine(WIDE)
    p1, p2 = build_pred(engine, e1), build_pred(engine, e2)
    assert (truth_table(e1) == truth_table(e2)) == (p1.node == p2.node)


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_eval_matches_truth_table(expr):
    engine = Engine(WIDE)
    p = build_pred(engine, expr)
    tt = truth_table(expr)
    for a in range(0, 32, 3):
        for b in range(0, 128, 11):
            h = engine.layout.header({"a": a, "b": b})
            assert engine.eval(p, h) == ((a, b) in tt)


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions())
def test_algebra_laws(e1, e2):
    engine = Engine(WIDE)
    p, q = build_pred(engine, e1), build_pred(engine, e2)
    assert (p & q) == (q & p)
    assert (p | q) == (q | p)
    assert ~(~p) == p
    assert (p - q) == (p & ~q)
    assert engine.sat_count(p) + engine.sat_count(~p) == 1 << 12


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions())
def test_direct_or_and_diff_match_their_definitions(e1, e2):
    engine = Engine(WIDE)
    p, q = build_pred(engine, e1), build_pred(engine, e2)
    assert (p | q) == ~(~p & ~q)
    assert (p - q) == (p & ~q)
    assert (q - p) == (q & ~p)


def test_ops_on_one_operand_pair_keep_their_own_results(small_engine):
    """and, or, diff and not share one op cache: each must get its own entry
    for the same operands."""
    p = small_engine.match(FieldConstraint.range_("h", 3, 12))
    q = small_engine.match(FieldConstraint.prefix("h", 0b0100, 2)) | \
        small_engine.match(FieldConstraint.exact("h", 0b1011))
    sp, sq = brute_set(small_engine, p), brute_set(small_engine, q)
    every = set(range(16))
    for _ in range(2):  # the second pass reads every result from the cache
        assert brute_set(small_engine, p & q) == sp & sq
        assert brute_set(small_engine, p | q) == sp | sq
        assert brute_set(small_engine, p - q) == sp - sq
        assert brute_set(small_engine, q - p) == sq - sp
        assert brute_set(small_engine, ~p) == every - sp
        assert brute_set(small_engine, ~q) == every - sq


@settings(max_examples=40, deadline=None)
@given(expressions())
def test_sat_count_matches_truth_table(expr):
    engine = Engine(WIDE)
    p = build_pred(engine, expr)
    assert engine.sat_count(p) == len(truth_table(expr))


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_exists_matches_truth_table(expr):
    engine = Engine(WIDE)
    tt = truth_table(expr)
    q = engine.exists(build_pred(engine, expr), ["b"])
    assert brute_set(engine, q) == {
        a << 7 | b for a in range(32) for b in range(128)
        if any((a, v) in tt for v in range(128))
    }


@settings(max_examples=60, deadline=None)
@given(expressions(), st.integers(0, 31), st.integers(0, 127))
def test_restrict_overwrites_the_fixed_fields(expr, a_val, b_val):
    engine = Engine(WIDE)
    p = build_pred(engine, expr)
    tt = truth_table(expr)
    assert brute_set(engine, engine.restrict(p, [("a", a_val)])) == {
        a << 7 | b for a in range(32) for b in range(128) if (a_val, b) in tt
    }
    both = engine.restrict(p, [("b", b_val), ("a", a_val)])
    assert both == (engine.true_ if (a_val, b_val) in tt else engine.false_)
    # the pin-then-project definition it replaces in the rewrite preimage
    pinned = p & engine.match(FieldConstraint.exact("a", a_val))
    assert engine.restrict(p, [("a", a_val)]) == engine.exists(pinned, ["a"])


def test_restrict_rejects_a_value_too_wide(small_engine):
    with pytest.raises(ValueOutOfRange):
        small_engine.restrict(small_engine.true_, [("h", 16)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["x", "y", None]), expressions()), max_size=6))
def test_first_match_matches_truth_tables(entries):
    engine = Engine(WIDE)
    won = engine.first_match([(act, build_pred(engine, e)) for act, e in entries])
    tables = [(act, truth_table(e)) for act, e in entries]
    want: dict = {}
    for a in range(32):
        for b in range(128):
            act = next((act for act, tt in tables if (a, b) in tt), None)
            if act is not None:
                want.setdefault(act, set()).add(a << 7 | b)
    assert {act: brute_set(engine, p) for act, p in won.items()} == want
