import hashlib
import json
import re
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from folkman import bounds, cli
from folkman.bounds import (RULE_EXISTS_FAIL, RULE_KNOWN_TABLE, RULE_MONOTONE,
                            RULE_THEOREM, KnownTable, KnownValue, base_bounds,
                            best_bounds, check_recurrences, closed_form_upper_3p,
                            closed_form_upper_22p, default_table, folkman_exists,
                            bundled_known_values, parse_known_values, composition_bound)
from folkman.signatures import normalize

TABLE = default_table()


def test_m_p_examples():
    assert (normalize([3, 4]).m, normalize([3, 4]).p) == (6, 4)
    assert (normalize([2, 2, 3]).m, normalize([2, 2, 3]).p) == (5, 3)


def test_folkman_exists():
    assert not folkman_exists([3, 5], 5)
    assert folkman_exists([3, 5], 6)
    assert folkman_exists([2, 2], 3)


def test_bounds_refuse_a_clique_cap_that_is_not_an_integer():
    # F(3,4;6.5) does not exist: unchecked, best_bounds gave lower = upper = 6
    # by "q=6.5 > m=6: exact value m=6".
    calls = (lambda: best_bounds([3, 4], 6.5), lambda: base_bounds([3, 4], 6.5),
             lambda: composition_bound([3, 9], 10.0), lambda: folkman_exists([3, 4], 6.5))
    for call in calls:
        with pytest.raises(ValueError, match=r"^clique cap q must be an integer, got \d+\.\d$"):
            call()
    assert best_bounds([3, 4], True).note == "nonexistent"  # a bool is its int


def test_base_bounds_q_above_m():
    rec = base_bounds([3, 4], 7)
    assert rec.exact and rec.lower == 6


def test_base_bounds_q_equals_m():
    rec = base_bounds([3, 4], 6)
    assert rec.exact and rec.lower == 10


def test_base_bounds_boundary_rules_only():
    rec = base_bounds([3, 4], 5)
    assert (rec.lower, rec.upper) == (12, 18)
    assert not rec.exact


def test_base_bounds_boundary_with_table():
    # `base_bounds` takes no table: a table's sides reach a record through
    # `best_bounds`, right after the direct rules.
    rec = best_bounds([3, 4], 5, TABLE)
    assert rec.exact and rec.lower == 13
    assert [r.name for r in rec.provenance] == ["LOWER-M-1", "UPPER-M3P", RULE_KNOWN_TABLE,
                                                RULE_THEOREM]
    with pytest.raises(TypeError):
        base_bounds([3, 4], 5, TABLE)


def test_base_bounds_table_applies_at_every_existing_q():
    # q = m for (2,2): a table entry adds provenance but cannot move the
    # exact rule value; q = a_r + 1 composes as well.
    table = KnownTable([KnownValue(normalize([2, 2]), 3, 5, 5, "exhaustive search")])
    rec = best_bounds([2, 2], 3, table)
    assert (rec.lower, rec.upper) == (5, 5)
    assert [r.name for r in rec.provenance] == ["Q-EQ-M", RULE_KNOWN_TABLE, RULE_THEOREM]
    assert rec.provenance[1].detail == "table gives [5, 5] (exhaustive search)"
    assert [r.name for r in base_bounds([2, 2], 3).provenance] == ["Q-EQ-M"]


def test_base_bounds_225():
    rec = base_bounds([2, 2, 5], 6)
    assert (rec.lower, rec.upper) == (14, 22)


def test_base_bounds_nonexistent_is_a_record():
    rec = base_bounds([3, 5], 5)
    assert rec.lower is None and rec.upper is None
    assert rec.provenance[0].name == RULE_EXISTS_FAIL


def test_base_bounds_below_boundary_has_no_rule():
    rec = base_bounds([2, 3, 4], 5)  # m = 8, q = 5 < m - 1
    assert rec.lower is None and rec.upper is None
    assert "no rule" in rec.note


def test_base_bounds_rejects_empty_signature():
    for bound in (base_bounds, best_bounds):
        with pytest.raises(ValueError, match="empty signature"):
            bound(normalize([1]), 3)


def test_composition_bound_examples():
    cases = [
        ([3, 8], 9, 26, "4+4: 13+13"),
        ([2, 2, 10], 11, 35, "4+6: 13+22"),
        ([3, 11], 12, 43, "4+7: 13+30"),
        ([3, 5], 6, 22, "5: 22"),
    ]
    for parts, q, upper, detail in cases:
        rec = composition_bound(parts, q, TABLE)
        assert rec.upper == upper
        assert rec.lower is None
        assert rec.provenance[0].name == RULE_THEOREM
        assert rec.provenance[0].detail == detail


def test_composition_bound_preconditions():
    with pytest.raises(ValueError):
        composition_bound([3, 8], 10, TABLE)  # q must be a_r + 1
    with pytest.raises(ValueError):
        composition_bound([5], 6, TABLE)  # needs two parts


def test_composition_bound_single_block_when_a_r_small():
    rec = composition_bound([2, 2], 3, TABLE)
    assert rec.upper == 5


def test_composition_bound_without_boundary_rule_is_open():
    rec = composition_bound([2, 3, 6], 7, TABLE)  # q = m - 2: no block has an upper
    assert rec.upper is None
    assert "no composition" in rec.note


def test_the_dp_keeps_every_block_sum_it_has_done():
    # best holds each v done from prefix[-1] up, None where no split has an
    # upper: a smaller a_r reads it as it is, a larger one extends it.
    table = KnownTable()
    composition_bound([2, 3, 6], 7, table)
    price, best = table._splits[2, 3]
    assert price == {} and best == dict.fromkeys(range(3, 7))
    assert bounds._best_splits((2, 3), 4, table) == (price, best)
    assert best == dict.fromkeys(range(3, 7))
    composition_bound([2, 3, 8], 9, table)
    assert table._splits[2, 3][1] is best and best == dict.fromkeys(range(3, 9))


def _all_partitions(total, min_part):
    def rec(remaining, lo):
        if remaining == 0:
            yield ()
            return
        for part in range(lo, remaining + 1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return list(rec(total, min_part))


def _block_price(prefix, v, table):
    merged = normalize(prefix + (v,))
    rec = base_bounds(merged, v + 1)
    uppers = [u for u in (rec.upper, table.combined(merged, v + 1)[1]) if u is not None]
    return min(uppers) if uppers else None


def _brute_composition_upper(parts, table):
    prefix = tuple(parts[:-1])
    target = parts[-1]
    min_part = max(prefix[-1], 4)
    candidates = []
    splits = _all_partitions(target, min_part)
    if (target,) not in splits:
        splits.append((target,))
    for split in splits:
        prices = [_block_price(prefix, v, table) for v in split]
        if all(p is not None for p in prices):
            candidates.append(sum(prices))
    return min(candidates) if candidates else None


@pytest.mark.parametrize("family", [lambda p: (3, p), lambda p: (2, 2, p)])
def test_composition_bound_matches_explicit_enumeration(family):
    for p in range(4, 13):
        parts = family(p)
        rec = composition_bound(list(parts), p + 1, TABLE)
        assert rec.upper == _brute_composition_upper(parts, TABLE)


def test_closed_form_spot_values():
    assert closed_form_upper_3p(9) == 35
    assert closed_form_upper_22p(7) == 28
    assert closed_form_upper_3p(12) == 39
    assert closed_form_upper_3p(4) == 13 and closed_form_upper_22p(4) == 13
    with pytest.raises(ValueError):
        closed_form_upper_3p(3)
    with pytest.raises(ValueError):
        closed_form_upper_22p(0)


def test_the_last_counts_must_be_integers():
    # Unchecked, each failed inside with a bare TypeError: a float p_max in
    # `range`, a str one in `<`, and a float p as a tuple index.
    calls = ((check_recurrences, 8.5, "p_max must be an integer"),
             (check_recurrences, "9", "p_max must be an integer"),
             (closed_form_upper_3p, 4.5, "closed forms require an integer p"),
             (closed_form_upper_22p, 8.0, "closed forms require an integer p"))
    for call, bad, must in calls:
        with pytest.raises(ValueError, match=f"^{must}, got {re.escape(repr(bad))}$"):
            call(bad)
    with pytest.raises(ValueError, match="^p_max must be at least 8$"):
        check_recurrences(True)
    with pytest.raises(ValueError, match="^closed forms require p >= 4$"):
        closed_form_upper_3p(True)


def test_closed_form_integrality():
    for p in range(4, 80):
        assert 4 * closed_form_upper_3p(p) == 13 * p + (0, 23, 26, 29)[p % 4]
        assert 4 * closed_form_upper_22p(p) == 13 * p + (0, 23, 10, 21)[p % 4]


def test_closed_forms_equal_dp_up_to_40():
    for p in range(4, 41):
        assert closed_form_upper_3p(p) == composition_bound([3, p], p + 1, TABLE).upper
        assert closed_form_upper_22p(p) == composition_bound([2, 2, p], p + 1, TABLE).upper


def test_dp_upper_at_most_4p_plus_2():
    for p in range(4, 41):
        assert composition_bound([3, p], p + 1, TABLE).upper <= 4 * p + 2
        assert composition_bound([2, 2, p], p + 1, TABLE).upper <= 4 * p + 2


def test_best_bounds_examples():
    assert best_bounds([2, 2, 4], 5, TABLE).lower == 13
    assert best_bounds([2, 2, 4], 5, TABLE).exact
    assert best_bounds([2, 2, 3], 4, TABLE).lower == 14
    rec = best_bounds([3, 9], 10, TABLE)
    assert (rec.lower, rec.upper) == (22, 35)


def test_a_table_entry_refreshes_the_composition_dp():
    # A table is never changed, so a tighter block comes in a new table,
    # with a DP of its own; the shared bundled table keeps its prices.
    assert best_bounds([3, 9], 10, default_table()).upper == 35  # blocks 4+5: 13+22
    table = KnownTable([*bundled_known_values(),
                        KnownValue(normalize([3, 5]), 6, None, 21, "a tighter block")])
    assert best_bounds([3, 9], 10, table).upper == 34
    assert best_bounds([3, 9], 10, default_table()).upper == 35
    assert composition_bound([3, 9], 10, table).provenance[0].detail == "4+5: 13+21"


def test_composition_bound_reads_the_bundled_table_by_default():
    # As in best_bounds, no table means the bundled one, whose F(3,4;5) = 13
    # prices the 4-block; an empty table leaves the direct rules alone, and
    # their best is the single block 9.
    rec = composition_bound([3, 9], 10)
    assert rec == composition_bound([3, 9], 10, default_table())
    assert (rec.upper, rec.provenance[0].detail) == (35, "4+5: 13+22")
    assert composition_bound([3, 9], 10, KnownTable()).provenance[0].detail == "9: 38"


def test_a_sweep_prices_each_block_once(monkeypatch):
    # The DP prices block v of a prefix through the direct rules, as
    # base_bounds(prefix + (v,), v + 1); only the calls made inside
    # `_best_splits` count, since `best_bounds` asks the same (sig, q).
    priced = Counter()
    pricing = []
    real_bounds, real_splits = bounds.base_bounds, bounds._best_splits

    def spy(sig, q):
        if pricing:
            priced[sig.parts, q] += 1
        return real_bounds(sig, q)

    def splits(*args):
        pricing.append(True)
        try:
            return real_splits(*args)
        finally:
            pricing.pop()

    # A fresh table, built before the spy: the shared one keeps its DP, and
    # building a table checks each entry against the rules.
    table = KnownTable(bundled_known_values())
    monkeypatch.setattr(bounds, "base_bounds", spy)
    monkeypatch.setattr(bounds, "_best_splits", splits)
    for p in range(2, 41):
        for sig in (normalize([3, p]), normalize([2, 2, p])):
            for q in range(p + 1, sig.m + 2):
                best_bounds(sig, q, table)
    assert max(priced.values()) == 1
    assert {(3, 40), (2, 2, 40)} <= {parts for parts, _ in priced}
    priced.clear()
    check_recurrences(40, table)  # the sweep already priced both families
    assert not priced


def _tree(rules):
    return [(r.name, r.detail, _tree(r.children)) for r in rules]


def test_best_bounds_full_provenance():
    rec = best_bounds([3, 9], 10, TABLE)
    assert _tree(rec.provenance) == [
        ("LOWER-M-1", "q=m-1: lower m+p+2=22", []),
        ("UPPER-M3P", "q=m-1: upper m+3p=38", []),
        ("THEOREM-COMPOSE", "4+5: 13+22", [
            ("KNOWN-TABLE", "F(3,4;5) <= 13 (ref [6])", []),
            ("UPPER-M3P", "F(3,5;6) <= 22", [])]),
    ]
    rec = best_bounds([2, 2, 10], 11, TABLE)
    assert (rec.lower, rec.upper) == (24, 35)
    assert _tree(rec.provenance) == [
        ("LOWER-M-1", "q=m-1: lower m+p+2=24", []),
        ("UPPER-M3P", "q=m-1: upper m+3p=42", []),
        ("THEOREM-COMPOSE", "4+6: 13+22", [
            ("KNOWN-TABLE", "F(2,2,4;5) <= 13 (ref [7])", []),
            ("KNOWN-TABLE", "F(2,2,6;7) <= 22 (ref [9])", [])]),
        ("MONOTONE-SUBSUME", "a (2,2,10) witness follows from any (3,10) witness: upper 39", [
            ("LOWER-M-1", "q=m-1: lower m+p+2=24", []),
            ("UPPER-M3P", "q=m-1: upper m+3p=42", []),
            ("THEOREM-COMPOSE", "4+6: 13+26", [
                ("KNOWN-TABLE", "F(3,4;5) <= 13 (ref [6])", []),
                ("UPPER-M3P", "F(3,6;7) <= 26", [])])]),
    ]
    rec = best_bounds([2, 2], 3, TABLE)
    assert (rec.lower, rec.upper) == (5, 5)
    assert _tree(rec.provenance) == [
        ("Q-EQ-M", "q=m=3: exact value m+p=5", []),
        ("THEOREM-COMPOSE", "2: 5", [("Q-EQ-M", "F(2,2;3) <= 5", [])]),
    ]


def test_best_bounds_exact_rules_for_small_signatures():
    parts_pool = [s for s in _signatures(max_r=4, max_part=6)]
    for parts in parts_pool:
        sig = normalize(list(parts))
        m, p = sig.m, sig.p
        rec_above = best_bounds(sig, m + 1, TABLE)
        assert rec_above.exact and rec_above.lower == m
        if folkman_exists(sig, m):  # q = m only exists for r >= 2
            rec_at = best_bounds(sig, m, TABLE)
            assert rec_at.exact and rec_at.lower == m + p


def _signatures(max_r, max_part):
    out = []

    def rec(parts):
        if parts:
            out.append(tuple(parts))
        if len(parts) == max_r:
            return
        lo = parts[-1] if parts else 2
        for a in range(lo, max_part + 1):
            rec(parts + [a])

    rec([])
    return out


def test_best_bounds_boundary_window_respected():
    for parts in _signatures(max_r=3, max_part=6):
        sig = normalize(list(parts))
        m, p = sig.m, sig.p
        if m - 1 <= p:
            continue
        rec = best_bounds(sig, m - 1, TABLE)
        assert rec.lower >= m + p + 2
        assert rec.upper <= m + 3 * p


def test_best_bounds_cross_link():
    for p in range(4, 41):
        two_two = best_bounds([2, 2, p], p + 1, TABLE)
        three = best_bounds([3, p], p + 1, TABLE)
        assert two_two.upper <= three.upper
    rec = best_bounds([2, 2, 9], 10, TABLE)
    assert any(r.name == RULE_MONOTONE for r in rec.provenance)


def test_best_bounds_takes_a_tighter_subsumed_upper():
    # A (3,8;9) upper of 21 below the (2,2,8;9) DP's 26 becomes the
    # (2,2,8;9) upper through the subsumption link.
    assert best_bounds([2, 2, 8], 9, TABLE).upper == 26
    table = KnownTable([*bundled_known_values(), *parse_known_values("3,8;9;-;21;local\n")])
    rec = best_bounds([2, 2, 8], 9, table)
    assert rec.upper == 21
    assert rec.provenance[-1].name == RULE_MONOTONE
    assert rec.provenance[-1].detail.endswith("upper 21")


def test_best_bounds_refuses_entries_that_contradict_through_the_dp():
    # Neither entry meets a direct rule, so each passes the row checks; the
    # DP's (2,3,8;9) upper 10 + 10 from one is below the other's lower 25.
    # The built table asks `best_bounds` at each row's (sig, q) and names
    # the row that set the lower side, in either row order.
    block, lower = "2,3,4;5;-;10;a\n", "2,3,8;9;25;-;b\n"
    crossing = "inconsistent bounds for F(2,3,8;9): lower 25 > upper 20"
    with pytest.raises(ValueError, match="^" + re.escape(f"<string>:2: {crossing}") + "$"):
        KnownTable(parse_known_values(block + lower))
    with pytest.raises(ValueError, match="^" + re.escape(f"<string>:1: {crossing}") + "$"):
        KnownTable(parse_known_values(lower + block))


def test_a_table_refuses_entries_that_contradict_through_the_link():
    # F(3,9;10) <= 30 gives every (2,2,9) witness at q = 10 the upper 30,
    # below the second row's lower 32.
    partner, lower = "3,9;10;-;30;a\n", "2,2,9;10;32;-;b\n"
    crossing = "inconsistent bounds for F(2,2,9;10): lower 32 > upper 30"
    for text, line in ((partner + lower, 2), (lower + partner, 1)):
        with pytest.raises(ValueError, match="^" + re.escape(f"<string>:{line}: {crossing}") + "$"):
            KnownTable(parse_known_values(text))
    # A (3,p) row crossing through its own DP is named as itself, even
    # behind an earlier (2,2,p) row whose record reads it through the link.
    rows = "2,2,8;9;-;30;c\n3,4;5;-;13;d\n3,8;9;27;-;e\n"
    with pytest.raises(ValueError, match="^" + re.escape(
            "<string>:3: inconsistent bounds for F(3,8;9): lower 27 > upper 26") + "$"):
        KnownTable(parse_known_values(rows))
    assert best_bounds([2, 2, 9], 10, KnownTable(parse_known_values(partner))).upper == 30


def test_best_bounds_refuses_to_invent_below_boundary():
    rec = best_bounds([2, 3, 4], 5, TABLE)
    assert rec.lower is None and rec.upper is None
    assert "no rule" in rec.note


def test_best_bounds_nonexistent():
    rec = best_bounds([3, 5], 5, TABLE)
    assert rec.provenance[0].name == RULE_EXISTS_FAIL


def test_check_recurrences():
    report = check_recurrences(20, TABLE)
    assert report.ok
    assert report.checks > 0
    # the conjectured 13p/4 bound is met exactly on multiples of 4
    assert ("3,p", 8) in report.conjectured_quarter_bound_holds
    assert ("3,p", 7) not in report.conjectured_quarter_bound_holds
    with pytest.raises(ValueError):
        check_recurrences(7, TABLE)
    report = check_recurrences(60, TABLE)
    assert report.ok
    assert report.checks == 2 * 57 + 2 * 53


def test_check_recurrences_reports_violations_in_order():
    # Without a table every block v costs the q = m-1 rule's m+3p = 4v+2, so
    # the DP gives 4p+2, which the closed forms meet only at p = 5, 6, 7 for
    # (3,p) and at p = 5 for (2,2,p).
    report = check_recurrences(12, KnownTable())
    assert report.checks == 2 * 9 + 2 * 5
    assert report.conjectured_quarter_bound_holds == ()
    assert report.violations == (
        "3,p, p=4: closed form 13 != composition 18",
        "3,p, p=8: closed form 26 != composition 34",
        "3,p, p=9: closed form 35 != composition 38",
        "3,p, p=10: closed form 39 != composition 42",
        "3,p, p=11: closed form 43 != composition 46",
        "3,p, p=12: closed form 39 != composition 50",
        "2,2,p, p=4: closed form 13 != composition 18",
        "2,2,p, p=6: closed form 22 != composition 26",
        "2,2,p, p=7: closed form 28 != composition 30",
        "2,2,p, p=8: closed form 26 != composition 34",
        "2,2,p, p=9: closed form 35 != composition 38",
        "2,2,p, p=10: closed form 35 != composition 42",
        "2,2,p, p=11: closed form 41 != composition 46",
        "2,2,p, p=12: closed form 39 != composition 50",
    )
    assert not report.ok


def test_recurrence_spot_values():
    assert composition_bound([3, 8], 9, TABLE).upper <= 13 + 13
    assert composition_bound([3, 11], 12, TABLE).upper <= composition_bound([3, 7], 8, TABLE).upper + 13


def test_parse_known_values():
    entries = parse_known_values("3,4;5;13;13;ref [6]\n2,2,6;7;-;22;ref [9]\n")
    assert entries[0].signature == normalize([3, 4])
    assert entries[0].lower == entries[0].upper == 13
    assert entries[1].lower is None and entries[1].upper == 22


def test_parse_known_values_errors_carry_line_numbers():
    with pytest.raises(ValueError, match=":2:"):
        parse_known_values("3,4;5;13;13;ok\n3,4;5;13\n")
    with pytest.raises(ValueError, match=":1:"):
        parse_known_values("3,4;5;x;13;bad\n")
    with pytest.raises(ValueError, match=":1:"):
        parse_known_values("3,4;5;15;13;inverted\n")
    # The parser only parses; the table it fills names the same line.
    with pytest.raises(ValueError, match="^<string>:2: F\\(3,4;4\\) does not exist"):
        KnownTable(parse_known_values("3,4;5;13;13;ok\n3,4;4;-;13;q at the max part\n"))
    with pytest.raises(ValueError, match="^<string>:1: F\\(3,4;8\\): lower 7 > upper 6 of Q-GT-M$"):
        KnownTable(parse_known_values("3,4;8;7;7;q > m makes F exactly m = 6\n"))
    with pytest.raises(ValueError, match="^<string>:1: F\\(3,4;5\\): upper 11 < lower 12 "
                                         "of LOWER-M-1$"):
        KnownTable(parse_known_values("3,4;5;-;11;below the q = m-1 lower bound 12\n"))


@pytest.mark.parametrize("row, field, bad", [("3,x;5;13;13;c", "signature", "x"),
                                            ("3,4;x;13;13;c", "q", "x"),
                                            ("3,4;5;1.5;13;c", "lower", "1.5"),
                                            ("3,4;5;13; ;c", "upper", " ")])
def test_a_table_field_that_is_no_integer_is_named(row, field, bad):
    # Unchecked, each said only "invalid literal for int() with base 10".
    with pytest.raises(ValueError, match=re.escape(
            f"t.txt:2: table field {field!r} expects integers, got {bad!r}") + "$"):
        parse_known_values("3,4;5;13;13;ok\n" + row, "t.txt")


def test_contradicting_table_entries_are_rejected_when_added(tmp_path):
    # Each line passes the rules alone; together they leave no value.
    text = "2,2,6;7;20;-;first\n2,2,6;7;-;18;second\n"
    with pytest.raises(ValueError, match="f.txt:2: F\\(2,2,6;7\\): upper 18 < lower 20 "
                                         "of 'first' at f.txt:1"):
        KnownTable(parse_known_values(text, source="f.txt"))
    extra = tmp_path / "extra.txt"
    extra.write_text("# a lower above the cited exact value\n3,4;5;15;-;bogus\n")
    with pytest.raises(ValueError, match=re.escape(f"{extra}:2: F(3,4;5): lower 15 > upper 13 "
                                                   "of 'ref [6]' at bundled known_values.txt:")):
        default_table(extra_path=extra)
    a = KnownValue(normalize([3, 4]), 5, 13, 13, "a")
    with pytest.raises(ValueError, match="^F\\(3,4;5\\): upper 12 < lower 13 of 'a'$"):
        KnownTable([a, KnownValue(normalize([3, 4]), 5, None, 12, "b")])
    table = KnownTable([a, KnownValue(normalize([3, 4]), 5, None, 13, "c")])  # agreeing entries stay
    assert table.combined(normalize([3, 4]), 5) == (13, 13, ["a", "c"])


def test_table_combines_tightest():
    table = KnownTable([
        KnownValue(normalize([3, 4]), 5, None, 15, "a"),
        KnownValue(normalize([3, 4]), 5, 12, 13, "b"),
    ])
    lower, upper, citations = table.combined(normalize([3, 4]), 5)
    assert (lower, upper) == (12, 13)
    assert citations == ["a", "b"]


def test_combined_hands_out_a_fresh_citation_list():
    # The sides are merged once, when the table is built; a caller that
    # changes the list it was given changes nothing in the table.
    sig = normalize([3, 4])
    table = KnownTable([KnownValue(sig, 5, 12, None, "a"), KnownValue(sig, 5, 11, None, "b")])
    citations = table.combined(sig, 5)[2]
    citations[0] = "forged"
    citations.append("forged")
    assert table.combined(sig, 5) == (12, None, ["a", "b"])
    table.combined(normalize([4, 4]), 6)[2].append("forged")
    assert table.combined(normalize([4, 4]), 6) == (None, None, [])


def test_violating_table_entry_is_a_data_error():
    # rules give lower m+p+2 = 10 > claimed upper 5: refused when the table is built
    with pytest.raises(ValueError, match="^F\\(3,3;4\\): upper 5 < lower 10 of LOWER-M-1$"):
        KnownTable([KnownValue(normalize([3, 3]), 4, None, 5, "bogus")])
    with pytest.raises(ValueError, match="^F\\(3,6;6\\) does not exist: q must exceed 6$"):
        KnownTable([KnownValue(normalize([3, 6]), 6, None, 20, "q at the max part")])


def test_an_entry_below_a_rule_cannot_make_a_false_exact_value():
    # The rule at q = m-1 gives F(3,5;6) >= 14.  Taken as a block price, an
    # upper of 12 made best_bounds([3,10], 11) read "exact 24" against the
    # true [24, 39].
    bogus = KnownValue(normalize([3, 5]), 6, None, 12, "bogus")
    with pytest.raises(ValueError, match="^F\\(3,5;6\\): upper 12 < lower 14 of LOWER-M-1$"):
        KnownTable([bogus])
    with pytest.raises(ValueError, match="LOWER-M-1"):
        KnownTable([*bundled_known_values(), bogus])
    rec = best_bounds([3, 10], 11)
    assert (rec.lower, rec.upper) == (24, 39)


def test_bundled_table_has_cited_entries():
    expectations = {
        ((3, 4), 5): (13, 13, "[6]"),
        ((2, 2, 4), 5): (13, 13, "[7]"),
        ((2, 2, 3), 4): (14, 14, "[2]"),
        ((2, 2, 6), 7): (None, 22, "[9]"),
        ((2, 2, 7), 8): (None, 28, "[9]"),
    }
    for (parts, q), (lo, up, tag) in expectations.items():
        lower, upper, citations = TABLE.combined(normalize(list(parts)), q)
        assert (lower, upper) == (lo, up)
        assert any(tag in c for c in citations)


def test_the_environment_is_ignored(tmp_path, monkeypatch, capsys):
    # Only `table=` and --table extend the bundled table, never a variable
    # of the environment.
    bundled = best_bounds([4, 4], 6)
    cli.main(["bound", "--sig", "4,4", "--q", "6", "--json"])
    bundled_json = json.loads(capsys.readouterr().out)["result"]
    extra = tmp_path / "extra.txt"
    extra.write_text("4,4;6;-;30;local experiment\n")
    monkeypatch.setenv("FOLKMAN_TABLE", str(extra))
    assert default_table().combined(normalize([4, 4]), 6) == (None, None, [])
    assert best_bounds([4, 4], 6) == bundled
    assert cli.main(["bound", "--sig", "4,4", "--q", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == bundled_json
    assert default_table(extra).combined(normalize([4, 4]), 6)[1] == 30


def test_bundled_table_is_parsed_once(monkeypatch):
    sources = []

    def spy(text, source="<string>"):
        sources.append(source)
        return parse_known_values(text, source)

    built = []

    class SpyTable(KnownTable):
        def __init__(self, entries=()):
            built.append(entries)
            super().__init__(entries)

    monkeypatch.setattr(bounds, "parse_known_values", spy)
    monkeypatch.setattr(bounds, "KnownTable", SpyTable)
    bounds.bundled_known_values.cache_clear()
    bounds._bundled_table.cache_clear()
    try:
        for _ in range(3):
            default_table()
            best_bounds([3, 9], 10)
        check_recurrences(12)
    finally:
        bounds._bundled_table.cache_clear()  # no later test may share the spy's table
    assert sources == ["bundled known_values.txt"]
    assert built == [bounds.bundled_known_values()]  # and checked once
    assert bounds.bundled_known_values() is bounds.bundled_known_values()


def test_default_table_is_shared(tmp_path):
    sig = normalize([3, 5])
    table = default_table()
    assert default_table() is table
    extra = tmp_path / "extra.txt"
    extra.write_text("3,5;6;-;21;local experiment\n")
    assert default_table(extra).combined(sig, 6)[1] == 21
    assert default_table(extra) is not default_table(extra)
    assert default_table() is table
    assert table.combined(sig, 6) == (None, None, [])
    assert best_bounds(sig, 6).upper == 22


def _bound_sweep():
    """Every signature with r <= 3 and m <= 30, at every q from p+1 to m+1:
    the (parts, q) of the benchmark's bound sweep, in its order."""
    calls = []
    for r in (1, 2, 3):
        for parts in combinations_with_replacement(range(2, 31), r):
            m = 1 + sum(a - 1 for a in parts)
            if m <= 30:
                calls.extend((parts, q) for q in range(parts[-1] + 1, m + 2))
    return calls


# Three rows at p < q < m-1, where only a table gives a side, and two at
# q = m-1 that reprice a composition block of the (3,p) and (2,2,p) DPs.
USER_ROWS = "3,3,3;5;9;-;a\n3,5,7;9;20;60;b\n2,4,6;8;-;40;c\n3,5;6;-;21;d\n2,2,5;6;-;21;e\n"

# SHA-256 of repr([record, ...]) over the sweep's `best_bounds` records under
# the bundled table, under `KnownTable()` and under the bundled table plus
# USER_ROWS, then the sweep's `composition_bound` records at q = a_r + 1
# under the bundled table, then `check_recurrences(60)`.  A change that moves
# any bound, provenance node or note moves this, and must say so.
BOUND_RECORDS_SHA256 = "8ba8f9aff9e0f2a452cb41e846e532e08c635a459509474ddde7ec9408cc16d4"


def test_the_bound_records_are_pinned():
    calls = _bound_sweep()
    assert len(calls) == 8554
    tables = (default_table(), KnownTable(),
              KnownTable([*bundled_known_values(), *parse_known_values(USER_ROWS)]))
    rows = [best_bounds(parts, q, table) for table in tables for parts, q in calls]
    rows += [composition_bound(parts, q, TABLE)
             for parts, q in calls if len(parts) >= 2 and q == parts[-1] + 1]
    rows.append(check_recurrences(60))
    assert len(rows) == 3 * 8554 + 920 + 1
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == BOUND_RECORDS_SHA256


# SHA-256 of repr([record, ...]) over `base_bounds(parts, q)` at the sweep's
# (parts, q), then at q = p for each of its signatures in order of first
# appearance (the EXISTS-FAIL records).  `KnownTable` holds each row to these
# records and the composition DP prices its blocks by them.
BASE_RECORDS_SHA256 = "bad3d06269192cae3b025bb948f093451ba9315ce327af3e732ed12794a1823e"


def test_the_direct_rule_records_are_pinned():
    calls = _bound_sweep()
    calls += [(parts, parts[-1]) for parts in dict.fromkeys(parts for parts, _ in calls)]
    assert len(calls) == 8554 + 949
    rows = [base_bounds(parts, q) for parts, q in calls]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == BASE_RECORDS_SHA256


def test_a_table_side_clears_the_no_rule_note():
    # At p < q < m-1 the direct rules note that no rule applies; beside a
    # table side `best_bounds` reports the side alone.
    table = KnownTable([*bundled_known_values(), *parse_known_values("3,3,3;5;9;-;local\n")])
    assert base_bounds([3, 3, 3], 5).note == "no rule for q=5 < m-1=6; supply known values"
    rec = best_bounds([3, 3, 3], 5, table)
    assert (rec.lower, rec.upper, rec.note) == (9, None, "")
    assert _tree(rec.provenance) == [(RULE_KNOWN_TABLE, "table gives [9, None] (local)", [])]


def test_below_the_max_part_best_bounds_is_the_direct_rule_record(monkeypatch):
    # At q <= p no table row, composition or (2,2,p) partner adds a side, so
    # every sweep signature gets the EXISTS-FAIL record `base_bounds` built.
    built = []
    real = bounds.base_bounds

    def spy(sig, q):
        built.append(real(sig, q))
        return built[-1]

    monkeypatch.setattr(bounds, "base_bounds", spy)
    tables = (TABLE, KnownTable(),
              KnownTable([*bundled_known_values(), *parse_known_values(USER_ROWS)]))
    signatures = dict.fromkeys(parts for parts, _ in _bound_sweep())
    assert len(signatures) == 949
    for table in tables:
        for parts in signatures:
            for q in range(1, parts[-1] + 1):
                built.clear()
                rec = best_bounds(parts, q, table)
                assert rec is built[0] and rec.note == "nonexistent"


def test_best_bounds_returns_the_direct_rule_record_when_nothing_else_applies(monkeypatch):
    # The sweep under the bundled table: no call goes through
    # `composition_bound`, and every call away from q = a_r + 1 and the
    # (2,2,p) link returns the very record `base_bounds` built for it.
    def no_composition(*args):
        raise AssertionError("best_bounds called composition_bound")

    built = []
    real = bounds.base_bounds

    def spy(sig, q):
        built.append(real(sig, q))
        return built[-1]

    monkeypatch.setattr(bounds, "composition_bound", no_composition)
    monkeypatch.setattr(bounds, "base_bounds", spy)
    alone = 0
    for parts, q in _bound_sweep():
        built.clear()
        rec = best_bounds(parts, q, TABLE)
        composes = len(parts) >= 2 and q == parts[-1] + 1
        if not composes and not (len(parts) == 3 and parts[:2] == (2, 2)):
            assert rec is built[0]
            alone += 1
    assert alone == 7580
    assert best_bounds([3, 9], 10, TABLE).provenance[-1].name == RULE_THEOREM
