"""Bound arithmetic over signatures: exact values where a rule applies,
lower/upper bounds elsewhere, join-composition uppers via a composition DP,
and the closed-form tables for the two boundary families F(3,p;p+1) and
F(2,2,p;p+1).  Every record carries a provenance tree naming the rules and
cited values that produced each side.
"""

from __future__ import annotations

from functools import cache, partial
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .signatures import (Signature, _Record, _field_integer, _integer, as_signature,
                         folkman_exists, normalize)

RULE_EXISTS_FAIL = "EXISTS-FAIL"
RULE_Q_GT_M = "Q-GT-M"
RULE_Q_EQ_M = "Q-EQ-M"
RULE_LOWER_M1 = "LOWER-M-1"
RULE_UPPER_M3P = "UPPER-M3P"
RULE_KNOWN_TABLE = "KNOWN-TABLE"
RULE_THEOREM = "THEOREM-COMPOSE"
RULE_MONOTONE = "MONOTONE-SUBSUME"

# Multi-part compositions use blocks of at least this size: the closed-form
# tables are built from 4-blocks (the 13-vertex values) plus one boundary
# block, and smaller blocks are deliberately excluded so the engine
# reproduces those tables exactly.
MIN_COMPOSE_PART = 4


class Rule(_Record):
    """One node of a provenance tree: rule id, human detail, child rules."""

    __slots__ = ("name", "detail", "children")

    def __init__(self, name: str, detail: str = "", children: tuple[Rule, ...] = ()):
        set_name, set_detail, set_children = self._set
        set_name(self, name)
        set_detail(self, detail)
        set_children(self, children)


class BoundRecord(_Record):
    """Lower/upper bounds for one (signature, q) with provenance."""

    __slots__ = ("signature", "q", "lower", "upper", "provenance", "note")

    def __init__(self, signature: Signature, q: int, lower: int | None, upper: int | None,
                 provenance: tuple[Rule, ...] = (), note: str = ""):
        if lower is not None and upper is not None and lower > upper:
            raise ValueError(
                f"inconsistent bounds for F({signature};{q}): lower {lower} > upper {upper}")
        set_signature, set_q, set_lower, set_upper, set_provenance, set_note = self._set
        set_signature(self, signature)
        set_q(self, q)
        set_lower(self, lower)
        set_upper(self, upper)
        set_provenance(self, provenance)
        set_note(self, note)

    @property
    def exact(self) -> bool:
        return self.lower is not None and self.lower == self.upper


class KnownValue(_Record):
    """One known-values table entry; signature stored normalized.  `source`
    says where the entry was read, as ``file:line``, when it came from a file;
    equality and hashing ignore it.
    """

    __slots__ = ("signature", "q", "lower", "upper", "citation", "source")

    def __init__(self, signature: Signature, q: int, lower: int | None, upper: int | None,
                 citation: str, source: str = ""):
        if lower is None and upper is None:
            raise ValueError("known value needs at least one side")
        if lower is not None and upper is not None and lower > upper:
            raise ValueError(f"known value has lower {lower} > upper {upper}")
        set_signature, set_q, set_lower, set_upper, set_citation, set_source = self._set
        set_signature(self, signature)
        set_q(self, q)
        set_lower(self, lower)
        set_upper(self, upper)
        set_citation(self, citation)
        set_source(self, source)

    _key = attrgetter("signature", "q", "lower", "upper", "citation")


class KnownTable:
    """Known values, merged to the tightest bounds per (sig, q); built once and
    never changed.  An entry for a number that does not exist, or one that
    contradicts the direct rules of `base_bounds` or an earlier entry, is
    refused here, and so is one whose lower side crosses an upper that the
    composition DP or the (2,2,p) link builds from the other entries."""

    def __init__(self, entries: Iterable[KnownValue] = ()):
        by_key: dict[tuple[tuple[int, ...], int], list[KnownValue]] = {}
        self._splits: dict[tuple[int, ...], tuple[dict, dict]] = {}  # `_best_splits` per prefix
        for entry in entries:
            sig, q = entry.signature, entry.q
            where = f"{entry.source}: " if entry.source else ""
            if not folkman_exists(sig, q):
                raise ValueError(f"{where}F({sig};{q}) does not exist: q must exceed {sig.p}")
            rules = base_bounds(sig, q)  # its first rule gives the lower side, its last the upper
            group = by_key.setdefault((sig.parts, q), [])
            sides = [(rules.lower, None, rules.provenance[0].name),
                     (None, rules.upper, rules.provenance[-1].name)] if rules.provenance else []
            sides += [(old.lower, old.upper, f"{old.citation!r} at {old.source}" if old.source
                       else repr(old.citation)) for old in group]
            for lower, upper, name in sides:
                if entry.lower is not None and upper is not None and entry.lower > upper:
                    clash = f"lower {entry.lower} > upper {upper}"
                elif entry.upper is not None and lower is not None and entry.upper < lower:
                    clash = f"upper {entry.upper} < lower {lower}"
                else:
                    continue
                raise ValueError(f"{where}F({sig};{q}): {clash} of {name}")
            group.append(entry)
        # Each key merged once: largest lower, smallest upper, citations in row order.
        self._sides = {key: (max((e.lower for e in group if e.lower is not None), default=None),
                             min((e.upper for e in group if e.upper is not None), default=None),
                             tuple(e.citation for e in group)) for key, group in by_key.items()}
        # Rows may still cross through the composition DP or the (2,2,p) link,
        # which `best_bounds` alone reads: it is asked once every row is in,
        # since the DP keeps its prices on the table.  Only a (sig, q) with a
        # row can cross, by its lower row; a (2,2,p) record reads its (3,p)
        # partner's, so the partners are asked first.
        for parts, q in sorted(by_key, key=lambda key: key[0][:2] == (2, 2)):
            try:
                best_bounds(parts, q, self)
            except ValueError as exc:
                row = max((e for e in by_key[parts, q] if e.lower is not None),
                          key=attrgetter("lower"))
                where = f"{row.source}: " if row.source else ""
                raise ValueError(f"{where}{exc}") from None

    def combined(self, sig: Signature, q: int) -> tuple[int | None, int | None, list[str]]:
        """Tightest (lower, upper) over all entries for (sig, q), with citations."""
        lower, upper, citations = self._sides.get((sig.parts, q), (None, None, ()))
        return lower, upper, [*citations]


def parse_known_values(text: str, source: str = "<string>") -> list[KnownValue]:
    """Parse the line-oriented known-values format.

    Each line is ``a1,a2,...;q;lower|-;upper|-;citation`` with ``#`` comments.
    A line that does not parse, or whose own sides are missing or inverted,
    is rejected with its source and line; a field that is no integer is
    also named.  Every entry carries that ``source:line``, so `KnownTable`
    names it when it refuses the entry.
    """
    number = partial(_field_integer, "table")
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(";", 4)
        if len(fields) != 5:
            raise ValueError(f"{source}:{lineno}: expected 5 ';'-separated fields, got {len(fields)}")
        parts_text, q_text, lower_text, upper_text, citation = fields
        try:
            sig = normalize(number("signature", t) for t in parts_text.split(","))
            q = number("q", q_text)
            lower = None if lower_text.strip() == "-" else number("lower", lower_text)
            upper = None if upper_text.strip() == "-" else number("upper", upper_text)
            out.append(KnownValue(sig, q, lower, upper, citation.strip(), f"{source}:{lineno}"))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return out


def load_known_values(path: str | Path) -> list[KnownValue]:
    path = Path(path)
    return parse_known_values(path.read_text(encoding="utf-8"), source=str(path))


@cache
def bundled_known_values() -> tuple[KnownValue, ...]:
    """The bundled table's entries, read and parsed once per process."""
    text = resources.files("folkman").joinpath("data/known_values.txt").read_text(encoding="utf-8")
    return tuple(parse_known_values(text, source="bundled known_values.txt"))


@cache
def _bundled_table() -> KnownTable:
    return KnownTable(bundled_known_values())


def default_table(extra_path: str | Path | None = None) -> KnownTable:
    """The bundled table: one shared table per process, built and checked
    once.  With `extra_path`, a new table of the bundled entries followed by
    the entries of that file."""
    if extra_path is None:
        return _bundled_table()
    return KnownTable([*bundled_known_values(), *load_known_values(extra_path)])


def base_bounds(sig: Signature | Iterable[int], q: int) -> BoundRecord:
    """Bounds from the direct rules alone: the check every table row is held to.

    q > m is exact m; q = m exact m+p; q = m-1 yields [m+p+2, m+3p]; for
    p < q < m-1 no rule applies and both sides stay open.  For q <= p the
    record says the number does not exist.  `best_bounds` adds a table's
    sides to these records.
    """
    sig = as_signature(sig)
    q = _integer(q, "clique cap q must be an integer")
    m, p = sig.m, sig.p
    if q <= p:
        return BoundRecord(
            sig, q, None, None,
            (Rule(RULE_EXISTS_FAIL, f"q={q} <= max part {p}: F({sig};{q}) does not exist"),),
            note="nonexistent")
    if q > m:
        return BoundRecord(sig, q, m, m, (Rule(RULE_Q_GT_M, f"q={q} > m={m}: exact value m={m}"),))
    if q == m:
        return BoundRecord(sig, q, m + p, m + p,
                           (Rule(RULE_Q_EQ_M, f"q=m={m}: exact value m+p={m + p}"),))
    if q == m - 1:
        return BoundRecord(sig, q, m + p + 2, m + 3 * p,
                           (Rule(RULE_LOWER_M1, f"q=m-1: lower m+p+2={m + p + 2}"),
                            Rule(RULE_UPPER_M3P, f"q=m-1: upper m+3p={m + 3 * p}")))
    return BoundRecord(sig, q, None, None, (),
                       f"no rule for q={q} < m-1={m - 1}; supply known values")


def _best_splits(prefix: tuple[int, ...], ar: int, table: KnownTable) -> tuple[dict, dict]:
    """The composition DP of `composition_bound`, kept per prefix on `table`
    as (price, best) and extended to every block sum v <= ar.

    price[v] is (upper, leaf rule) for F(prefix, v; v+1), absent when no
    upper is known; best[v] is the minimizing (total, block multiset), None
    when no split has an upper.  An entry depends on v and the entries below
    it, never on the a_r that asked for it, so best holds each v done from
    prefix[-1] up and the DP resumes at prefix[-1] + len(best).  Blocks
    below max(prefix[-1], MIN_COMPOSE_PART) stand only alone.
    """
    splits = table._splits.get(prefix)
    if splits is None:
        splits = table._splits[prefix] = ({}, {})
    price, best = splits
    min_part = max(prefix[-1], MIN_COMPOSE_PART)
    for v in range(prefix[-1] + len(best), ar + 1):
        merged = Signature(prefix + (v,))
        rules = base_bounds(merged, v + 1)
        _, known, citations = table.combined(merged, v + 1)
        at = f"F({merged};{v + 1}) <= "
        if known is not None and (rules.upper is None or known < rules.upper):
            price[v] = known, Rule(RULE_KNOWN_TABLE, f"{at}{known} ({'; '.join(citations)})")
        elif rules.upper is not None:
            price[v] = rules.upper, Rule(rules.provenance[-1].name, f"{at}{rules.upper}")
        candidates = [(price[v][0], (v,))] if v in price else []
        candidates += [(best[u][0] + best[v - u][0], tuple(sorted(best[u][1] + best[v - u][1])))
                       for u in range(min_part, v // 2 + 1) if best[u] and best[v - u]]
        best[v] = min(candidates, key=lambda c: (c[0], len(c[1]), c[1]), default=None)
    return splits


def _composition(parts: tuple[int, ...], table: KnownTable) -> tuple[int, Rule] | None:
    """The composition DP's best upper for F(parts; a_r+1) with its
    THEOREM-COMPOSE rule, or None when no split has a known upper."""
    ar = parts[-1]
    price, best = _best_splits(parts[:-1], ar, table)
    if best[ar] is None:
        return None
    total, blocks = best[ar]
    detail = "+".join(str(b) for b in blocks) + ": " + "+".join(str(price[b][0]) for b in blocks)
    return total, Rule(RULE_THEOREM, detail, tuple(price[b][1] for b in blocks))


def composition_bound(sig: Signature | Iterable[int], q: int,
                      table: KnownTable | None = None) -> BoundRecord:
    """Best join-composition upper bound for F(a1,...,ar; a_r+1).

    Splits a_r into blocks, prices each block b as the best known upper for
    the signature with b in place of a_r (at clique cap b+1), and minimizes
    the total over all splits by dynamic programming.  Multi-block splits
    use blocks of size >= max(a_{r-1}, MIN_COMPOSE_PART); the single-block
    split is always admissible.  Ties prefer fewer blocks, then the
    lexicographically smallest block multiset.  `table=None` means the
    bundled table, as in `best_bounds`; an empty `KnownTable()` leaves the
    direct rules alone.  The DP is kept per (a1..a_{r-1}, table).
    """
    sig = as_signature(sig)
    if sig.r < 2:
        raise ValueError(f"composition needs at least two parts, got {sig}")
    ar = sig.parts[-1]
    q = _integer(q, "clique cap q must be an integer")
    if q != ar + 1:
        raise ValueError(f"composition bound only applies at q = a_r + 1 = {ar + 1}, got q={q}")
    if table is None:
        table = default_table()
    composed = _composition(sig.parts, table)
    if composed is None:
        return BoundRecord(sig, q, None, None, (),
                           note="no composition block has a known upper bound")
    return BoundRecord(sig, q, None, composed[0], (composed[1],))


def closed_form_upper_3p(p: int) -> int:
    """Closed-form upper for the boundary family with a triangle part."""
    p = _integer(p, "closed forms require an integer p")
    if p < 4:
        raise ValueError("closed forms require p >= 4")
    return (13 * p + (0, 23, 26, 29)[p % 4]) // 4


def closed_form_upper_22p(p: int) -> int:
    """Closed-form upper for the boundary family with two edge parts."""
    p = _integer(p, "closed forms require an integer p")
    if p < 4:
        raise ValueError("closed forms require p >= 4")
    return (13 * p + (0, 23, 10, 21)[p % 4]) // 4


def best_bounds(sig: Signature | Iterable[int], q: int,
                table: KnownTable | None = None) -> BoundRecord:
    """Tightest bounds from every applicable source.

    Intersects the direct rules of `base_bounds`, the table's sides for
    (sig, q), the composition bound (when q = a_r + 1), and the
    subsumption link that lets a (2,2,p) upper adopt the (3,p) upper at the
    same clique cap.  The provenance lists every contributor.  When none of
    the last three adds anything, it returns the record of `base_bounds`
    itself; otherwise a side is set, and the record has no note.
    `table=None` means the shared bundled table; calls that share a table
    share its composition DP.
    """
    sig = as_signature(sig)
    if table is None:
        table = default_table()
    rec = base_bounds(sig, q)
    parts, q = sig.parts, rec.q
    lower, upper, provenance = rec.lower, rec.upper, rec.provenance

    known_lower, known_upper, citations = table.combined(sig, q)
    if citations:
        detail = f"table gives [{known_lower}, {known_upper}] ({'; '.join(citations)})"
        provenance += (Rule(RULE_KNOWN_TABLE, detail),)
        if known_lower is not None and (lower is None or known_lower > lower):
            lower = known_lower
        if known_upper is not None and (upper is None or known_upper < upper):
            upper = known_upper

    if len(parts) >= 2 and q == parts[-1] + 1:
        composed = _composition(parts, table)
        if composed is not None:
            provenance += (composed[1],)
            if upper is None or composed[0] < upper:
                upper = composed[0]

    if len(parts) == 3 and parts[:2] == (2, 2):
        partner = best_bounds(normalize([3, parts[2]]), q, table)
        if partner.upper is not None:
            detail = f"a (2,2,{parts[2]}) witness follows from any (3,{parts[2]}) witness: upper {partner.upper}"
            provenance += (Rule(RULE_MONOTONE, detail, partner.provenance),)
            if upper is None or partner.upper < upper:
                upper = partner.upper

    if provenance is rec.provenance:
        return rec
    return BoundRecord(sig, q, lower, upper, provenance)


class RecurrenceReport(_Record):
    """Outcome of the self-consistency sweep over the two boundary families."""

    __slots__ = ("p_max", "checks", "violations", "conjectured_quarter_bound_holds")

    def __init__(self, p_max: int, checks: int = 0, violations: tuple[str, ...] = (),
                 conjectured_quarter_bound_holds: tuple[tuple[str, int], ...] = ()):
        set_p_max, set_checks, set_violations, set_conjectured_quarter_bound_holds = self._set
        set_p_max(self, p_max)
        set_checks(self, checks)
        set_violations(self, violations)
        set_conjectured_quarter_bound_holds(self, conjectured_quarter_bound_holds)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_recurrences(p_max: int, table: KnownTable | None = None) -> RecurrenceReport:
    """Verify the step-4 recurrences and the closed forms against the DP.

    For 8 <= p <= p_max the computed uppers must satisfy
    upper(p) <= upper(p-4) + step in both families, where step is the DP's
    price of the 4-block F(3,4;5) or F(2,2,4;5), the lesser of the direct
    and table uppers (13 with the bundled table), and for 4 <= p <= p_max
    the closed forms must equal the composition DP exactly.  One DP per
    family prices every p.  The conjectured 13p/4 bound is never used as an
    input; the report only notes where the computed uppers already meet it.
    `table=None` means the bundled table.
    """
    p_max = _integer(p_max, "p_max must be an integer")
    if p_max < 8:
        raise ValueError("p_max must be at least 8")
    if table is None:
        table = default_table()
    checks = 0
    violations = []
    quarter_holds = []
    families = (("3,p", (3,), closed_form_upper_3p), ("2,2,p", (2, 2), closed_form_upper_22p))
    for name, prefix, closed_form in families:
        price, best = _best_splits(prefix, p_max, table)
        uppers = {p: best[p][0] for p in range(4, p_max + 1) if best[p] is not None}
        for p in range(4, p_max + 1):
            checks += 1
            if p not in uppers:
                violations.append(f"{name}, p={p}: no composition upper")
                continue
            if closed_form(p) != uppers[p]:
                violations.append(
                    f"{name}, p={p}: closed form {closed_form(p)} != composition {uppers[p]}")
            if 4 * uppers[p] <= 13 * p:
                quarter_holds.append((name, p))
        step = price[4][0]
        for p in range(8, p_max + 1):
            checks += 1
            if p in uppers and p - 4 in uppers and uppers[p] > uppers[p - 4] + step:
                violations.append(
                    f"{name}, p={p}: recurrence fails: {uppers[p]} > "
                    f"{uppers[p - 4]} + {step}")
    return RecurrenceReport(p_max, checks, tuple(violations), tuple(quarter_holds))
