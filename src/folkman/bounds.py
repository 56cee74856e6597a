"""Bound arithmetic over signatures: exact values where a rule applies,
lower/upper bounds elsewhere, join-composition uppers via a composition DP,
and the closed-form tables for the two boundary families F(3,p;p+1) and
F(2,2,p;p+1).  Every record carries a provenance tree naming the rules and
cited values that produced each side.
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .signatures import Signature, _Record, as_signature, folkman_exists, normalize

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
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "children", children)


class BoundRecord(_Record):
    """Lower/upper bounds for one (signature, q) with provenance."""

    __slots__ = ("signature", "q", "lower", "upper", "provenance", "note")

    def __init__(self, signature: Signature, q: int, lower: int | None, upper: int | None,
                 provenance: tuple[Rule, ...] = (), note: str = ""):
        if lower is not None and upper is not None and lower > upper:
            raise ValueError(
                f"inconsistent bounds for F({signature};{q}): lower {lower} > upper {upper}")
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "note", note)

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
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "source", source)

    _key = attrgetter("signature", "q", "lower", "upper", "citation")


class KnownTable:
    """Known values, merged to the tightest bounds per (sig, q); built once and
    never changed.  An entry for a number that does not exist, or one that
    contradicts the direct rules or an earlier entry, is refused here."""

    def __init__(self, entries: Iterable[KnownValue] = ()):
        self._by_key: dict[tuple[tuple[int, ...], int], list[KnownValue]] = {}
        self._splits: dict[tuple[int, ...], tuple[dict, dict]] = {}  # `_best_splits` per prefix
        for entry in entries:
            sig, q = entry.signature, entry.q
            where = f"{entry.source}: " if entry.source else ""
            if not folkman_exists(sig, q):
                raise ValueError(f"{where}F({sig};{q}) does not exist: q must exceed {sig.p}")
            rules = base_bounds(sig, q)  # its first rule gives the lower side, its last the upper
            group = self._by_key.setdefault((sig.parts, q), [])
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

    def combined(self, sig: Signature, q: int) -> tuple[int | None, int | None, list[str]]:
        """Tightest (lower, upper) over all entries for (sig, q), with citations."""
        group = self._by_key.get((sig.parts, q), [])
        lower = upper = None
        citations = []
        for e in group:
            if e.lower is not None and (lower is None or e.lower > lower):
                lower = e.lower
            if e.upper is not None and (upper is None or e.upper < upper):
                upper = e.upper
            citations.append(e.citation)
        return lower, upper, citations


def parse_known_values(text: str, source: str = "<string>") -> list[KnownValue]:
    """Parse the line-oriented known-values format.

    Each line is ``a1,a2,...;q;lower|-;upper|-;citation`` with ``#`` comments.
    A line that does not parse, or whose own sides are missing or inverted,
    is rejected with its source and line.  Every entry carries that
    ``source:line``, so `KnownTable` names it when it refuses the entry.
    """
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
            sig = normalize(int(t) for t in parts_text.split(","))
            q = int(q_text)
            lower = None if lower_text.strip() == "-" else int(lower_text)
            upper = None if upper_text.strip() == "-" else int(upper_text)
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


def base_bounds(sig: Signature | Iterable[int], q: int,
                table: KnownTable | None = None) -> BoundRecord:
    """Bounds from the direct rules, tightened by the known-values table.

    q > m is exact m; q = m exact m+p; q = m-1 yields [m+p+2, m+3p]; for
    p < q < m-1 no rule applies and both sides stay open.  Wherever the
    number exists (q > p), the entries of `table` for (sig, q) then tighten
    either side and add a KNOWN-TABLE provenance node; `table=None` means
    no table, the direct rules alone.  For q <= p the record says the
    number does not exist.
    """
    sig = as_signature(sig)
    m, p = sig.m, sig.p
    if q <= p:
        return BoundRecord(
            sig, q, None, None,
            (Rule(RULE_EXISTS_FAIL, f"q={q} <= max part {p}: F({sig};{q}) does not exist"),),
            note="nonexistent")
    note = ""
    if q > m:
        lower = upper = m
        provenance = (Rule(RULE_Q_GT_M, f"q={q} > m={m}: exact value m={m}"),)
    elif q == m:
        lower = upper = m + p
        provenance = (Rule(RULE_Q_EQ_M, f"q=m={m}: exact value m+p={m + p}"),)
    elif q == m - 1:
        lower, upper = m + p + 2, m + 3 * p
        provenance = (Rule(RULE_LOWER_M1, f"q=m-1: lower m+p+2={m + p + 2}"),
                      Rule(RULE_UPPER_M3P, f"q=m-1: upper m+3p={m + 3 * p}"))
    else:
        lower = upper = None
        provenance = ()
        note = f"no rule for q={q} < m-1={m - 1}; supply known values"
    known_lower, known_upper, citations = (table.combined(sig, q) if table is not None
                                           else (None, None, []))
    if known_lower is not None and (lower is None or known_lower > lower):
        lower = known_lower
    if known_upper is not None and (upper is None or known_upper < upper):
        upper = known_upper
    if known_lower is not None or known_upper is not None:
        detail = f"table gives [{known_lower}, {known_upper}] ({'; '.join(citations)})"
        provenance += (Rule(RULE_KNOWN_TABLE, detail),)
    return BoundRecord(sig, q, lower, upper, provenance, note)


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
    if q != ar + 1:
        raise ValueError(f"composition bound only applies at q = a_r + 1 = {ar + 1}, got q={q}")
    if table is None:
        table = default_table()
    price, best = _best_splits(sig.parts[:-1], ar, table)
    if best[ar] is None:
        return BoundRecord(sig, q, None, None, (),
                           note="no composition block has a known upper bound")
    total, blocks = best[ar]
    detail = "+".join(str(b) for b in blocks) + ": " + "+".join(str(price[b][0]) for b in blocks)
    return BoundRecord(sig, q, None, total,
                       (Rule(RULE_THEOREM, detail, tuple(price[b][1] for b in blocks)),))


def closed_form_upper_3p(p: int) -> int:
    """Closed-form upper for the boundary family with a triangle part."""
    if p < 4:
        raise ValueError("closed forms require p >= 4")
    return (13 * p + (0, 23, 26, 29)[p % 4]) // 4


def closed_form_upper_22p(p: int) -> int:
    """Closed-form upper for the boundary family with two edge parts."""
    if p < 4:
        raise ValueError("closed forms require p >= 4")
    return (13 * p + (0, 23, 10, 21)[p % 4]) // 4


def best_bounds(sig: Signature | Iterable[int], q: int,
                table: KnownTable | None = None) -> BoundRecord:
    """Tightest bounds from every applicable source.

    Intersects the direct rules, the known-values table, the composition
    bound (when q = a_r + 1), and the subsumption link that lets a
    (2,2,p) upper adopt the (3,p) upper at the same clique cap.  The
    provenance lists every contributor.  `table=None` means the shared
    bundled table; calls that share a table share its composition DP.
    """
    sig = as_signature(sig)
    if table is None:
        table = default_table()
    rec = base_bounds(sig, q, table)
    if q <= sig.p:
        return rec
    lower, upper = rec.lower, rec.upper
    provenance = list(rec.provenance)

    if sig.r >= 2 and q == sig.parts[-1] + 1:
        th = composition_bound(sig, q, table)
        if th.upper is not None:
            provenance.extend(th.provenance)
            if upper is None or th.upper < upper:
                upper = th.upper

    if sig.r == 3 and sig.parts[0] == 2 and sig.parts[1] == 2:
        partner = normalize([3, sig.parts[2]])
        partner_rec = best_bounds(partner, q, table)
        if partner_rec.upper is not None:
            detail = f"a (2,2,{sig.parts[2]}) witness follows from any (3,{sig.parts[2]}) witness: upper {partner_rec.upper}"
            provenance.append(Rule(RULE_MONOTONE, detail, partner_rec.provenance))
            if upper is None or partner_rec.upper < upper:
                upper = partner_rec.upper

    return BoundRecord(sig, q, lower, upper, tuple(provenance), rec.note if lower is None and upper is None else "")


class RecurrenceReport(_Record):
    """Outcome of the self-consistency sweep over the two boundary families."""

    __slots__ = ("p_max", "checks", "violations", "conjectured_quarter_bound_holds")

    def __init__(self, p_max: int, checks: int = 0, violations: tuple[str, ...] = (),
                 conjectured_quarter_bound_holds: tuple[tuple[str, int], ...] = ()):
        object.__setattr__(self, "p_max", p_max)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "conjectured_quarter_bound_holds",
                           conjectured_quarter_bound_holds)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_recurrences(p_max: int, table: KnownTable | None = None) -> RecurrenceReport:
    """Verify the step-4 recurrences and the closed forms against the DP.

    For 8 <= p <= p_max the computed uppers must satisfy
    upper(p) <= upper(p-4) + step in both families, where step is the
    table's upper for F(3,4;5) or F(2,2,4;5) (13 with the bundled table),
    and for 4 <= p <= p_max the closed forms must equal the composition DP
    exactly.  One DP per family prices every p.  The conjectured 13p/4
    bound is never used as an input; the report only notes where the
    computed uppers already meet it.  `table=None` means the bundled table
    alone.
    """
    if p_max < 8:
        raise ValueError("p_max must be at least 8")
    if table is None:
        table = default_table()
    checks = 0
    violations = []
    quarter_holds = []
    families = (("3,p", (3,), closed_form_upper_3p), ("2,2,p", (2, 2), closed_form_upper_22p))
    for name, prefix, closed_form in families:
        _, best = _best_splits(prefix, p_max, table)
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
        step = base_bounds(Signature(prefix + (4,)), 5, table).upper
        for p in range(8, p_max + 1):
            checks += 1
            if p in uppers and p - 4 in uppers and uppers[p] > uppers[p - 4] + step:
                violations.append(
                    f"{name}, p={p}: recurrence fails: {uppers[p]} > "
                    f"{uppers[p - 4]} + {step}")
    return RecurrenceReport(p_max, checks, tuple(violations), tuple(quarter_holds))
