import random

import pytest

from starext.errors import ConsistencyViolation, ReplayMismatch, Undecidable
from starext.funlang import (
    Const,
    IfEq,
    IndexPredicate,
    ModC,
    VAR,
    parse_fn,
)
from starext.gen import rand_indicator
from starext.oracle import (
    DecisionLog,
    LogEntry,
    OracleConfig,
    OracleState,
    replay,
    tail_floor,
)


def mod_class(k: int, r: int) -> IndexPredicate:
    return IndexPredicate.from_expr(IfEq(ModC(VAR, k), Const(r), Const(1), Const(0)))


def below(k: int) -> IndexPredicate:
    # {n : n < k} via an indicator expression
    return IndexPredicate.from_expr(
        IfEq(parse_fn(f"x div {k}"), Const(0), Const(1), Const(0))
    )


def fresh(horizon: int = 2000, tiebreak: str = "least") -> OracleState:
    return OracleState(OracleConfig(horizon=horizon, tiebreak=tiebreak))


# -- basic membership ---------------------------------------------------------

def test_full_set_accepted():
    assert fresh().query(IndexPredicate.full()) is True


def test_empty_set_rejected():
    assert fresh().query(IndexPredicate.empty()) is False


def test_finite_sets_rejected():
    assert fresh().query(below(5)) is False
    assert fresh().query(below(100)) is False


def test_cofinite_sets_accepted():
    state = fresh()
    assert state.query(below(40).negate()) is True


def test_singleton_near_horizon_rejected():
    state = fresh(horizon=2000)
    deep = tail_floor(2000) + 3
    single = IndexPredicate.from_expr(IfEq(VAR, Const(deep), Const(1), Const(0)))
    assert state.query(single) is False


def test_complement_law_sequential():
    state = fresh()
    evens = mod_class(2, 0)
    odds = mod_class(2, 1)
    d = state.query(evens)
    assert state.query(odds) == (not d)


def test_complement_law_random_predicates():
    rng = random.Random(21)
    for i in range(200):
        state = fresh(horizon=500)
        p = IndexPredicate.from_expr(rand_indicator(rng))
        try:
            d = state.query(p)
        except Undecidable:
            continue
        assert state.query(p.negate()) == (not d)


def test_repeated_query_hits_same_entry():
    state = fresh()
    evens = mod_class(2, 0)
    d1 = state.query(evens)
    n = len(state.log)
    d2 = state.query(mod_class(2, 0))  # same canonical text
    assert d1 == d2
    assert len(state.log) == n


def test_superset_law():
    state = fresh()
    evens = mod_class(2, 0)
    d = state.query(evens)
    accepted = evens if d else mod_class(2, 1)
    bigger = accepted.disj(mod_class(4, 1))
    assert state.query(bigger) is True


def test_finite_union_of_rejected_never_accepted():
    state = fresh()
    odds = mod_class(2, 1)
    d = state.query(odds)
    if not d:
        odds, target = mod_class(2, 0), None
    # whatever was accepted, the two halves of its complement are rejected
    a = mod_class(4, 0) if d else mod_class(4, 1)
    b = mod_class(4, 2) if d else mod_class(4, 3)
    assert state.query(a) is False
    assert state.query(b) is False
    union = a.disj(b)
    try:
        assert state.query(union) is False
    except ConsistencyViolation:
        pass  # also acceptable by contract; acceptance is not


def test_freeness_every_accepted_set_reaches_past_witnesses():
    rng = random.Random(7)
    state = fresh(horizon=2000)
    for _ in range(60):
        try:
            state.query(IndexPredicate.from_expr(rand_indicator(rng)))
        except Undecidable:
            break
    entries = state.entries
    if not entries:
        pytest.skip("no decisions made")
    top = max(e.witness for e in entries)
    for e in entries:
        if e.decision == "accept":
            pred = IndexPredicate(e.text, expr=parse_fn(e.text))
            mask = pred.mask(2000)
            assert mask[top + 1:].any() or mask.all()
    state.check_consistency()


def test_exhaustion_raises_undecidable():
    # accept a set with a slim top margin, then split it: neither half
    # persists, so the only honest verdict is Undecidable
    state = fresh(horizon=500)
    sparse = IndexPredicate.from_expr(
        parse_fn("ifeq(x mod 20, 0, 1, ifeq(x, 1, 1, 0))")
    )
    assert state.query(sparse) is True
    splitter = IndexPredicate.from_expr(
        parse_fn("ifeq(x mod 40, 0, 1, ifeq(x, 1, 1, 0))")
    )
    with pytest.raises(Undecidable):
        state.query(splitter)


# -- determinism and replay -----------------------------------------------------

def random_queries(seed: int, n: int = 50) -> list[IndexPredicate]:
    rng = random.Random(seed)
    return [IndexPredicate.from_expr(rand_indicator(rng)) for _ in range(n)]


def run_all(state: OracleState, preds) -> list:
    out = []
    for p in preds:
        try:
            out.append(state.query(p))
        except Undecidable:
            out.append(None)
    return out


def test_replay_identical_decisions():
    preds = random_queries(99)
    first = fresh(horizon=800)
    decisions = run_all(first, preds)

    text = first.log.to_text()
    reloaded = DecisionLog.from_text(text)
    assert reloaded.entries == first.log.entries

    second = replay(reloaded, [p for p, d in zip(preds, decisions) if d is not None],
                    OracleConfig(horizon=800))
    assert second.log.entries == first.log.entries


def test_replay_empty_log():
    state = replay(DecisionLog(), [])
    assert len(state.log) == 0


def test_replay_single_entry():
    first = fresh()
    evens = mod_class(2, 0)
    d = first.query(evens)
    second = replay(first.log, [mod_class(2, 0)], first.config)
    assert second.log.entries == first.log.entries
    assert second.decided(evens) == d


def test_replay_mismatch_detected():
    first = fresh()
    first.query(mod_class(2, 0))
    entry = first.log.entries[0]
    flipped = "reject" if entry.decision == "accept" else "accept"
    bad = DecisionLog([LogEntry(entry.seq, entry.text, flipped, entry.witness)])
    with pytest.raises(ReplayMismatch):
        replay(bad, [mod_class(2, 0)], first.config)


def test_log_file_round_trip(tmp_path):
    state = fresh(horizon=700)
    run_all(state, random_queries(5, 20))
    path = tmp_path / "d.log"
    state.log.write(path)
    assert DecisionLog.read(path).entries == state.log.entries


def test_seeded_tiebreak_is_deterministic():
    preds = random_queries(31, 30)
    a = OracleState(OracleConfig(horizon=700, tiebreak="seeded:5"))
    b = OracleState(OracleConfig(horizon=700, tiebreak="seeded:5"))
    assert run_all(a, preds) == run_all(b, preds)
    assert a.log.entries == b.log.entries


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        OracleConfig(horizon=10)
    with pytest.raises(ValueError):
        OracleConfig(tiebreak="coinflip")
    with pytest.raises(ValueError):
        OracleConfig(tiebreak="seeded:x")


def test_sibling_states_share_log_but_not_commitments():
    base = fresh()
    d1 = base.query(mod_class(2, 0))
    sib = base.fresh_sibling()
    d2 = sib.query(mod_class(2, 0))
    assert d1 == d2  # same mechanism from a fresh family
    assert len(base.log) == 2
    assert len(base.entries) == 1
    assert len(sib.entries) == 1
