import random
import tracemalloc

import numpy as np
import pytest

from starext.errors import ConsistencyViolation, ReplayMismatch, Undecidable
from starext.funlang import (
    Const,
    IfEq,
    IndexPredicate,
    ModC,
    VAR,
    not_,
    or_,
    parse_fn,
)
from starext.gen import rand_indicator
from starext.oracle import (
    TAIL_COUNT,
    WINDOW_START,
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


def complement(p: IndexPredicate) -> IndexPredicate:
    return IndexPredicate.from_expr(not_(p.expr))


def union(p: IndexPredicate, q: IndexPredicate) -> IndexPredicate:
    return IndexPredicate.from_expr(or_(p.expr, q.expr))


def fresh(horizon: int = 2000, tiebreak: str = "least") -> OracleState:
    return OracleState(OracleConfig(horizon=horizon, tiebreak=tiebreak))


def entries(state: OracleState) -> list[LogEntry]:
    """The entries of the state's log, parsed from its in-memory text."""
    return DecisionLog.from_text(state.log.to_text())


# -- basic membership ---------------------------------------------------------

def test_full_set_accepted():
    assert fresh().query(IndexPredicate.from_expr(Const(1))) is True


def test_empty_set_rejected():
    assert fresh().query(IndexPredicate.from_expr(Const(0))) is False


def test_finite_sets_rejected():
    assert fresh().query(below(5)) is False
    assert fresh().query(below(100)) is False


def test_cofinite_sets_accepted():
    state = fresh()
    assert state.query(complement(below(40))) is True


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
        assert state.query(complement(p)) == (not d)


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
    bigger = union(accepted, mod_class(4, 1))
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
    try:
        assert state.query(union(a, b)) is False
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
    logged = entries(state)  # the state has a log of its own
    if not logged:
        pytest.skip("no decisions made")
    top = max(e.witness for e in logged)
    for e in logged:
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
    assert len(reloaded) == len(first.log)
    rewritten = DecisionLog()
    for e in reloaded:
        rewritten.append(e)
    assert rewritten.to_text() == text

    second = replay(reloaded, [p for p, d in zip(preds, decisions) if d is not None],
                    OracleConfig(horizon=800))
    assert second.log.to_text() == text


def test_replay_empty_log():
    state = replay([], [])
    assert len(state.log) == 0


def test_replay_single_entry():
    first = fresh()
    evens = mod_class(2, 0)
    d = first.query(evens)
    second = replay(entries(first), [mod_class(2, 0)], first.config)
    assert second.log.to_text() == first.log.to_text()
    assert second.decided(evens) == d


def test_replay_mismatch_detected():
    first = fresh()
    first.query(mod_class(2, 0))
    entry = entries(first)[0]
    flipped = "reject" if entry.decision == "accept" else "accept"
    bad = [LogEntry(entry.seq, entry.text, flipped, entry.witness)]
    with pytest.raises(ReplayMismatch):
        replay(bad, [mod_class(2, 0)], first.config)


@pytest.mark.parametrize("stop", [1, 3], ids=["shorter", "longer"])
def test_replay_of_other_length_detected(stop):
    """A query sequence that ends before the log, or runs past it."""
    preds = [mod_class(2, 0), mod_class(3, 1), mod_class(5, 2)]
    first = fresh()
    for p in preds[:2]:
        first.query(p)
    with pytest.raises(ReplayMismatch, match="recomputed"):
        replay(entries(first), preds[:stop], first.config)


@pytest.mark.parametrize("line", [
    "1\tx\taccept",      # three fields
    "1\tx\tmaybe\t1",   # no decision
    "one\tx\taccept\t1",  # seq not an integer
    "1\tx\taccept\t1.5",  # witness not an integer
    "0\tx\taccept\t1",  # seq repeats the first entry's
    "2\tx\taccept\t1",  # seq skips a position
])
def test_log_bad_line_is_named(line):
    text = "0\tx mod 2\taccept\t1\n\n" + line + "\n"
    with pytest.raises(ValueError, match="^bad log line 3: "):
        DecisionLog.from_text(text)
    assert len(DecisionLog.from_text("0\tx mod 2\taccept\t1\n\n1\tx\taccept\t1\n")) == 2


def test_log_file_round_trip(tmp_path):
    """A log written to a file holds the text of one kept in memory."""
    path = tmp_path / "d.log"
    with open(path, "w") as sink:
        state = OracleState(OracleConfig(horizon=700), log=DecisionLog(sink))
        run_all(state, random_queries(5, 20))
    ref = fresh(horizon=700)
    run_all(ref, random_queries(5, 20))
    assert len(state.log) == len(ref.log) > 0
    assert path.read_text() == ref.log.to_text()
    assert DecisionLog.read(path) == entries(ref)


def test_file_log_keeps_no_entries(tmp_path):
    """Appending to a file-backed log grows traced memory by less than
    64 KB over 20,000 entries: the lines go to the file, not to a list."""
    fixed = [LogEntry(i, f"ifeq(x mod {i % 89 + 2}, 0, 1, 0)", "accept", i % 250 + 1)
             for i in range(20_000)]
    with open(tmp_path / "d.log", "w") as sink:
        log = DecisionLog(sink)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for entry in fixed:
                log.append(entry)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert len(log) == len(fixed)
    assert grown < 64 * 1024, grown


def test_seeded_tiebreak_is_deterministic():
    preds = random_queries(31, 30)
    a = OracleState(OracleConfig(horizon=700, tiebreak="seeded:5"))
    b = OracleState(OracleConfig(horizon=700, tiebreak="seeded:5"))
    assert run_all(a, preds) == run_all(b, preds)
    assert a.log.to_text() == b.log.to_text()


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
    # each state repeats its own decision, adding no entry
    assert base.query(mod_class(2, 0)) == d1 and sib.query(mod_class(2, 0)) == d2
    assert len(base.log) == 2


# -- the whole-array decision against windowed copies -------------------------

class LoopOracle(OracleState):
    """The decision arithmetic on windowed copies: C starts all True, each
    step copies it and clears the indices below the window, and a
    commitment recomputes ``C &= mask`` or ``C &= ~mask``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._commit = np.ones(self.horizon + 1, dtype=bool)

    def fresh_sibling(self) -> "LoopOracle":
        return LoopOracle(self.config, replay_log=self._replay_log, log=self.log,
                          mask_cache=self._mask_cache)

    def query(self, pred):
        known = self._decisions.get(pred.text)
        if known is not None:
            return known

        const = pred.constant_value()
        if const is True:
            return self._record(pred, True, self._first_of(self._windowed(self._commit)))
        if const is False:
            return self._record(pred, False, self._first_of(self._windowed(self._commit)))

        mask = self._mask_cache.get(pred.text)
        if mask is None:
            mask = pred.mask(self.horizon, self._mask_cache)
            self._mask_cache[pred.text] = mask

        inside = self._windowed(self._commit & mask)
        outside = self._windowed(self._commit & ~mask)
        n_in = int(inside.sum())
        n_out = int(outside.sum())

        if n_in == 0 and n_out == 0:
            raise Undecidable(pred.text, self.horizon, "window exhausted")
        if n_in == 0:
            return self._record(pred, False, self._first_of(outside))
        if n_out == 0:
            return self._record(pred, True, self._first_of(inside))

        in_persists = int(inside[self._tail_lo:].sum()) >= TAIL_COUNT
        out_persists = int(outside[self._tail_lo:].sum()) >= TAIL_COUNT
        if not in_persists and not out_persists:
            raise Undecidable(pred.text, self.horizon, "no side persists near the horizon")
        if in_persists and not out_persists:
            accept = True
        elif out_persists and not in_persists:
            accept = False
        elif self._rng is not None:
            accept = self._rng.random() < 0.5
        else:
            accept = self._first_of(inside) <= self._first_of(outside)
        witness = self._first_of(inside if accept else outside)
        return self._record_mask(pred, accept, witness, mask)

    def _record_mask(self, pred, accept, witness, mask):
        self._commit &= mask if accept else ~mask
        if not self._windowed(self._commit).any():
            raise ConsistencyViolation(
                f"commitment to {pred.text!r} emptied the filter window"
            )
        return self._record(pred, accept, witness)

    @staticmethod
    def _windowed(mask):
        out = mask.copy()
        out[:WINDOW_START] = False
        return out

    @staticmethod
    def _first_of(mask):
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else 0


def random_masks(rng: random.Random, horizon: int, n: int):
    """``n`` truth vectors over 0..horizon of the shapes that matter to a
    decision, each with a text of its own; a few are repeats."""
    n_idx = horizon + 1
    tail = tail_floor(horizon)
    np_rng = np.random.default_rng(rng.randrange(2**32))
    masks = []
    for k in range(n):
        kind = rng.randrange(9)
        if kind == 0:
            mask = np_rng.random(n_idx) < rng.choice((0.02, 0.3, 0.5, 0.7, 0.98))
        elif kind == 1:
            mask = np.zeros(n_idx, dtype=bool)  # empty
        elif kind == 2:
            mask = np.ones(n_idx, dtype=bool)  # full
        elif kind == 3:
            mask = np.zeros(n_idx, dtype=bool)
            mask[0] = True  # only the index below the window
            mask[1:] = np_rng.random(horizon) < 0.05 * rng.randrange(2)
        elif kind == 4:
            # dies out before the top margin
            mask = np.zeros(n_idx, dtype=bool)
            stop = rng.randrange(1, tail + 2)
            mask[:stop] = np_rng.random(stop) < 0.6
        elif kind == 5:
            # keeps fewer than TAIL_COUNT elements in the top margin
            mask = np_rng.random(n_idx) < 0.5
            mask[tail + 1:] = False
            mask[rng.sample(range(tail + 1, n_idx), rng.randrange(TAIL_COUNT))] = True
        elif kind == 6:
            # keeps a thin top margin, which later splits leave to neither side
            mask = np_rng.random(n_idx) < 0.5
            mask[tail + 1:] = False
            mask[rng.sample(range(tail + 1, n_idx), TAIL_COUNT + rng.randrange(3))] = True
        elif kind == 7:
            step = rng.randrange(2, 9)
            mask = np.arange(n_idx) % step == rng.randrange(step)
        else:
            mask = masks[rng.randrange(len(masks))][1] if masks else np.ones(n_idx, bool)
        if rng.random() < 0.5:
            mask[0] = not mask[0]
        masks.append((f"m{k}", mask))
    return masks


def vector_predicate(text: str, mask: np.ndarray) -> IndexPredicate:
    return IndexPredicate(text, vec=lambda ns: mask[ns])


def decide(state: OracleState, pred: IndexPredicate):
    try:
        return state.query(pred)
    except (Undecidable, ConsistencyViolation) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("tiebreak", ["least", "seeded:3", "seeded:-8"])
@pytest.mark.parametrize("horizon", [64, 256, 10_000])
def test_decision_matches_windowed_arithmetic(horizon, tiebreak):
    rng = random.Random(horizon * 7 + len(tiebreak))
    config = OracleConfig(horizon=horizon, tiebreak=tiebreak)
    new, ref = OracleState(config), LoopOracle(config)
    outcomes = []
    for round_ in range(4):
        if round_:
            # a sibling starts from no commitments and shares the log
            new, ref = new.fresh_sibling(), ref.fresh_sibling()
        masks = random_masks(rng, horizon, 60)
        for text, mask in masks:
            if rng.random() < 0.05:
                pred = IndexPredicate.from_expr(Const(int(rng.random() < 0.5)))
            else:
                pred = vector_predicate(text + f"r{round_}", mask)
            got, want = decide(new, pred), decide(ref, pred)
            assert got == want
            outcomes.append(got)
            assert (new._commit[WINDOW_START:] == ref._commit[WINDOW_START:]).all()
        assert new.log.to_text() == ref.log.to_text()
    # accepts, rejects and refusals all occur; C never empties, since
    # each commitment keeps a nonempty side, so the window is never exhausted
    assert True in outcomes and False in outcomes
    assert any("no side persists" in o[1] for o in outcomes if isinstance(o, tuple))
