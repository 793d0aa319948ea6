"""Lazy, deterministic, replayable surrogate for a free ultrafilter on N.

A genuine nonprincipal ultrafilter needs the axiom of choice; this module
answers membership queries one at a time while keeping the committed
family consistent up to a finite horizon H. Decisions are made on the
window [1, H] of the index set; index 0 is left out (``WINDOW_START``):

  1. Let C be the intersection of everything committed so far (accepted
     sets and complements of rejected sets). If C and the queried set S
     share no index in the window, reject; if C minus S is empty, accept.
  2. Otherwise freeness is enforced by a persistence guard: a side only
     remains eligible if it keeps at least ``TAIL_COUNT`` elements in the
     top margin (H - margin, H]. A set that dies out before the horizon
     looks finite and must not enter the filter.
  3. If both sides persist, the tie is broken deterministically: accept
     exactly when the least windowed element of C and S comes no later
     than the least element of C minus S (or by a seeded coin when
     configured with ``tiebreak="seeded:<n>"``).

Every decision appends one log entry and shrinks C, which is what makes
the complement, superset and finite-union laws hold mechanically for all
later queries. Repeating a query (same canonical predicate text) returns
the recorded decision without a new entry.

The log is written as decisions are made: :class:`DecisionLog` formats
each entry's line once and writes it to its text sink, so memory does
not grow with the number of decisions. The CLI's sink is a temporary
file that replaces ``decisions.log`` when the run ends with a verdict;
a library caller's default sink is an :class:`io.StringIO`. A log given
the entries of a recorded one replays it: each entry is compared with
the next recorded one before it is written, so a run stops at its first
divergence or missing decision, and
:meth:`DecisionLog.check_replay_complete` finds a recorded entry left
over at the end. Reading a log file (:meth:`DecisionLog.read`)
validates every line up front, then yields the entries from the file
again, one at a time.

C, each cached truth set and the result of a mask build are Python ints
whose bit n is set exactly when n is in the set. C has no bit below
``WINDOW_START`` from the start, so ``C & S`` and ``C ^ (C & S)`` are
windowed already. A decision is a fixed handful of int operations, with
no NumPy call: ``inside = C & S`` and ``outside = C ^ inside``,
:meth:`int.bit_count` for the sizes and, after a shift, the tail counts,
the lowest set bit for a side's least element, and the chosen side
becomes C.

The mask cache holds at most ``MASK_CACHE_LIMIT`` truth sets, about
5.6 MB at H = 10**4, and evicts the oldest insertion first; a hit does
not refresh an entry. A connective of cached predicates is combined from
their sets in bits by :meth:`IndexPredicate.mask
<starext.funlang.IndexPredicate.mask>`, which reads the cache.

The state is single-writer: callers must serialize queries. Nothing here
is thread-safe under concurrent mutation.
"""

from __future__ import annotations

import io
import random
import re
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

from .errors import ConsistencyViolation, ReplayMismatch, Undecidable
from .funlang import INT64_SAFE, IndexPredicate

DEFAULT_HORIZON = 10_000
#: the smallest horizon an oracle accepts
MIN_HORIZON = 64

#: the least index of the decision window [WINDOW_START, H]
WINDOW_START = 1

#: minimum elements a side must keep in the top margin to count as
#: persisting to the horizon
TAIL_COUNT = 3

#: truth sets are recomputable; the shared cache is bounded so long
#: runs with many distinct predicates keep at most 4096 of them, about
#: 5.6 MB at H = 10**4 (4096 ints of 10,001 bits, 1,360 bytes each)
MASK_CACHE_LIMIT = 4096


def tail_floor(horizon: int) -> int:
    """Start of the top margin used by the persistence guard."""
    return horizon - max(16, horizon // 8)


def valid_tiebreak(tiebreak: str) -> bool:
    """Whether ``tiebreak`` names a rule: ``least`` or ``seeded:<n>``."""
    return tiebreak == "least" or re.fullmatch(r"seeded:-?[0-9]+", tiebreak) is not None


def check_horizon(horizon: int) -> None:
    """Raise :class:`ValueError` unless ``horizon`` is one the oracle can
    work with: at least :data:`MIN_HORIZON`, and below
    :data:`~starext.funlang.INT64_SAFE`, from which the input node of
    :func:`~starext.funlang.eval_vec`, and every node that reads it,
    would be computed in Python ints."""
    if horizon < MIN_HORIZON:
        raise ValueError("horizon too small to be meaningful")
    if horizon >= INT64_SAFE:
        raise ValueError("horizon too large: it must be below 2**62")


@dataclass(frozen=True)
class OracleConfig:
    horizon: int = DEFAULT_HORIZON
    tiebreak: str = "least"  # "least" or "seeded:<n>"

    def __post_init__(self):
        check_horizon(self.horizon)
        if not valid_tiebreak(self.tiebreak):
            raise ValueError(f"unknown tiebreak {self.tiebreak!r}")


#: a decision-log line: seq, text, decision and witness, tab-separated
_LOG_LINE = re.compile(r"([0-9]+)\t([^\t]*)\t(accept|reject)\t([0-9]+)")


class LogEntry(NamedTuple):
    seq: int
    text: str
    decision: str  # "accept" | "reject"
    witness: int


class DecisionLog:
    """Append-only record of decisions, written line by line to a text sink.

    Each entry is formatted once and written at once; the log keeps no
    entry, only their number (``len``). The default sink is an
    :class:`io.StringIO`.

    ``replay``, when given, holds the entries of a recorded log: a list,
    or the entries of a log file (:meth:`read`). Each appended entry is
    compared with the next recorded one before it is written, and a
    difference, or a recorded log that has ended, raises
    :class:`ReplayMismatch`. States that append to one log (see
    :meth:`OracleState.fresh_sibling`) share its replay.
    """

    def __init__(self, sink: TextIO | None = None,
                 replay: Iterable[LogEntry] | None = None):
        self._sink = sink if sink is not None else io.StringIO()
        self._count = 0
        self._replay = None if replay is None else iter(replay)

    def append(self, entry: LogEntry) -> None:
        if self._replay is not None:
            expected = next(self._replay, None)
            if expected is None:
                raise ReplayMismatch(f"decision {entry.seq}: the replayed log ends here")
            if expected != entry:
                raise ReplayMismatch(
                    f"decision {entry.seq}: recomputed {entry!r}, logged {expected!r}"
                )
        self._sink.write(f"{entry.seq}\t{entry.text}\t{entry.decision}\t{entry.witness}\n")
        self._count += 1

    def check_replay_complete(self) -> None:
        """Raise :class:`ReplayMismatch` if the replayed log holds an entry
        beyond the last one appended."""
        extra = None if self._replay is None else next(self._replay, None)
        if extra is not None:
            raise ReplayMismatch(
                f"decision {extra.seq}: logged {extra!r}, the run has no such decision"
            )

    def __len__(self) -> int:
        return self._count

    def to_text(self) -> str:
        """The text written so far, when the sink is an :class:`io.StringIO`."""
        return self._sink.getvalue()

    @staticmethod
    def from_text(text: str) -> list[LogEntry]:
        """Parse a log into its entries; a :class:`ValueError` names the
        first line that is not an entry whose seq is its position among
        the entries."""
        return list(_parse(text.splitlines()))

    @staticmethod
    def read(path: str | Path) -> Iterator[LogEntry]:
        """The entries of the log file at ``path``, for a replay. Every
        line is validated now, as by :meth:`from_text`; the entries are
        then read from the file again, one at a time, as the replay
        takes them."""
        for _ in _read_entries(path):
            pass
        return _read_entries(path)


def _parse(lines: Iterable[str]) -> Iterator[LogEntry]:
    """The entries of a log's lines, in order; blank lines are skipped."""
    seq = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        m = _LOG_LINE.fullmatch(line)
        if m is None or m[1] != str(seq):
            raise ValueError(f"bad log line {lineno}: {line!r}")
        yield LogEntry(seq, m[2], m[3], int(m[4]))
        seq += 1


def _file_lines(f: TextIO) -> Iterator[str]:
    """The lines of an open text file as :meth:`str.splitlines` splits its
    whole text, one at a time."""
    for chunk in f:
        yield from chunk.splitlines()


def _read_entries(path: str | Path) -> Iterator[LogEntry]:
    with open(path) as f:
        yield from _parse(_file_lines(f))


class OracleState:
    """Committed ultrafilter decisions within a horizon.

    ``log`` may be a shared book: several states (see
    :meth:`fresh_sibling`) can append to one global sequence while each
    keeps its own committed family. Sharing the log is how a batch run
    records many independent filter states deterministically in a single
    replayable file. ``mask_cache`` may likewise be shared, since a
    predicate's truth set does not depend on any filter state.

    ``mask_cache`` is an :class:`~collections.OrderedDict` from predicate
    texts to their truth sets over 0..horizon, in order of insertion, as
    :meth:`query` stores them: ints whose bit n is set exactly when n is
    in the set. States that share it have one horizon.
    """

    def __init__(self, config: OracleConfig | None = None,
                 log: DecisionLog | None = None,
                 mask_cache: OrderedDict[str, int] | None = None):
        self.config = config or OracleConfig()
        self.horizon = self.config.horizon
        self.log = log if log is not None else DecisionLog()
        # the largest witness this state has logged, -1 before the first
        self._top_witness = -1
        self._decisions: dict[str, bool] = {}
        if mask_cache is None:
            mask_cache = OrderedDict()
        elif not isinstance(mask_cache, OrderedDict):
            # eviction takes the oldest insertion, which a dict cannot pop
            raise TypeError("mask_cache must be an OrderedDict")
        self._mask_cache = mask_cache
        # committed intersection C over indices 0..H, empty below the window
        self._commit = (1 << self.horizon + 1) - (1 << WINDOW_START)
        self._tail_lo = tail_floor(self.horizon) + 1
        if self.config.tiebreak.startswith("seeded:"):
            seed = int(self.config.tiebreak.split(":", 1)[1])
            self._rng: random.Random | None = random.Random(seed)
        else:
            self._rng = None

    def fresh_sibling(self) -> "OracleState":
        """A state with no commitments that appends to the same log."""
        return OracleState(self.config, log=self.log, mask_cache=self._mask_cache)

    # -- introspection -------------------------------------------------------

    def decided(self, pred: IndexPredicate) -> bool | None:
        return self._decisions.get(pred.text)

    # -- the decision procedure ----------------------------------------------

    def query(self, pred: IndexPredicate) -> bool:
        """Decide membership of the predicate's denotation in the filter."""
        known = self._decisions.get(pred.text)
        if known is not None:
            return known

        const = pred.constant_value()
        if const is not None:
            return self._record(pred, const, _least(self._commit))

        cache = self._mask_cache
        mask = cache.get(pred.text)
        if mask is None:
            # the cache's sets span 0..horizon too, so connectives of
            # decided predicates are combined from their parts' sets
            mask = pred.mask(self.horizon, cache)
            if len(cache) >= MASK_CACHE_LIMIT:
                cache.popitem(last=False)
            cache[pred.text] = mask

        # C is empty below the window, so both sides are windowed already
        inside = self._commit & mask
        outside = self._commit ^ inside

        # C is never empty (see _record), so one side has an element
        if not inside:
            return self._record(pred, False, _least(outside))
        if not outside:
            return self._record(pred, True, _least(inside))

        in_persists = (inside >> self._tail_lo).bit_count() >= TAIL_COUNT
        out_persists = (outside >> self._tail_lo).bit_count() >= TAIL_COUNT
        if not in_persists and not out_persists:
            raise Undecidable(pred.text, self.horizon, "no side persists near the horizon")
        if in_persists and not out_persists:
            accept = True
        elif out_persists and not in_persists:
            accept = False
        elif self._rng is not None:
            accept = self._rng.random() < 0.5
        else:
            accept = _least(inside) <= _least(outside)
        side = inside if accept else outside
        return self._record(pred, accept, _least(side), side)

    def check_consistency(self) -> None:
        """Verify the committed family still reaches past every witness."""
        if not self._commit:
            raise ConsistencyViolation("committed intersection empty in window")
        top = self._top_witness
        if top >= 0:
            if not self._commit >> min(top + 1, self.horizon):
                raise ConsistencyViolation(
                    f"committed intersection empty beyond witness {top}"
                )

    # -- helpers ---------------------------------------------------------------

    def _record(self, pred: IndexPredicate, accept: bool, witness: int,
                commit: int | None = None) -> bool:
        """Log the decision; ``commit``, when given, is the new committed
        intersection C."""
        if commit is not None:
            self._commit = commit
            if not commit:
                raise ConsistencyViolation(
                    f"commitment to {pred.text!r} emptied the filter window"
                )
        entry = LogEntry(len(self.log), pred.text, "accept" if accept else "reject", witness)
        self.log.append(entry)
        self._top_witness = max(self._top_witness, witness)
        self._decisions[pred.text] = accept
        return accept


def _least(bits: int) -> int:
    """The least element of a nonempty set of indices held as bits."""
    return (bits & -bits).bit_length() - 1


def replay(log: Iterable[LogEntry], queries: Iterable[IndexPredicate],
           config: OracleConfig | None = None) -> OracleState:
    """Re-run a query sequence against a recorded log's entries.

    The queries must recompute the whole log: every decision equal to
    the logged one, and no fewer or more decisions than it has.
    Otherwise :class:`ReplayMismatch` is raised.
    """
    state = OracleState(config, log=DecisionLog(replay=log))
    for pred in queries:
        state.query(pred)
    state.log.check_replay_complete()
    return state
