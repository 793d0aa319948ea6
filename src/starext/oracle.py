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
the recorded decision without a new entry. A replay compares each
decision with the logged one, and its end checks that none is missing
or extra (:meth:`OracleState.check_replay_complete`).

The log is written as decisions are made: :class:`DecisionLog` formats
each entry's line once, writes it to its text sink and keeps only a
count, so memory does not grow with the number of decisions. The CLI's
sink is a temporary file that replaces ``decisions.log`` when the run
ends with a verdict; a library caller's default sink is an
:class:`io.StringIO`. Reading a log (:meth:`DecisionLog.read`) parses
and validates every line up front and returns the entries a replay
compares against.

C is stored over indices 0..H and is False below ``WINDOW_START`` from
the start, so ``C & S`` and ``C & ~S`` are windowed already. A decision
on a cached truth vector is a fixed handful of whole-array operations:
``inside = C & S`` and ``outside = C ^ inside``, ``count_nonzero`` for
the sizes and the tail counts, ``argmax`` for a side's least element
(0 when the side is empty), and the chosen side becomes C.

The state is single-writer: callers must serialize queries. Nothing here
is thread-safe under concurrent mutation.
"""

from __future__ import annotations

import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import ConsistencyViolation, ReplayMismatch, Undecidable
from .funlang import IndexPredicate

DEFAULT_HORIZON = 10_000
#: the smallest horizon an oracle accepts
MIN_HORIZON = 64

#: the least index of the decision window [WINDOW_START, H]
WINDOW_START = 1

#: minimum elements a side must keep in the top margin to count as
#: persisting to the horizon
TAIL_COUNT = 3

#: truth vectors are recomputable; the shared cache is bounded so long
#: runs with many distinct predicates stay within a few tens of MB
MASK_CACHE_LIMIT = 4096


def tail_floor(horizon: int) -> int:
    """Start of the top margin used by the persistence guard."""
    return horizon - max(16, horizon // 8)


def valid_tiebreak(tiebreak: str) -> bool:
    """Whether ``tiebreak`` names a rule: ``least`` or ``seeded:<n>``."""
    return tiebreak == "least" or re.fullmatch(r"seeded:-?[0-9]+", tiebreak) is not None


@dataclass(frozen=True)
class OracleConfig:
    horizon: int = DEFAULT_HORIZON
    tiebreak: str = "least"  # "least" or "seeded:<n>"

    def __post_init__(self):
        if self.horizon < MIN_HORIZON:
            raise ValueError("horizon too small to be meaningful")
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

    Each entry is formatted once and written at once; the log keeps only
    their count. The default sink is an :class:`io.StringIO`.
    """

    def __init__(self, sink: TextIO | None = None):
        self._sink = sink if sink is not None else io.StringIO()
        self._count = 0

    def append(self, entry: LogEntry) -> None:
        self._sink.write(f"{entry.seq}\t{entry.text}\t{entry.decision}\t{entry.witness}\n")
        self._count += 1

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
        entries: list[LogEntry] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            m = _LOG_LINE.fullmatch(line)
            if m is None or m[1] != str(len(entries)):
                raise ValueError(f"bad log line {lineno}: {line!r}")
            entries.append(LogEntry(len(entries), m[2], m[3], int(m[4])))
        return entries

    @staticmethod
    def read(path: str | Path) -> list[LogEntry]:
        return DecisionLog.from_text(Path(path).read_text())


class OracleState:
    """Committed ultrafilter decisions within a horizon.

    ``log`` may be a shared book: several states (see
    :meth:`fresh_sibling`) can append to one global sequence while each
    keeps its own committed family. Sharing the log is how a batch run
    records many independent filter states deterministically in a single
    replayable file. ``mask_cache`` may likewise be shared, since a
    predicate's truth vector does not depend on any filter state.

    ``replay_log``, when given, holds the entries of a recorded log
    (:meth:`DecisionLog.read`); it is checked entry by entry as decisions
    are recomputed, and any divergence raises :class:`ReplayMismatch`.
    """

    def __init__(self, config: OracleConfig | None = None,
                 replay_log: Sequence[LogEntry] | None = None,
                 log: DecisionLog | None = None,
                 mask_cache: dict[str, np.ndarray] | None = None):
        self.config = config or OracleConfig()
        self.horizon = self.config.horizon
        self.log = log if log is not None else DecisionLog()
        # the largest witness this state has logged, -1 before the first
        self._top_witness = -1
        self._replay_log = replay_log
        self._decisions: dict[str, bool] = {}
        self._mask_cache = mask_cache if mask_cache is not None else {}
        # committed intersection C over indices 0..H, False below the window
        self._commit = np.ones(self.horizon + 1, dtype=bool)
        self._commit[:WINDOW_START] = False
        self._tail_lo = tail_floor(self.horizon) + 1
        if self.config.tiebreak.startswith("seeded:"):
            seed = int(self.config.tiebreak.split(":", 1)[1])
            self._rng: random.Random | None = random.Random(seed)
        else:
            self._rng = None

    def fresh_sibling(self) -> "OracleState":
        """A state with no commitments that appends to the same log."""
        return OracleState(
            self.config,
            replay_log=self._replay_log,
            log=self.log,
            mask_cache=self._mask_cache,
        )

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
            return self._record(pred, const, int(self._commit.argmax()))

        mask = self._mask_cache.get(pred.text)
        if mask is None:
            # the cache's vectors span 0..horizon too, so connectives of
            # decided predicates read their parts' vectors from it
            mask = pred.mask(self.horizon, self._mask_cache)
            if len(self._mask_cache) >= MASK_CACHE_LIMIT:
                self._mask_cache.pop(next(iter(self._mask_cache)))
            self._mask_cache[pred.text] = mask

        # C is False below the window, so both sides are windowed already
        # and argmax gives a side's least element (0 when it is empty)
        inside = self._commit & mask
        outside = self._commit ^ inside
        n_in = np.count_nonzero(inside)
        n_out = np.count_nonzero(outside)

        # C is never empty (see _record), so one side has an element
        if n_in == 0:
            return self._record(pred, False, int(outside.argmax()))
        if n_out == 0:
            return self._record(pred, True, int(inside.argmax()))

        in_persists = np.count_nonzero(inside[self._tail_lo:]) >= TAIL_COUNT
        out_persists = np.count_nonzero(outside[self._tail_lo:]) >= TAIL_COUNT
        if not in_persists and not out_persists:
            raise Undecidable(pred.text, self.horizon, "no side persists near the horizon")
        if in_persists and not out_persists:
            accept = True
        elif out_persists and not in_persists:
            accept = False
        elif self._rng is not None:
            accept = self._rng.random() < 0.5
        else:
            accept = int(inside.argmax()) <= int(outside.argmax())
        side = inside if accept else outside
        return self._record(pred, accept, int(side.argmax()), side)

    def check_replay_complete(self) -> None:
        """Raise :class:`ReplayMismatch` unless the run recomputed as many
        decisions as the replayed log holds (each one was compared)."""
        if self._replay_log is not None and len(self.log) != len(self._replay_log):
            raise ReplayMismatch(
                f"recomputed {len(self.log)} decisions, "
                f"the replayed log has {len(self._replay_log)}"
            )

    def check_consistency(self) -> None:
        """Verify the committed family still reaches past every witness."""
        if not self._commit.any():
            raise ConsistencyViolation("committed intersection empty in window")
        top = self._top_witness
        if top >= 0:
            if not self._commit[min(top + 1, self.horizon):].any():
                raise ConsistencyViolation(
                    f"committed intersection empty beyond witness {top}"
                )

    # -- helpers ---------------------------------------------------------------

    def _record(self, pred: IndexPredicate, accept: bool, witness: int,
                commit: np.ndarray | None = None) -> bool:
        """Log the decision; ``commit``, when given, is the new committed
        intersection C."""
        if commit is not None:
            self._commit = commit
            if not commit.any():
                raise ConsistencyViolation(
                    f"commitment to {pred.text!r} emptied the filter window"
                )
        entry = LogEntry(len(self.log), pred.text, "accept" if accept else "reject", witness)
        if self._replay_log is not None and entry.seq < len(self._replay_log):
            expected = self._replay_log[entry.seq]
            if expected != entry:
                raise ReplayMismatch(
                    f"decision {entry.seq}: recomputed {entry!r}, logged {expected!r}"
                )
        self.log.append(entry)
        self._top_witness = max(self._top_witness, witness)
        self._decisions[pred.text] = accept
        return accept


def replay(log: Sequence[LogEntry], queries: Iterable[IndexPredicate],
           config: OracleConfig | None = None) -> OracleState:
    """Re-run a query sequence against a recorded log's entries.

    The queries must recompute the whole log: every decision equal to
    the logged one, and no fewer or more decisions than it has.
    Otherwise :class:`ReplayMismatch` is raised.
    """
    state = OracleState(config, replay_log=log)
    for pred in queries:
        state.query(pred)
    state.check_replay_complete()
    return state
