"""Lazy, deterministic, replayable surrogate for a free ultrafilter on N.

A genuine nonprincipal ultrafilter needs the axiom of choice; this module
answers membership queries one at a time while keeping the committed
family consistent up to a finite horizon H. Decisions are made on the
window (b, H] of the index set, where b is a fixed lower bound (default 0):

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

The state is single-writer: callers must serialize queries. Nothing here
is thread-safe under concurrent mutation.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConsistencyViolation, ReplayMismatch, Undecidable
from .funlang import IndexPredicate

DEFAULT_HORIZON = 10_000

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
    window_start: int = 0

    def __post_init__(self):
        if self.horizon < 64:
            raise ValueError("horizon too small to be meaningful")
        if not valid_tiebreak(self.tiebreak):
            raise ValueError(f"unknown tiebreak {self.tiebreak!r}")


class LogEntry(NamedTuple):
    seq: int
    text: str
    decision: str  # "accept" | "reject"
    witness: int


@dataclass
class DecisionLog:
    """Append-only record of decisions, serializable bit-exactly."""

    entries: list[LogEntry] = field(default_factory=list)

    def append(self, entry: LogEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_text(self) -> str:
        return "".join(
            f"{e.seq}\t{e.text}\t{e.decision}\t{e.witness}\n" for e in self.entries
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "DecisionLog":
        log = cls()
        for lineno, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4 or parts[2] not in ("accept", "reject"):
                raise ValueError(f"bad log line {lineno + 1}: {line!r}")
            log.append(LogEntry(int(parts[0]), parts[1], parts[2], int(parts[3])))
        return log

    @classmethod
    def read(cls, path: str | Path) -> "DecisionLog":
        return cls.from_text(Path(path).read_text())


class OracleState:
    """Committed ultrafilter decisions within a horizon.

    ``log`` may be a shared book: several states (see
    :meth:`fresh_sibling`) can append to one global sequence while each
    keeps its own committed family. Sharing the log is how a batch run
    records many independent filter states deterministically in a single
    replayable file. ``mask_cache`` may likewise be shared, since a
    predicate's truth vector does not depend on any filter state.

    ``replay_log``, when given, is checked entry by entry as decisions
    are recomputed; any divergence raises :class:`ReplayMismatch`.
    """

    def __init__(self, config: OracleConfig | None = None,
                 replay_log: DecisionLog | None = None,
                 log: DecisionLog | None = None,
                 mask_cache: dict[str, np.ndarray] | None = None):
        self.config = config or OracleConfig()
        self.horizon = self.config.horizon
        self.log = log if log is not None else DecisionLog()
        self._entries: list[LogEntry] = []
        self._replay_log = replay_log
        self._decisions: dict[str, bool] = {}
        self._mask_cache = mask_cache if mask_cache is not None else {}
        # committed intersection C over indices 0..H
        self._commit = np.ones(self.horizon + 1, dtype=bool)
        self._tail_lo = tail_floor(self.horizon) + 1
        self._win_lo = self.config.window_start + 1
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

    @property
    def commitments(self) -> list[tuple[str, bool]]:
        return [(e.text, e.decision == "accept") for e in self._entries]

    @property
    def entries(self) -> list[LogEntry]:
        return list(self._entries)

    def decided(self, pred: IndexPredicate) -> bool | None:
        return self._decisions.get(pred.text)

    # -- the decision procedure ----------------------------------------------

    def query(self, pred: IndexPredicate) -> bool:
        """Decide membership of the predicate's denotation in the filter."""
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
            # the cache's vectors span 0..horizon too, so connectives of
            # decided predicates read their parts' vectors from it
            mask = pred.mask(self.horizon, self._mask_cache)
            if len(self._mask_cache) >= MASK_CACHE_LIMIT:
                self._mask_cache.pop(next(iter(self._mask_cache)))
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
        return self._record(pred, accept, witness, mask)

    def check_consistency(self) -> None:
        """Verify the committed family still reaches past every witness."""
        win = self._windowed(self._commit)
        if not win.any():
            raise ConsistencyViolation("committed intersection empty in window")
        if self._entries:
            top = max(e.witness for e in self._entries)
            if not self._commit[min(top + 1, self.horizon):].any():
                raise ConsistencyViolation(
                    f"committed intersection empty beyond witness {top}"
                )

    # -- helpers ---------------------------------------------------------------

    def _windowed(self, mask: np.ndarray) -> np.ndarray:
        out = mask.copy()
        out[: self._win_lo] = False
        return out

    @staticmethod
    def _first_of(mask: np.ndarray) -> int:
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else 0

    def _record(self, pred: IndexPredicate, accept: bool, witness: int,
                mask: np.ndarray | None = None) -> bool:
        if mask is not None:
            self._commit &= mask if accept else ~mask
            if not self._windowed(self._commit).any():
                raise ConsistencyViolation(
                    f"commitment to {pred.text!r} emptied the filter window"
                )
        entry = LogEntry(len(self.log), pred.text, "accept" if accept else "reject", witness)
        if self._replay_log is not None and entry.seq < len(self._replay_log):
            expected = self._replay_log.entries[entry.seq]
            if expected != entry:
                raise ReplayMismatch(
                    f"decision {entry.seq}: recomputed {entry!r}, logged {expected!r}"
                )
        self.log.append(entry)
        self._entries.append(entry)
        self._decisions[pred.text] = accept
        return accept


def replay(log: DecisionLog, queries: Iterable[IndexPredicate],
           config: OracleConfig | None = None) -> OracleState:
    """Re-run a query sequence against a recorded log.

    The queries must be prefix-compatible with the log; the resulting
    state's log equals the input log on the common prefix or
    :class:`ReplayMismatch` is raised.
    """
    state = OracleState(config, replay_log=log)
    for pred in queries:
        state.query(pred)
    return state
