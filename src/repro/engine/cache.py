"""Phenotype-keyed evaluation cache of lone evaluations.

Genotypes with the same *phenotype* — the compiled active cone — compile
to byte-identical programs, so a lone ``evaluate()`` (a parent, a
characterization) caches its measure tuple — ``(wmed, area)``
exhaustively, ``(wmed, area, ci_low, ci_high)`` for sampled objectives —
by compiled-program signature.  Brood candidates of the evolve loop
never consult it: the loop already skips offspring whose mutations touch
no active gene, and the rest repeat an evaluated phenotype too rarely
for a signature per candidate to pay.

Entries are threshold-independent: Eq. (1) fitness is re-derived from
the cached measure at lookup time, so one cache serves a whole
multi-target sweep.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..obs.catalog import ENGINE_CACHE_HITS, ENGINE_CACHE_MISSES

__all__ = ["EvalCache"]


class EvalCache:
    """Bounded LRU map: phenotype signature -> measure tuple.

    The measure is whatever the evaluator derives per phenotype:
    ``(wmed, area)`` for exhaustive objectives, ``(wmed, area, ci_low,
    ci_high)`` for sampled ones.  One cache never mixes the two — the
    signature salt folds in the objective (and sample-spec) identity.

    Args:
        max_entries: Capacity; 0 disables caching entirely.
    """

    def __init__(self, max_entries: int = 1 << 16) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = max_entries
        self._entries: "OrderedDict[bytes, Tuple[float, ...]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes) -> Optional[Tuple[float, ...]]:
        # The per-instance ints are the source of truth for stats();
        # the global obs counters are fleet aggregates of the same
        # events (never reset by clear()).
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            ENGINE_CACHE_MISSES.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        ENGINE_CACHE_HITS.inc()
        return entry

    def put(self, key: bytes, *measure: float) -> None:
        if self.max_entries == 0:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = measure
        while len(entries) > self.max_entries:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }
