"""Seeded uniform sampling of rational Dyck paths by unranking.

Paths are ranked in the lexicographic order of their step sequences, which
is the order ``ratdyck.paths.enumerate_paths`` yields them in.  The suffix
table counts, for every up-step index j and position u of the j-th up step,
the ways to place the remaining up steps; unranking walks it greedily.  The
library has no unranking of its own, so the table lives here and the tests
check it against enumeration on small slopes.
"""

from __future__ import annotations

import random


class PathSampler:
    """Unrank the step sequences of one ``ratdyck.paths.Slope``."""

    def __init__(self, slope) -> None:
        an = slope.up_count
        bounds = [0] + [slope.step_bound(j) for j in range(1, an + 1)]
        self._bounds = bounds
        # below[j][u]: completions once the j-th up step sits at position u
        # (j = 0, u = 0 is the empty prefix).
        below = [[0] * (bounds[an] + 1) for _ in range(an + 1)]
        for u in range(bounds[an] + 1):
            below[an][u] = 1
        for j in range(an - 1, -1, -1):
            acc = 0
            for u in range(bounds[an], -1, -1):
                if u + 1 <= bounds[j + 1]:
                    acc += below[j + 1][u + 1]
                below[j][u] = acc
        self._below = below
        self.count = below[0][0]

    def unrank(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.count:
            raise ValueError(f"rank {rank} outside [0,{self.count})")
        steps = []
        prev = 0
        for j in range(1, len(self._bounds)):
            for u in range(prev + 1, self._bounds[j] + 1):
                c = self._below[j][u]
                if rank < c:
                    break
                rank -= c
            steps.append(u)
            prev = u
        return tuple(steps)

    def sample(self, rng: random.Random) -> tuple[int, ...]:
        return self.unrank(rng.randrange(self.count))
