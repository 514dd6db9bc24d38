"""Non-crossing partitions, refinement chains, and their bijections.

A chain stores its layers coarsest first; the weight of a pair is the
number of layers whose partition joins it.  The path of a chain is a word
of n chunks of k+1 letters, one per element, each starting as ``U R^k``.
From the finest layer to the coarsest, every block of two or more elements
joins its members' chunks in increasing order, turns the word ``U R w``
into ``U w R`` (every up step after the first moves one position earlier,
which raises all the block's weights by one) and cuts it back into one
chunk per member.  This is the recursive construction that splices the
paths of a block's next-layer sub-blocks, in order of minima, at the slot
of each one's rank among the elements already placed: no earlier sub-block
has an element between a later one's minimum and maximum, or the two would
cross, so each sub-block is contiguous among the elements placed so far,
its splice lands where its chunks already are, and every chunk stays with
its element.  One pass per layer costs O(kn) letters.

Every partition, perfect matchings included (``matchings.PerfectMatching``
is a subclass), is validated in full when built, by one linear pass
(``broken_block_rule``): it checks that the blocks partition [1, n], are
sorted and ordered by minimum, and do not cross, and reports the first rule
broken.  The chain maps act layer by layer and share images inside an image
scope; ``kre_inverse`` is ``kre`` after ``rot_inverse``, since kre² = rot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .paths import InvariantError, RationalDyckPath, Slope, memo_image


@dataclass(frozen=True)
class NonCrossingPartition:
    n: int
    blocks: tuple[tuple[int, ...], ...]

    # the message for each rule of ``broken_block_rule``, in its order
    _rule_messages = (
        "blocks must partition [1,{n}]",
        "block elements must be sorted",
        "blocks must be ordered by minimum",
        "partition crosses: {blocks}",
    )

    def __post_init__(self) -> None:
        rule = broken_block_rule(self.blocks, self.n)
        if rule:
            raise ValueError(self._rule_messages[rule - 1].format(n=self.n, blocks=self.blocks))

    @classmethod
    def canonical(cls, n: int, blocks):
        """The partition of ``blocks`` given in any order, each in any order.
        An empty block sorts first and breaks the ordering rule."""
        return cls(n, tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[:1])))

    def relabel(self, f):
        """The partition of the same kind with each element x renamed f(x);
        ``f`` must permute [1, n]."""
        return self.canonical(self.n, [[f(x) for x in b] for b in self.blocks])

    def block_index(self) -> dict[int, int]:
        return {x: i for i, b in enumerate(self.blocks) for x in b}

    def refines(self, other: "NonCrossingPartition") -> bool:
        coarse = other.block_index()
        return all(len({coarse[x] for x in b}) == 1 for b in self.blocks)

    def __str__(self) -> str:
        return "/".join(".".join(str(x) for x in b) for b in self.blocks)


def broken_block_rule(blocks: tuple[tuple[int, ...], ...], n: int) -> int:
    """The first rule that ``blocks`` breaks, numbered in the order checked;
    0 if it breaks none.

    1. The blocks partition [1, n]: every element of [1, n] lies in exactly
       one block, and no other element in any.
    2. Each block is a tuple sorted ascending.
    3. Each block has a minimum (is not empty), and the blocks are ordered
       by it.
    4. No two blocks cross.

    One pass over the blocks links each element to the one before it in its
    block, which settles rules 1 to 3; a stack scan of [1, n] over those
    links then settles rule 4: an element continuing a block must continue
    the block opened or continued most recently and not yet closed."""
    link = [-1] * (n + 1)  # the element before x in its block, 0 for its minimum
    last = [False] * (n + 1)
    placed = 0
    unsorted = misordered = False
    head = 0
    for b in blocks:
        prev = 0
        for x in b:
            if not 0 < x <= n or link[x] >= 0:
                return 1
            link[x] = prev
            if x < prev:
                unsorted = True
            prev = x
        last[prev] = True
        placed += len(b)
        if not isinstance(b, tuple):
            unsorted = True
        elif not b or b[0] <= head:
            misordered = True
        else:
            head = b[0]
    if placed < n:
        return 1
    if unsorted:
        return 2
    if misordered:
        return 3
    stack = [0]
    for x in range(1, n + 1):
        p = link[x]
        if p and stack.pop() != p:
            return 4
        if not last[x]:
            stack.append(x)
    return 0


ncp = NonCrossingPartition.canonical


def parse_ncp(text: str, n: int | None = None) -> NonCrossingPartition:
    blocks = [tuple(int(x) for x in part.split(".")) for part in text.strip().split("/")]
    size = n if n is not None else max(x for b in blocks for x in b)
    return ncp(size, blocks)


@dataclass(frozen=True)
class NonCrossingChain:
    k: int
    layers: tuple[NonCrossingPartition, ...]

    def __post_init__(self) -> None:
        if len(self.layers) != self.k:
            raise ValueError(f"expected {self.k} layers")
        if len({layer.n for layer in self.layers}) != 1:
            raise ValueError("layers must share the ground set")
        for finer, coarser in zip(self.layers[1:], self.layers):
            if not finer.refines(coarser):
                raise ValueError(f"layer {finer} does not refine {coarser}")

    @property
    def n(self) -> int:
        return self.layers[0].n

    def weight(self, i: int, j: int) -> int:
        return sum(
            1 for layer in self.layers if layer.block_index()[i] == layer.block_index()[j]
        )

    def __str__(self) -> str:
        return ";".join(str(layer) for layer in self.layers)


def parse_chain(text: str, n: int | None = None) -> NonCrossingChain:
    layers = tuple(parse_ncp(part, n) for part in text.strip().split(";"))
    size = max(layer.n for layer in layers)
    layers = tuple(parse_ncp(str(layer), size) for layer in layers)
    return NonCrossingChain(len(layers), layers)


@lru_cache(maxsize=128)
def enumerate_ncps(n: int) -> tuple[NonCrossingPartition, ...]:
    """The non-crossing partitions of [1, n], in the order of the set
    partition walk that puts x into each open block, then into a new one."""
    out: list[NonCrossingPartition] = []

    def rec(partial: list[list[int]], x: int) -> None:
        if x > n:
            # the walk keeps each block sorted and the blocks ordered by
            # their minimum, so they are already in canonical form
            out.append(NonCrossingPartition(n, tuple(map(tuple, partial))))
            return
        for b in partial:
            # x joins b without a crossing iff no other block has elements
            # on both sides of b's last one; a crossing partial has only
            # crossing leaves, so pruning it here drops no output
            if any(c[0] < b[-1] < c[-1] for c in partial):
                continue
            b.append(x)
            rec(partial, x + 1)
            b.pop()
        partial.append([x])
        rec(partial, x + 1)
        partial.pop()

    rec([], 1)
    return tuple(out)


@lru_cache(maxsize=128)
def enumerate_chains(n: int, k: int) -> tuple[NonCrossingChain, ...]:
    """The k-chains of [1, n], each layer's refinements in ``enumerate_ncps``
    order.  A refinement splits every block by a relabelled non-crossing
    partition of its size."""
    parts = enumerate_ncps(n)
    index = {p.blocks: (i, p) for i, p in enumerate(parts)}
    finer: dict[NonCrossingPartition, list[NonCrossingPartition]] = {}

    def refinements(p: NonCrossingPartition) -> list[NonCrossingPartition]:
        if p not in finer:
            splits = [
                [[tuple(b[x - 1] for x in c) for c in q.blocks] for q in enumerate_ncps(len(b))]
                for b in p.blocks
            ]
            found = [index[tuple(sorted(c for split in combo for c in split))]
                     for combo in product(*splits)]
            finer[p] = [q for _, q in sorted(found)]
        return finer[p]

    chains = [(p,) for p in parts]
    for _ in range(k - 1):
        chains = [c + (q,) for c in chains for q in refinements(c[-1])]
    return tuple(NonCrossingChain(k, c) for c in chains)


# ---------------------------------------------------------------------------
# Chain <-> path bijection


@memo_image
def ncp_to_dyck(chain: NonCrossingChain) -> RationalDyckPath:
    """The (1,k) path of a k-chain: one chunk pass per layer, finest first,
    as the module docstring describes; the path reads the chunks of 1..n."""
    k, n = chain.k, chain.n
    width = k + 1
    chunks = ["U" + "R" * k] * (n + 1)  # chunks[x] is element x's; 0 unused
    for layer in reversed(chain.layers):
        for b in layer.blocks:
            if len(b) > 1:
                word = "".join([chunks[x] for x in b])
                if word[:2] != "UR":
                    raise InvariantError(f"cannot shift up steps of {word}")
                word = "U" + word[2:] + "R"
                for i, x in enumerate(b):
                    chunks[x] = word[i * width:(i + 1) * width]
    word = "".join(chunks[1:])
    steps = tuple(i for i, c in enumerate(word, 1) if c == "U")
    return RationalDyckPath(Slope(1, k, n), steps)


@lru_cache(maxsize=128)
def _chain_table(n: int, k: int) -> dict[RationalDyckPath, NonCrossingChain]:
    table: dict[RationalDyckPath, NonCrossingChain] = {}
    for chain in enumerate_chains(n, k):
        path = ncp_to_dyck(chain)
        if path in table:
            raise InvariantError(f"chain map is not injective at {path}")
        table[path] = chain
    return table


@memo_image
def dyck_to_ncp(p: RationalDyckPath) -> NonCrossingChain:
    if p.slope.a != 1:
        raise ValueError(f"chains correspond to (1,k) paths, got {p.slope}")
    table = _chain_table(p.slope.n, p.slope.b)
    try:
        return table[p]
    except KeyError:
        raise InvariantError(f"chain map is not surjective at {p}") from None


def transport(f, p: RationalDyckPath) -> RationalDyckPath:
    """The chain map ``f`` carried to paths through the chain bijection:
    ``ncp_to_dyck(f(dyck_to_ncp(p)))``."""
    return ncp_to_dyck(f(dyck_to_ncp(p)))


# ---------------------------------------------------------------------------
# The chain maps


@memo_image
def rot_partition(p: NonCrossingPartition) -> NonCrossingPartition:
    return p.relabel(lambda x: (x - 2) % p.n + 1)


@memo_image
def ref_partition(p: NonCrossingPartition) -> NonCrossingPartition:
    return p.relabel(lambda x: p.n + 1 - x)


@memo_image
def kre_partition(p: NonCrossingPartition) -> NonCrossingPartition:
    """Complement by cycle composition: blocks of sigma^-1 followed by the
    long cycle, each block read as an increasing cycle."""
    n = p.n
    nxt = {}
    for b in p.blocks:
        for i, x in enumerate(b):
            nxt[x] = b[(i + 1) % len(b)]
    prev = {v: u for u, v in nxt.items()}
    tau = {i: prev[i % n + 1] for i in range(1, n + 1)}
    blocks = []
    seen: set[int] = set()
    for start in range(1, n + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = tau[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = tau[x]
        blocks.append(cyc)
    return ncp(n, blocks)


@memo_image
def su_partition(p: NonCrossingPartition) -> NonCrossingPartition:
    return ref_partition(kre_partition(p))


@memo_image
def lk_partition(p: NonCrossingPartition) -> NonCrossingPartition:
    """Conjugate of the two-row involution through the chain and RSK maps."""
    from .perms import dyck2, e_p, e_p_inverse, rsk_hat
    from .tilings import dt_map

    chain = NonCrossingChain(1, (p,))
    path = ncp_to_dyck(chain)
    path = e_p(dt_map(path))
    path = dyck2(path)
    path = rsk_hat(e_p_inverse(path))
    return dyck_to_ncp(path).layers[0]


def rank(p: NonCrossingPartition) -> int:
    return p.n - len(p.blocks)


def _layerwise(chain: NonCrossingChain, f, reverse: bool) -> NonCrossingChain:
    layers = tuple(f(layer) for layer in chain.layers)
    if reverse:
        layers = layers[::-1]
    return NonCrossingChain(chain.k, layers)


@memo_image
def rot(chain: NonCrossingChain) -> NonCrossingChain:
    return _layerwise(chain, rot_partition, reverse=False)


@memo_image
def rot_inverse(chain: NonCrossingChain) -> NonCrossingChain:
    n = chain.n
    return _layerwise(chain, lambda p: p.relabel(lambda x: x % n + 1), reverse=False)


@memo_image
def ref(chain: NonCrossingChain) -> NonCrossingChain:
    return _layerwise(chain, ref_partition, reverse=False)


@memo_image
def kre(chain: NonCrossingChain) -> NonCrossingChain:
    return _layerwise(chain, kre_partition, reverse=True)


@memo_image
def kre_inverse(chain: NonCrossingChain) -> NonCrossingChain:
    """kre∘rot⁻¹, since kre² = rot."""
    return kre(rot_inverse(chain))


@memo_image
def su(chain: NonCrossingChain) -> NonCrossingChain:
    return _layerwise(chain, su_partition, reverse=True)


@memo_image
def lk(chain: NonCrossingChain) -> NonCrossingChain:
    return _layerwise(chain, lk_partition, reverse=True)


# ---------------------------------------------------------------------------
# Lift


def _pair_weights(chain: NonCrossingChain) -> dict[tuple[int, int], int]:
    n = chain.n
    weights: dict[tuple[int, int], int] = {}
    for layer in chain.layers:
        for b in layer.blocks:
            for pair in combinations(b, 2):
                weights[pair] = weights.get(pair, 0) + 1
    return weights


def _chain_from_weights(n: int, k: int, weights: dict[tuple[int, int], int]) -> NonCrossingChain:
    layers = []
    for t in range(1, k + 1):
        parent = list(range(n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (i, j), w in weights.items():
            if w >= t:
                parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for x in range(1, n + 1):
            groups.setdefault(find(x), []).append(x)
        layers.append(ncp(n, list(groups.values())))
    chain = NonCrossingChain(k, tuple(layers))
    if _pair_weights(chain) != {p: w for p, w in weights.items() if w > 0}:
        raise ValueError("weights are not closure-consistent")
    return chain


def lift(chain: NonCrossingChain) -> NonCrossingChain:
    """Raise every pair weight by one (absent chords enter at weight one)
    and resolve the overweight edges by the local triangle rules, then drop
    edges incompatible with the rest."""
    k = chain.k
    n = chain.n
    old = _pair_weights(chain)
    weights = {
        pair: old.get(pair, 0) + 1 for pair in combinations(range(1, n + 1), 2)
    }
    overweight = {pair for pair, w in weights.items() if w == k + 1}

    # triangle rules: around each overweight edge, every third point with two
    # ordinary edges forces one side deletion, by the relative position
    deletions: set[tuple[int, int]] = set()
    for (x, y) in overweight:
        for z in range(1, n + 1):
            if z in (x, y):
                continue
            e1 = (min(x, z), max(x, z))
            e2 = (min(y, z), max(y, z))
            if e1 in overweight or e2 in overweight:
                continue
            a, b, c = sorted((x, y, z))
            if (x, y) == (a, b):
                deletions.add((a, c))
            elif {x, y} == {b, c}:
                deletions.add((a, b))
            else:
                deletions.add((b, c))

    def crosses(e1, e2) -> bool:
        i, k1 = e1
        j, l = e2
        return i < j < k1 < l or j < i < l < k1

    for pair in list(weights):
        if pair in deletions or pair in overweight:
            weights.pop(pair)
        elif any(crosses(pair, e) for e in overweight):
            weights.pop(pair)

    # The remaining edges must be closure-consistent; a failure here is a
    # finding about the resolution rules, not something to patch silently.
    try:
        return _chain_from_weights(n, k, weights)
    except ValueError as exc:
        raise InvariantError(f"lift cleanup failed for {chain}: {exc}") from exc
