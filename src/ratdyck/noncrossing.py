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

A partition, perfect matchings included (``matchings.PerfectMatching`` is
a subclass), built by the constructor, ``canonical``, parsing or unpickling
is validated in full, by one linear pass (``broken_block_rule``): it checks
that the blocks partition [1, n], are sorted and ordered by minimum, and do
not cross, and reports the first rule broken.  So are the images of the
permutation products (``_partition``).  A chain built by its constructor,
parsing or unpickling, or by a chain map, is checked for its layer count,
one ground set and refinement.  Only the builders valid by a lemma in
their docstring skip these checks, through ``_caller_checked``:

- the rotation ``_rotated`` and the reflection ``_reflected``: a rotation
  or reflection of the n-gon keeps every block sorted once it is renamed
  (the reflection reading it backwards, the rotation except in the one
  block that wraps), keeps the chords non-crossing, and puts the blocks in
  order by minimum after one insertion (rotation) or one sort
  (reflection);
- the matching scans ``matchings.pm`` and ``matchings.dpm``;
- ``enumerate_ncps``: its walk places 1..n once each, in increasing
  order, opens blocks in order of their minima, and lets x join only the
  blocks on its stack of open blocks, exactly those that no other block
  encloses, so every partition is non-crossing and canonical;
- ``enumerate_chains`` (``NonCrossingChain._caller_checked``): each
  refinement splits every block of the coarser layer by a relabelled
  non-crossing partition found in the enumeration, so a chain has k layers
  on [1, n], each refining the one before it;
- ``ncp_to_dyck``: the word starts as (U R^k)^n, with each up step at its
  bound, and a pass moves no up step later, so every up step stays within
  its bound.

Partitions and chains cache their hash, as paths do.  The chain maps act
layer by layer and share images inside an image scope; ``kre_inverse`` is
``kre`` after ``rot_inverse``, since kre² = rot.

The other maps are products of permutations.  A partition x is the
permutation sigma_x whose cycles are its blocks, each read in increasing
order; c = (1 2 ... n) is the permutation of the one-block partition.
Products compose right to left: in sigma_x^-1 c, c is applied first.  The
Kreweras complement is the partition of sigma_x^-1 c, the boundary
involution ``su`` is reflection after it, and the grid involution ``lk`` is
rotation after ``su``.  ``lift`` is Armstrong's backward shift of delta
sequences (Armstrong, *Generalized noncrossing partitions and combinatorics
of Coxeter groups*, Mem. AMS 2009): with the layers finest first and c on
top, layer i of the image is the partition of sigma_{pi_1}^-1
sigma_{pi_{i+1}}; carried to paths through the chain bijection it is
promotion.
"""

from __future__ import annotations

import bisect
import re
from functools import lru_cache
from itertools import product

from .paths import InvariantError, RationalDyckPath, Slope, Value, memo_image


class NonCrossingPartition(Value):
    __slots__ = ("n", "blocks", "_hash")  # _hash as on paths.Slope
    n: int
    blocks: tuple[tuple[int, ...], ...]

    # the message for each rule of ``broken_block_rule``, in its order
    _rule_messages = (
        "blocks must partition [1,{n}]",
        "block elements must be sorted",
        "blocks must be ordered by minimum",
        "partition crosses: {blocks}",
    )

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        _set_n(self, n)
        _set_blocks(self, blocks)
        _set_hash(self, None)
        rule = broken_block_rule(blocks, n)
        if rule:
            raise ValueError(self._rule_messages[rule - 1].format(n=n, blocks=blocks))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.blocks) == (other.n, other.blocks)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self.blocks))
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def _caller_checked(cls, n: int, blocks: tuple[tuple[int, ...], ...]):
        """The partition with these blocks, which the caller has proven valid:
        they partition [1, n], each sorted ascending, ordered by minimum and
        not crossing."""
        x = object.__new__(cls)
        _set_n(x, n)
        _set_blocks(x, blocks)
        _set_hash(x, None)
        return x

    @classmethod
    def canonical(cls, n: int, blocks):
        """The partition of ``blocks`` given in any order, each in any order.
        An empty block sorts first and breaks the ordering rule."""
        return cls(n, _sorted_blocks(blocks))

    def _rotated(self, step: int):
        """The partition of the same kind with each element x renamed x + step
        cyclically, for step -1 (1 -> n) or +1 (n -> 1), built unchecked.

        Lemma: a rotation of the n-gon permutes [1, n] and keeps chords
        non-crossing (Kreweras 1972), so the renamed blocks partition [1, n]
        and do not cross.  Every block but the one holding the wrap point
        (for -1 the first, which holds 1; for +1 the one ending in n) is
        shifted whole, so it stays sorted and the shifted blocks keep their
        order by minimum.  The wrapped block, rebuilt sorted, goes where its
        minimum puts it: for +1 first, since it now holds 1; for -1 by
        bisection, since distinct minima order the tuples."""
        n, blocks = self.n, self.blocks
        if not blocks:
            return self
        shift = step.__add__
        if step < 0:
            out = [tuple(map(shift, b)) for b in blocks[1:]]
            bisect.insort(out, tuple(map(shift, blocks[0][1:])) + (n,))
        else:
            i = [b[-1] for b in blocks].index(n)
            out = [(1,) + tuple(map(shift, blocks[i][:-1]))]
            out += [tuple(map(shift, b)) for b in blocks[:i] + blocks[i + 1:]]
        return self._caller_checked(n, tuple(out))

    def _reflected(self):
        """The partition of the same kind with each element x renamed
        n + 1 - x, built unchecked.

        Lemma: the reflection of the n-gon permutes [1, n] and keeps chords
        non-crossing (Kreweras 1972), so the renamed blocks partition [1, n]
        and do not cross.  Each block, renamed in reverse, comes out sorted,
        and one sort of the blocks, whose minima are distinct, orders them by
        minimum."""
        flip = (self.n + 1).__sub__
        return self._caller_checked(
            self.n, tuple(sorted([tuple(map(flip, reversed(b))) for b in self.blocks])))

    def block_index(self) -> dict[int, int]:
        return {x: i for i, b in enumerate(self.blocks) for x in b}

    def refines(self, other: "NonCrossingPartition") -> bool:
        coarse = other.block_index()
        return all(len({coarse[x] for x in b}) == 1 for b in self.blocks)

    def __str__(self) -> str:
        return "/".join(".".join(str(x) for x in b) for b in self.blocks)


# The slot setters of the two builders above, as for paths: for matchings
# too, which inherit the slots.  Nothing else may call them.
_set_n = NonCrossingPartition.n.__set__
_set_blocks = NonCrossingPartition.blocks.__set__
_set_hash = NonCrossingPartition._hash.__set__


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


def _sorted_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    """Each block sorted, and the blocks ordered by minimum.  An empty block
    sorts first; blocks that share a minimum break rule 1 of
    ``broken_block_rule`` in any order."""
    return tuple(sorted([tuple(sorted(b)) for b in blocks]))


ncp = NonCrossingPartition.canonical


def parse_ncp(text: str, n: int | None = None) -> NonCrossingPartition:
    if not re.fullmatch(r"\d+(\.\d+)*(/\d+(\.\d+)*)*", text.strip()):
        raise ValueError(f"bad partition literal: {text!r}")
    blocks = [tuple(int(x) for x in part.split(".")) for part in text.strip().split("/")]
    size = n if n is not None else max(x for b in blocks for x in b)
    return ncp(size, blocks)


class NonCrossingChain(Value):
    __slots__ = ("k", "layers", "_hash")  # _hash as on paths.Slope
    k: int
    layers: tuple[NonCrossingPartition, ...]

    def __init__(self, k: int, layers: tuple[NonCrossingPartition, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_hash", None)
        if len(layers) != k:
            raise ValueError(f"expected {k} layers")
        if len({layer.n for layer in layers}) != 1:
            raise ValueError("layers must share the ground set")
        for finer, coarser in zip(layers[1:], layers):
            if not finer.refines(coarser):
                raise ValueError(f"layer {finer} does not refine {coarser}")

    @classmethod
    def _caller_checked(cls, k: int, layers: tuple[NonCrossingPartition, ...]):
        """The chain with these layers, which the caller has proven valid:
        k of them, all on one ground set [1, n], each refining the one
        before it."""
        x = object.__new__(cls)
        object.__setattr__(x, "k", k)
        object.__setattr__(x, "layers", layers)
        object.__setattr__(x, "_hash", None)
        return x

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.layers) == (other.k, other.layers)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.k, self.layers))
            object.__setattr__(self, "_hash", h)
        return h

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
    partition walk that puts x into each open block, in order of minima,
    then into a new one; built unchecked.

    The walk keeps a stack of the open blocks: those that no later chord
    encloses.  When x joins the block at stack position i, the blocks above
    it leave the stack, since the chord from that block's last element to x
    encloses them; a new block {x} is pushed.

    Lemma: x joins a block b without a crossing iff no other block c has
    c[0] < b[-1] < c[-1], that is iff b is on the stack: a block leaves it
    exactly when a block opened before it (below it) receives an element
    past its last one, and in a non-crossing partial no block opened after
    b can enclose b's last element.  So every leaf is non-crossing, and the
    stack, a subsequence of the blocks in order of minima, visits them in
    the walk's order.  Each x from 1 to n is placed once, so the blocks
    partition [1, n]; elements are appended in increasing x, so each block
    is sorted; and blocks open in order of their minima, so they are
    ordered by minimum."""
    out: list[NonCrossingPartition] = []
    build = NonCrossingPartition._caller_checked
    blocks: list[list[int]] = []
    stack: list[list[int]] = []

    def rec(x: int) -> None:
        if x > n:
            out.append(build(n, tuple(map(tuple, blocks))))
            return
        for i in range(len(stack)):
            b = stack[i]
            closed = stack[i + 1:]
            del stack[i + 1:]
            b.append(x)
            rec(x + 1)
            b.pop()
            stack.extend(closed)
        b = [x]
        blocks.append(b)
        stack.append(b)
        rec(x + 1)
        stack.pop()
        blocks.pop()

    rec(1)
    return tuple(out)


@lru_cache(maxsize=128)
def enumerate_chains(n: int, k: int) -> tuple[NonCrossingChain, ...]:
    """The k-chains of [1, n], each layer's refinements in ``enumerate_ncps``
    order, built unchecked.  A refinement splits every block by a
    relabelled non-crossing partition of its size.

    Lemma: every layer is a partition of ``enumerate_ncps(n)``, found in
    ``index``, so all k layers lie on [1, n]; each refinement's blocks are
    the parts of the coarser layer's blocks, so it refines that layer."""
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
    build = NonCrossingChain._caller_checked
    return tuple(build(k, c) for c in chains)


# ---------------------------------------------------------------------------
# Chain <-> path bijection


@memo_image
def ncp_to_dyck(chain: NonCrossingChain) -> RationalDyckPath:
    """The (1,k) path of a k-chain: one chunk pass per layer, finest first,
    as the module docstring describes; the path reads the chunks of 1..n.
    Built unchecked.

    Lemma: the word starts as (U R^k)^n, whose j-th up step sits at
    (j-1)(k+1) + 1, which is ``step_bound(j)``.  A pass rewrites the chunks
    of a block's members, which lie in increasing order in the word, so a
    letter moved earlier in the block's word moves earlier in the whole
    word: every up step but the first moves one place earlier, and the one
    letter moved later is the R that the ``UR`` check found second.  So the
    word keeps its n up steps among (k+1)n letters, each one at or before
    where it started, and the j-th up step stays at or before the j-th
    starting place, within its bound."""
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
                i = 0
                for x in b:
                    chunks[x] = word[i:i + width]
                    i += width
    word = "".join(chunks[1:])
    steps = []
    i = word.find("U")
    while i >= 0:
        steps.append(i + 1)
        i = word.find("U", i + 1)
    return RationalDyckPath._caller_checked(_chain_slope(k, n), tuple(steps))


@lru_cache(maxsize=128)
def _chain_slope(k: int, n: int) -> Slope:
    """The slope (1, k) at size n, one per size, so that the paths of a chain
    table share it and its cached hash."""
    return Slope(1, k, n)


@lru_cache(maxsize=128)
def _chain_table(n: int, k: int) -> dict[RationalDyckPath, NonCrossingChain]:
    table: dict[RationalDyckPath, NonCrossingChain] = {}
    for chain in enumerate_chains(n, k):
        path = ncp_to_dyck(chain)
        if table.setdefault(path, chain) is not chain:
            raise InvariantError(f"chain map is not injective at {path}")
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
    return p._rotated(-1)


@memo_image
def ref_partition(p: NonCrossingPartition) -> NonCrossingPartition:
    return p._reflected()


def _perm(x: NonCrossingPartition) -> list[int]:
    """sigma_x as a list s, s[y] the image of y and s[0] = 0: each block of
    ``x`` is one cycle, read in increasing order."""
    s = list(range(x.n + 1))
    for b in x.blocks:
        for y, z in zip(b, b[1:] + b[:1]):
            s[y] = z
    return s


def _partition(s: list[int]) -> NonCrossingPartition:
    """The partition whose blocks are the cycles of the permutation ``s``,
    given as ``_perm`` gives it."""
    seen = [False] * len(s)
    blocks = []
    for start in range(1, len(s)):
        if not seen[start]:
            blocks.append([])
            y = start
            while not seen[y]:
                seen[y] = True
                blocks[-1].append(y)
                y = s[y]
    return ncp(len(s) - 1, blocks)


def _delta(x: NonCrossingPartition, y: NonCrossingPartition) -> NonCrossingPartition:
    """The partition of sigma_x^-1 sigma_y, sigma_y applied first."""
    back = [0] * (x.n + 1)
    for u, v in enumerate(_perm(x)):
        back[v] = u
    return _partition([back[v] for v in _perm(y)])


def _top(n: int) -> NonCrossingPartition:
    """The one-block partition of [1, n]; its permutation is c = (1 2 ... n)."""
    return NonCrossingPartition(n, (tuple(range(1, n + 1)),))


@memo_image
def kre_partition(p: NonCrossingPartition) -> NonCrossingPartition:
    """The Kreweras complement, the partition of sigma_p^-1 c."""
    return _delta(p, _top(p.n))


@memo_image
def su_partition(p: NonCrossingPartition) -> NonCrossingPartition:
    return ref_partition(kre_partition(p))


@memo_image
def lk_partition(p: NonCrossingPartition) -> NonCrossingPartition:
    """The grid involution: rotation after the boundary involution."""
    return rot_partition(su_partition(p))


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
    return _layerwise(chain, lambda p: p._rotated(1), reverse=False)


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


def lift(chain: NonCrossingChain) -> NonCrossingChain:
    """The backward delta shift: with the layers finest first, pi_1 <= ...
    <= pi_k, and pi_{k+1} the one-block partition, layer i of the image,
    finest first, is the partition of sigma_{pi_1}^-1 sigma_{pi_{i+1}}.
    lift^(k+1) = ``rot``."""
    finest = chain.layers[-1]
    above = (_top(chain.n),) + chain.layers[:-1]
    return NonCrossingChain(chain.k, tuple(_delta(finest, y) for y in above))
