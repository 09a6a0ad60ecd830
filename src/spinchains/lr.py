"""Littlewood-Richardson coefficients by direct skew-tableau enumeration.

A coefficient c(outer; inner, weight) is the number of semistandard skew
tableaux of shape outer/inner and content weight whose reverse reading
word (rows right to left, top to bottom) is a lattice word.  The counter
fills cells in exactly that reading order, so semistandardness, content
and the lattice-prefix condition all prune the search as it goes.

The coefficient is symmetric, c(outer; inner, weight) = c(outer; weight,
inner), and it is 0 unless weight fits inside outer (Fulton, *Young
Tableaux*, section 5).  `lr_coefficient` therefore returns 0 at once when
weight does not fit, and otherwise fills whichever of outer/inner and
outer/weight has fewer cells; the search depth is min(|inner|, |weight|)
instead of |weight|.

The counter memoises the ways to finish at the first cell of each row,
keyed by the letter counts so far and the values in the row just above: no
other filled cell constrains a later one, so the memo changes no count.

On top of the counter sits the multiplicity of a dominant weight in a
module induced from unitary characters of a product of GL factors: an
iterated LR product of rectangles k_i^(d_i), one per chain.  Its shapes are
its own, built valid by `_grow_candidates`, so it skips `lr_coefficient`'s
checks.  Neither end of the product searches: the first rectangle's only
candidate is the rectangle itself, and the last one's is the target, which
`_is_candidate` tests against each state by the search's own bounds.  A
one-row or one-column rectangle needs no count at all: every candidate is a
horizontal or vertical strip, with coefficient 1 by the Pieri rule.  Any
other rectangle goes to `_coefficient`, which first strips full first
columns (len(nu) = len(mu) + d) off the triple.  A rectangle on a
rectangle state a^b, as every state of the second factor is, needs no
count: a product of two rectangles is multiplicity-free, and
`_two_rectangles` reads its 0 or 1 from a closed rule (Okada, J. Algebra
205 (1998); Stembridge, Ann. Comb. 5 (2001)), checked against the raw
counter on every triple with a, b, k, d <= 5.  The rest goes to the raw
counter through `_rectangle_coefficient`, a memo that outlives the call:
keyed by the stripped (nu, mu, k, d), it lets the parameters of one rank
share their counts.  Only `multiplicity_in_induced` calls it; `lr_coefficient`
and verify's LR line call the raw counter and keep no count between calls.

Like `lr_coefficient`, the multiplicity counts whichever of two equal
problems is smaller.  A query with factors det^(k_i) on GL(d_i) and target
delta, in standard scale, has the multiplicity of its dual twist: factors
C - k_i and target (C - delta[n-1], ..., C - delta[0]), for any integer
C.  Taking the contragredient negates every character and sends the
K-type delta to -w0.delta; twisting by det^C then adds C to every
coordinate.  On partitions this is the complement in a box, under which
an LR product of rectangles keeps its value (Fulton, *Young Tableaux*,
sections 5 and 9).  Both sides are shifted tight, so that the least
factor or the last target coordinate is 0; the engine counts the side
whose target has fewer cells, the smaller (target, factors) on a tie,
with the factors of k = 0 dropped and the rest by k decreasing, shorter
first on ties.  That problem alone fixes the answer, and `_product` keeps
it in a second memo across calls.  A scattered parameter and its entry
reflection are dual twists whose two sides swap exactly, so they pick
one problem, and a sweep over a rank computes one product per pair.
Both memos are bounded by `_MEMO_SIZE` entries, least recently used
first out.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .weights import Weight

Partition = tuple[int, ...]


def normalize_partition(parts) -> Partition:
    """Validate weak decrease and non-negativity; strip trailing zeros."""
    parts = tuple(parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def contains(outer: Partition, inner: Partition) -> bool:
    """Cellwise containment inner <= outer, ignoring trailing zeros."""
    outer = normalize_partition(outer)
    return _fits(outer, normalize_partition(inner))


def _fits(outer: Partition, inner: Partition) -> bool:
    """`contains` on partitions already normalized."""
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def partitions_up_to(size: int):
    """Every partition of every size 0..size, each once, the empty one first."""

    def rec(remaining, cap):
        yield ()
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(size, size)


def sub_partitions(outer: Partition):
    """Every partition contained in outer, the empty one included, each once."""

    def rec(i, prev):
        if i == len(outer):
            yield ()
            return
        for part in range(min(outer[i], prev), -1, -1):
            for rest in rec(i + 1, part):
                yield ((part,) + rest) if part else ()

    yield from rec(0, outer[0] if outer else 0)


def is_lattice_word(word) -> bool:
    """Every prefix holds at least as many i's as (i+1)'s, for every i."""
    counts: dict[int, int] = {}
    for x in word:
        if x < 1:
            return False
        if x > 1 and counts.get(x - 1, 0) <= counts.get(x, 0):
            return False
        counts[x] = counts.get(x, 0) + 1
    return True


def lr_coefficient(outer, inner, weight) -> int:
    """Number of LR skew tableaux of shape outer/inner and content weight.

    Raises ValueError when inner does not fit inside outer, or when the
    skew shape outer/inner and weight differ in size; both checks come
    before anything else, so a bad triple never returns 0.  A weight that
    does not fit inside outer gives 0.  By the symmetry c(outer; inner,
    weight) = c(outer; weight, inner) the count runs on outer/weight with
    content inner when |inner| < |outer| - |inner|, that is, when
    outer/weight has fewer cells; on a tie the given orientation is kept.
    """
    outer = normalize_partition(outer)
    inner = normalize_partition(inner)
    weight = normalize_partition(weight)
    if not _fits(outer, inner):
        raise ValueError(f"inner {inner} not contained in outer {outer}")
    ncells = sum(outer) - sum(inner)
    if ncells != sum(weight):
        raise ValueError(f"skew shape has {ncells} cells but content has size {sum(weight)}")
    if not _fits(outer, weight):
        return 0
    if sum(inner) < ncells:
        inner, weight = weight, inner
    return _count_tableaux(outer, inner, weight)


def _count_tableaux(outer: Partition, inner: Partition, weight: Partition) -> int:
    """LR tableaux of shape outer/inner and content weight, in that orientation.

    The raw counter behind `lr_coefficient`: it takes normalized partitions
    with inner inside outer and |outer| - |inner| = |weight|, checks none
    of this, and never swaps inner and weight.

    The count is memoised at the first cell of each row.  When row r
    begins, the ways to finish depend only on the letter counts placed so
    far, which fix the content left and the lattice condition, and on the
    values of row r-1 directly above row r's cells, which fix column
    strictness; no row above r-1 touches a later cell.  So the key (cell
    index, counts, those values) is exact, and flat: (k, *counts, *values).
    The first row with cells is not memoised, as its state occurs once, nor
    is a one-letter content, whose filling is forced.  This memo lives for
    one call.  Across calls only `multiplicity_in_induced` keeps counts, in
    `_rectangle_coefficient`'s memo keyed by (nu, mu, k, d); `lr_coefficient`
    and verify's LR line bypass it.
    """
    # Cells in reverse reading order: row by row, right to left.  For each
    # cell record the index of the cell directly above it and of its right
    # neighbour in the fill order (always the previous cell when in the same
    # row), or a sentinel slot when there is none: values[-2] holds the
    # largest letter, values[-1] holds 0.  A row starting at index start puts
    # its cell in column c at start + outer[r] - 1 - c.
    nletters = len(weight)
    ncells = sum(outer) - sum(inner)
    no_right, no_above = ncells, ncells + 1
    cells = []  # (above, right, key slice): the slice of values above a memoised row start, else None
    inner = inner + (0,) * (len(outer) - len(inner))
    start = base = 0  # base - c: the cell in column c of the row above
    prev_inner = outer[0] if outer else 0  # no cell lies above the first row
    for outer_len, inner_len in zip(outer, inner):
        key_slice = None
        if start and outer_len > inner_len and nletters > 1:
            key_slice = slice(base + 1 - outer_len, base + 1 - max(inner_len, prev_inner))
        for c in range(outer_len - 1, inner_len - 1, -1):
            above = base - c if c >= prev_inner else no_above
            right = len(cells) - 1 if c < outer_len - 1 else no_right
            cells.append((above, right, key_slice))
            key_slice = None
        base, prev_inner = start + outer_len - 1, inner_len
        start += outer_len - inner_len

    cap = (0, *weight)  # cap[v]: the v's the content holds
    # counts[v]: the v's placed so far; counts[0] exceeds every count, so
    # letter 1 always passes the lattice test
    counts = [ncells + 1] + [0] * nletters
    values = [0] * ncells + [nletters, 0]
    memo: dict[tuple, int] = {}

    def fill(k: int) -> int:
        if k == ncells:
            return 1
        above, right, key_slice = cells[k]
        if key_slice is not None:
            key = (k, *counts, *values[key_slice])
            total = memo.get(key)
            if total is not None:
                return total
        total = 0
        for v in range(values[above] + 1, values[right] + 1):
            # content left, and the lattice prefix: placing v keeps counts[v] <= counts[v-1]
            if counts[v] == cap[v] or counts[v - 1] <= counts[v]:
                continue
            values[k] = v
            counts[v] += 1
            total += fill(k + 1)
            counts[v] -= 1
        if key_slice is not None:
            memo[key] = total
        return total

    total = fill(0)
    memo.clear()  # fill refers to itself, so the cycle collector would free the memo only later
    return total


def _is_candidate(nu: Partition, mu: Partition, k: int, d: int) -> bool:
    """Whether `_grow_candidates(mu, k, d, nu)` yields nu, for a partition nu
    of |mu| + k*d cells with no zero part.

    Every candidate under the limit nu has |nu| cells and lies inside nu, so
    nu is the only one there can be, and the search yields it exactly when
    it covers mu, has at most len(mu) + d rows and keeps every row between
    the floor and the cap of `_grow_candidates` (the cap nu[i] holds anyway).
    The search's other bounds hold for any such nu: its rows decrease, each
    is at most the cells left, and room never asks of a row more than the
    rows below it leave over.  The test stops at the first row that fails.
    """
    nmu = len(mu)
    if not nmu <= len(nu) <= nmu + d:
        return False
    for i, x in enumerate(nu):
        row = mu[i] if i < nmu else 0
        if x < row or x > row + k or (x < k if i < d else x > mu[i - d]):
            return False
    return True


def _grow_candidates(mu: Partition, k: int, d: int, limit: Partition):
    """Partitions nu with mu <= nu <= limit reachable by adding a k^d rectangle.

    Each nu has |nu| = |mu| + k*d and comes once.  The search keeps only
    nu that pass these necessary conditions for c(nu; mu, k^d) != 0
    (Fulton, *Young Tableaux*, section 5):
    - Weyl, j = 1: nu[i] <= mu[i] + k, since nu[i+j-1] <= mu[i] + lambda[j]
      for lambda = k^d.
    - Weyl, j = d + 1: nu[i] <= mu[i-d], since lambda[d+1] = 0; no column
      of nu/mu holds more than d cells.
    - Rectangle floor: nu[i] >= k for i < d, since c(nu; mu, k^d) =
      c(nu; k^d, mu) is 0 unless k^d fits inside nu.
    - Room: row i takes at least the cells that rows i+1.. cannot hold,
      each row on its own caps above (limit and both Weyl cases).

    mu must be normalized, with no zero part, as every state of
    `multiplicity_in_induced` is: a candidate whose cells run out at row i
    then covers mu exactly when i >= len(mu).
    """
    nmu = len(mu)
    goal = sum(mu) + k * d
    caps, floors = [], []  # the bounds on row i that do not depend on the rows above
    for i in range(min(len(limit), nmu + d)):
        row = mu[i] if i < nmu else 0
        cap = row + k
        if limit[i] < cap:
            cap = limit[i]
        # i < len(mu) + d, so mu[i - d] is in range whenever i >= d
        if i >= d and mu[i - d] < cap:
            cap = mu[i - d]
        caps.append(cap)
        floor = k if i < d else 1
        floors.append(row if row > floor else floor)
    maxlen = len(caps)
    room = [0] * (maxlen + 1)  # room[i]: the most cells rows i.. can hold
    for i in range(maxlen - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    acc = [0] * maxlen  # acc[:i]: rows 0..i-1 of the candidate being built

    def rec(i: int, prev: int, remaining: int):
        if remaining == 0:
            if i >= nmu:  # every row of mu is covered
                yield tuple(acc[:i])
            return
        if i >= maxlen:
            return
        lo = remaining - room[i + 1]
        if lo < floors[i]:
            lo = floors[i]
        hi = caps[i]
        if prev < hi:
            hi = prev
        if remaining < hi:
            hi = remaining
        for part in range(hi, lo - 1, -1):
            acc[i] = part
            yield from rec(i + 1, part, remaining - part)

    yield from rec(0, goal, goal)


# The bound of both memos.  Tau's multiplicity over one rank, from empty
# memos, computes 136, 272, 528, 1,056, 2,080, 4,160 and 8,256 products at
# ranks 10 to 16 (one per pair {p, p*} and one per self-dual parameter, the
# other half read back), and 74, 194, 398, 951, 2,074, 4,640 and 10,914
# raw rectangle counts, each on a triple of its own, so no larger memo
# would save a count.  Only rank 16 overflows; its partners still find all
# 8,128 products.  Freed by cache_clear under tracemalloc (Python 3.11)
# after rank 16, a rectangle entry holds about 200 bytes and a product
# entry, whose key is the whole target and factor tuple, about 560: 1.6
# and 4.6 MB for the two full memos.
_MEMO_SIZE = 8192


def _two_rectangles(nu: Partition, mu: Partition, k: int, d: int) -> int:
    """c(nu; a^b, k^d) for the rectangle mu = a^b, by the rule, not by a count.

    A product of two rectangles is multiplicity-free (Okada, J. Algebra 205
    (1998); Stembridge, Ann. Comb. 5 (2001)).  With L = b + d and m =
    min(b, d), c = 1 exactly when len(nu) <= L, nu_m >= max(a, k), nu_i +
    nu_(L+1-i) = a + k for i <= m, and nu_i is the width of the taller
    rectangle for m < i <= L - m (rows counted from 1, nu padded with zeros
    to L rows); otherwise c = 0.  The rule matches `_count_tableaux` on
    every nu in the (b + d) x (a + k) box with |nu| = a*b + k*d, for every
    a, b, k, d <= 5: 99,180 triples; one row and one column beyond the box,
    where the peel of `_coefficient` can send nu, both give 0.
    """
    a, b = mu[0], len(mu)
    rows, m = b + d, min(b, d)
    if len(nu) > rows:
        return 0
    nu += (0,) * (rows - len(nu))
    wide = a if b > d else k
    return int(
        nu[m - 1] >= max(a, k)
        and all(nu[i] + nu[rows - 1 - i] == a + k for i in range(m))
        and all(x == wide for x in nu[m : rows - m])
    )


def _coefficient(nu: Partition, mu: Partition, k: int, d: int) -> int:
    """c(nu; mu, k^d) for mu and k^d inside nu, |nu| = |mu| + k*d, counting
    only where no rule answers.

    While len(nu) = len(mu) + d and k > 1, the first column comes off all
    three: every part drops by 1, zero parts go, and k^d becomes (k-1)^d.
    Proof: c^l_(m,r) = c^(l')_(m',r') for the conjugates, where the test
    reads l'_1 = m'_1 + r'_1.  Row 1 of an LR tableau holds only 1s, as its
    reading word starts there, and here row 1 of l'/m' has r'_1 cells, so
    it holds all r'_1 ones.  Deleting it and lowering every letter by one
    is a bijection onto the LR tableaux of l'/m' and content r', each with
    its first row gone: column strictness below row 1 and the lattice test
    of 2 against 1 hold on both sides (Fulton, *Young Tableaux*, section 5;
    King, Tollu and Toumazet, J. Combin. Theory Ser. A 116 (2009)).  Rows
    i < d of nu keep k^d inside it.  Then a column (k = 1) is a vertical
    strip, by the dual Pieri rule; an empty mu needs nu = k^d; a rectangle
    mu goes to `_two_rectangles`; and only the rest, keyed on the peeled
    triple, to `_rectangle_coefficient`.
    """
    while k > 1 and len(nu) == len(mu) + d:
        nu = tuple([x - 1 for x in nu if x > 1])
        mu = tuple([x - 1 for x in mu if x > 1])
        k -= 1
    if k == 1:
        return int(len(nu) <= len(mu) + d and all(x <= y + 1 for x, y in zip(nu, mu + (0,) * d)))
    if not mu:
        return int(nu == (k,) * d)
    if mu[0] == mu[-1]:
        return _two_rectangles(nu, mu, k, d)
    return _rectangle_coefficient(nu, mu, k, d)


@lru_cache(maxsize=_MEMO_SIZE)
def _rectangle_coefficient(nu: Partition, mu: Partition, k: int, d: int) -> int:
    """c(nu; mu, k^d) by the raw counter, on nu/mu or on nu/k^d, whichever
    has fewer cells, ties as given; memoised across calls, keyed by the
    triple as `_coefficient` left it."""
    rect = (k,) * d
    if sum(mu) < k * d:
        return _count_tableaux(nu, rect, mu)
    return _count_tableaux(nu, mu, rect)


def _canonical(factor: tuple[int, int]) -> tuple[int, int]:
    """The order of a side's factors (k, d): k decreasing, shorter first on ties."""
    return -factor[0], factor[1]


@lru_cache(maxsize=_MEMO_SIZE)
def _product(target: Partition, factors: tuple[tuple[int, int], ...]) -> int:
    """The multiplicity of s_target in the product of the rectangles
    k^(d) of factors, in that order, memoised across calls.

    The caller has checked that |target| is the factors' total area and
    that every rectangle fits inside target: both exits are cheap, so they
    stay out of the memo.  With no factor the module is the trivial one.
    The candidates and their coefficients are described in
    `multiplicity_in_induced`.
    """
    if not factors:  # the trivial module
        return int(not target)
    k, d = factors[0]
    states: dict[Partition, int] = {(k,) * d: 1}  # k^d, the first factor's one candidate
    for i, (k, d) in enumerate(factors[1:], 2):
        strip = k == 1 or d == 1
        new: dict[Partition, int] = {}
        for mu, coeff in states.items():
            if i < len(factors):
                candidates = _grow_candidates(mu, k, d, target)
            elif _is_candidate(target, mu, k, d):  # the last factor's one candidate
                candidates = (target,)
            else:
                continue
            for nu in candidates:
                c_lr = 1 if strip else _coefficient(nu, mu, k, d)
                if c_lr:
                    new[nu] = new.get(nu, 0) + coeff * c_lr
        states = new
        if not states:
            return 0
    return states.get(target, 0)


def multiplicity_in_induced(cs: Iterable[tuple[int, int]], delta: Weight) -> int:
    """Multiplicity of the K-type with doubled highest weight delta.

    The module is induced from the unitary characters det^(k_i) of GL(d_i)
    factors given by the chains: k_i = top - length + 1 is a chain's average
    and d_i its length.  In the standard scale delta_std = delta / 2 the
    answer is an iterated product of rectangles, counted on one of two
    sides with the same answer, each shifted tight, so that its smallest
    factor or its last target coordinate is 0:
    - given: with low = min(min k_i, delta_std[n-1]), the rectangles are
      (k_i - low)^(d_i) and the target is delta_std - low, of |delta_std| -
      n*low cells.  A uniform shift of every k_i and of delta_std leaves the
      answer alone (it twists by a power of det), and a negative low shifts
      up.
    - dual: with C = max(max k_i, delta_std[0]), the rectangles are
      (C - k_i)^(d_i) and the target is (C - delta_std[n-1], ..., C -
      delta_std[0]), of n*C - |delta_std| cells.  Restrict the K-type to the
      product of the U(d_i): dualising sends each det^(k_i) to det^(-k_i)
      and delta to -w0.delta, and the twist by det^C adds C to every
      coordinate, so the multiplicity is unchanged.
    The engine counts the side whose target has fewer cells; on a tie it
    counts the smaller (target, factors) tuple.  On each side the factors
    with k = 0 are dropped, since det^0 is the trivial character and leaves
    every state as it is, and the rest run with k decreasing, shorter first
    on ties: the order of the product changes no answer, but it does change
    the cost (the dual factors with k increasing made the tau sweep of rank
    12 over 100 times slower).  With no factor left the module is the
    trivial one, and the answer is 1 exactly when the target is empty.

    Two cheap exits answer 0 before any memo.  One is a target whose size
    is not the factors' total area.  The other is a rectangle that does not
    fit inside its target, on either side: every constituent nu of s_lambda
    s_mu contains lambda and mu (Fulton, *Young Tableaux*, section 5), so
    by induction every constituent of the product contains each of its
    rectangles.  On the given side (k_i - low)^(d_i) fits inside delta_std -
    low exactly when delta_std[d_i - 1] >= k_i, and on the dual side (C -
    k_i)^(d_i) fits inside C - reversed(delta_std) exactly when
    delta_std[n - d_i] <= k_i; a factor with k = 0 on its side meets its
    condition anyway.  Both sides have the same answer, so both conditions
    are necessary.

    The chosen problem (target, factors) determines the answer, so
    `_product` keeps it in a memo across calls, bounded by `_MEMO_SIZE`
    entries.  A query and its dual twist share one entry.  Let p* be the twist of p by
    the entry reflection e -> M + 1 - e, M the largest entry: its averages
    are M + 1 - k_i, and by the twist lemma above mult(p, delta) =
    mult(p*, delta*) with delta*_std = M + 1 - reversed(delta_std).  Then
    p*'s given side has low* = min(M + 1 - max k_i, M + 1 - delta_std[0]) =
    M + 1 - C, so its rectangles are (C - k_i)^(d_i) and its target C -
    reversed(delta_std): p's dual side, exactly.  Likewise p*'s dual side is
    p's given side.  The choice looks only at the pair of sides, so p and
    p* pick the same problem.  Every sweep over a rank's scattered
    parameters asks tau of both p and p*, and tau(p*) = tau(p)* (checked to
    rank 16), so the second member of each pair is a memo hit.  A shift
    that stopped at 0 on the given side, as a max(0, ...) would, leaves
    the two sides a uniform twist apart, and no key would match them.

    Every intermediate shape is confined below the target and grown by
    `_grow_candidates`.  Each candidate nu of a state mu is a partition with
    mu <= nu, no zero part, |nu| = |mu| + k*d and the caps and floors of
    `_grow_candidates`, so its coefficient c(nu; mu, k^d) needs none of
    `lr_coefficient`'s checks (Fulton, *Young Tableaux*, section 5).  Two
    kinds of factor need no search for their candidates:
    - The first, on the state mu = (): nu has at most len(mu) + d = d
      rows, each capped and floored at k, so nu = k^d and c = 1.  The
      product starts from the state k^d, which fits inside the target by
      the exit above.
    - The last, when there are two or more: every candidate has |mu| + k*d
      cells, which by the check of sizes is |target|, and lies inside the
      target, so the target is the only one.  `_is_candidate` tests it
      against each state with the bounds the search would apply.  With one
      factor, k^d fits inside a target of k*d cells, so it is the target
      and the answer is 1.
    The coefficient of each candidate:
    - d = 1: row i is capped at mu[i-1] and floored at mu[i], so nu/mu is
      a horizontal strip of k cells and c = 1 by the Pieri rule.
    - k = 1: row i is capped at mu[i] + 1, so nu/mu is a vertical strip of
      d cells and c = 1 by the dual Pieri rule.
    - Otherwise k^d fits inside nu, as the floors give nu[i] >= k for i <
      d, and `_coefficient` strips first columns off the triple, then
      reads a rule where one applies: a column, an empty mu, or a
      rectangle mu = a^b (as the state k_1^(d_1) of the second factor
      always is).  What is left goes to the raw `_count_tableaux` through
      `_rectangle_coefficient`, on the smaller of nu/mu and nu/k^d as
      `lr_coefficient` would, ties as given, and the count is kept for
      later calls.  Such a c can exceed 1: products with a rectangle are
      not multiplicity-free.
    An empty chain set raises ValueError before anything else.
    """
    factors = [(top - length + 1, length) for top, length in cs]
    if not factors:
        raise ValueError("chain set needs at least one chain")
    n = sum([d for _, d in factors])
    if len(delta) != n:
        raise ValueError(f"delta has {len(delta)} coordinates, parameter has {n}")
    if any([x % 2 for x in delta]):
        raise ValueError("delta must have even (doubled) coordinates")
    delta_std = [x // 2 for x in delta]
    if sorted(delta_std, reverse=True) != delta_std:
        raise ValueError("delta must be dominant")
    total = sum(delta_std)
    if total != sum([k * d for k, d in factors]):
        return 0
    low, high = delta_std[-1], delta_std[0]  # to become min(min k_i, low) and the docstring's C
    for k, d in factors:
        if delta_std[d - 1] < k or k < delta_std[n - d]:
            return 0  # a rectangle that does not fit inside its target, on one of the sides
        if k < low:
            low = k
        elif k > high:
            high = k
    given_cells, dual_cells = total - n * low, n * high - total
    # each side tight in one pass: delta_std is dominant and low <= its last
    # coordinate, so its zero parts are the trailing x == low (x == high on
    # the dual side); factors k decreasing, shorter first on ties
    sides = []
    if given_cells <= dual_cells:
        target = tuple([x - low for x in delta_std if x != low])
        sides.append((target, tuple(sorted([(k - low, d) for k, d in factors if k != low], key=_canonical))))
    if dual_cells <= given_cells:
        target = tuple([high - x for x in reversed(delta_std) if x != high])
        sides.append((target, tuple(sorted([(high - k, d) for k, d in factors if k != high], key=_canonical))))
    return _product(*min(sides))
