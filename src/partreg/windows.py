"""Finite-window certificate engines.

Everything here reduces a Ramsey-type question to a finite ground set: root
enumeration builds a hypergraph whose edges are the value-sets of root
tuples, coloring search decides l-partition regularity on the window, exact
branch-and-bound independent sets decide the density question, and the
semi-decider walks enumeration-prefix windows until one certifies.

A certified window transfers to the whole domain by compactness; an
exhausted budget transfers nothing (no refutation procedure can exist in
general, so Exhausted is always inconclusive).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .polys import RawPowers, is_homogeneous, is_translation_invariant, substitute_first_raw
from .rings import DomainTag, from_int, nonzero_prefix


@dataclass(frozen=True)
class Window:
    domain: DomainTag
    elements: tuple  # nonzero DomainElements, no duplicates, fixed order
    provenance: str

    def __post_init__(self):
        seen = set()
        for x in self.elements:
            if x.domain != self.domain:
                raise ValueError("window element domain mismatch")
            if x.is_zero():
                raise ValueError("0 is never a window element")
            if x in seen:
                raise ValueError("duplicate window element")
            seen.add(x)

    def __len__(self):
        return len(self.elements)

    @classmethod
    def enumeration_prefix(cls, domain, k):
        if k < 1:
            raise ValueError("a prefix window needs k >= 1")
        return cls(domain, tuple(nonzero_prefix(domain, k)), f"prefix:{k}")

    @classmethod
    def interval(cls, domain, lo, hi):
        if domain.kind != "Z":
            raise ValueError("interval windows exist only over Z")
        if lo > hi:
            raise ValueError("empty interval")
        elems = tuple(from_int(domain, v) for v in range(lo, hi + 1) if v != 0)
        return cls(domain, elems, f"interval:{lo}..{hi}")

    @classmethod
    def explicit(cls, domain, elements):
        return cls(domain, tuple(elements), "explicit-list")


@dataclass
class RootHypergraph:
    """All roots of a polynomial inside a window.

    tuples are index sequences into the window; edges are the deduplicated
    sorted index sets of tuple values (monochromaticity only sees the set).
    """

    window: Window
    tuples: list  # list of index tuples, lexicographically sorted
    edges: list  # sorted list of sorted index tuples


@dataclass
class WindowCertificate:
    kind: str  # Partition{Certified,Colorable} | Exhausted | Density{Certified,Avoider}
    window: Window
    colors: int | None = None
    delta: Fraction | None = None
    mode: str | None = None
    injective: bool = False
    coloring: tuple | None = None  # color per window position
    avoider: tuple | None = None  # window positions
    max_avoider_size: int | None = None
    constant_root: int | None = None  # window position of a constant root
    transferable: bool | None = None


# ---------------------------------------------------------------------------
# root enumeration
# ---------------------------------------------------------------------------


def _split_last_variable(p):
    """Raw terms (f, h) with p = f(x1..x(n-1)) + h(xn), or None when p does not separate.

    p separates when xn occurs and no term mixes it with another variable;
    the constant term goes to f.
    """
    f_terms, h_terms = {}, {}
    for exps, coeff in p.terms.items():
        if not exps[-1]:
            f_terms[exps[:-1]] = coeff
        elif any(exps[:-1]):
            return None
        else:
            h_terms[exps[-1:]] = coeff
    if not h_terms:
        return None
    return f_terms, h_terms


class _RawWindow:
    """A window's element values, with the powers of each computed on first use.

    Each element keeps only the powers whose exponents the descent asks for
    (RawPowers), and an exponent's column over the whole window is built once
    from them.
    """

    def __init__(self, ops, window):
        self.ops = ops
        self.values = [x.value for x in window.elements]
        self.powers = [RawPowers(ops.pow, v) for v in self.values]
        self.columns = {}

    def at_each(self, terms):
        """Raw values of univariate raw terms at every element, in window order."""
        ops = self.ops
        total = None
        for (e,), c in terms.items():
            if e:
                part = self.columns.get(e)
                if part is None:
                    part = self.columns[e] = [powers[e] for powers in self.powers]
                if ops.freeze(c) != ops.one:  # a coefficient of one takes the column as it is
                    part = map(ops.mul, itertools.repeat(c), part)
            else:
                part = itertools.repeat(c, len(self.values))
            total = list(part) if total is None else list(map(ops.add, total, part))
        return [ops.zero] * len(self.values) if total is None else total


def enumerate_roots(p, window, injective=False):
    """Every tuple in window^nvars where p vanishes, as a hypergraph.

    One descent substitutes window elements into the leading variables on
    raw values (substitute_first_raw, each element's powers computed once),
    never building a MultiPoly or a DomainElement per node.  Three paths,
    all matching the naive full product scan exactly:

    * separable hash: when p = f(x1..x(n-1)) + h(xn), n >= 2, -h fills a
      value -> positions table once; the descent runs over f unpruned (f's
      constants say nothing before h is added), folds f's last variable to
      one value per element and resolves xn by one lookup each;
    * linear closed form: otherwise a zero polynomial takes every
      completion, a nonzero constant is pruned, and a last variable that
      appears linearly is solved directly;
    * scan: a last variable of higher degree is evaluated over the window.
    """
    if p.domain != window.domain:
        raise ValueError("polynomial and window domains differ")
    if p.nvars == 0:
        raise ValueError("cannot enumerate roots of a constant")
    ops = p.domain.ops
    freeze = ops.freeze
    raw = _RawWindow(ops, window)
    size = len(raw.values)
    split = _split_last_variable(p) if p.nvars > 1 else None
    found = []
    if split is None:
        terms, n = p.terms, p.nvars
        position = {v: i for i, v in enumerate(raw.values)}

        def last_variable(terms, prefix):  # terms is zero or not constant
            if max((e for (e,) in terms), default=0) == 1:  # the root is -b/a, when a divides b
                quo, rem = ops.divmod(ops.neg(terms.get((0,), ops.zero)), terms[(1,)])
                i = None if rem else position.get(freeze(quo))
                if i is not None and not (injective and i in prefix):
                    found.append(prefix + (i,))
                return
            for i, value in enumerate(raw.at_each(terms)):
                if not value and not (injective and i in prefix):
                    found.append(prefix + (i,))
    else:
        (terms, h), n = split, p.nvars - 1  # the descent covers f's n variables
        table = {}  # -h(x) -> ascending positions of x
        for i, v in enumerate(raw.at_each(h)):
            table.setdefault(freeze(ops.neg(v)), []).append(i)

        def last_variable(terms, prefix):  # f's last variable folded, xn looked up
            for j, positions in enumerate(map(table.get, map(freeze, raw.at_each(terms)))):
                if positions is None or injective and j in prefix:
                    continue
                row = prefix + (j,)
                for i in positions:
                    if not (injective and i in row):
                        found.append(row + (i,))

    def descend(terms, prefix):
        remaining = n - len(prefix)
        if split is None:
            if not terms and not injective:
                found.extend(prefix + rest for rest in itertools.product(range(size), repeat=remaining))
                return
            if len(terms) == 1 and (0,) * remaining in terms:
                return  # nonzero constant: no completion can vanish
        if remaining == 1:
            last_variable(terms, prefix)
            return
        for i, powers in enumerate(raw.powers):
            if not (injective and i in prefix):
                descend(substitute_first_raw(ops, terms, powers), prefix + (i,))

    descend(terms, ())
    del descend  # it refers to itself: without this, the window tables wait for the cyclic GC
    found.sort()
    edges = sorted({tuple(sorted(set(tup))) for tup in found})
    return RootHypergraph(window, found, edges)


def _minimal_edges(edges):
    """Drop edges containing another edge, and repeats; order is kept.

    The edges containing an edge are the common members of its elements'
    incidence sets, so only edges sharing an element are compared.  Edges
    are non-empty.
    """
    sets = [frozenset(e) for e in edges]
    incident = {}
    for j, s in enumerate(sets):
        for x in s:
            incident.setdefault(x, set()).add(j)
    dropped = set()
    for i, s in enumerate(sets):
        for j in set.intersection(*(incident[x] for x in s)):
            if j > i or len(sets[j]) > len(s):  # a later repeat or a strict superset
                dropped.add(j)
    return [e for j, e in enumerate(edges) if j not in dropped]


# ---------------------------------------------------------------------------
# l-partition regularity on a window
# ---------------------------------------------------------------------------


def _least_valid_coloring(size, edges, colors, start=()):
    """Lexicographically least coloring with no monochromatic edge, or None.

    Edges are sorted tuples of distinct positions.  A position in no edge
    takes color 0, as it does in the least valid coloring, and is not
    searched.  Depth-first over the other positions in window order,
    iteratively (per-position arrays replace the call stack); a fresh color
    is only tried as the single next unused color, which is sound for
    lexicographic minimality (relabeling the searched positions of any valid
    coloring canonically never increases it).

    Unit propagation: each position keeps a bitmask of allowed colors, and
    is fixed to c once it is colored c or c is the only color left in its
    mask.  When a position is fixed to c, each edge through it is checked:
    if every member is fixed to c the branch is closed, and if exactly one
    member is not, c leaves that member's mask, which may fix it in turn.
    Every completion of the branch colors each fixed position with its
    color, so such an edge would be monochromatic: propagation removes only
    colors that no valid completion uses, and the first valid leaf, and the
    result, are those of plain backtracking.

    start, when given, is this function's result for range(len(start))
    under the edges inside it, and the search resumes at the leaf extending
    it.  A valid coloring restricts to a valid coloring of that
    sub-hypergraph, so every lexicographically smaller prefix has no valid
    completion: skipping them leaves the result unchanged.
    """
    if any(len(e) == 1 for e in edges):
        return None
    if size == 0:
        return ()
    colors = min(colors, size)  # a fresh color beyond the size is never reached
    if colors == 1:
        return None if edges else (0,) * size
    through = [[] for _ in range(size)]  # masks of the edges through each position
    for e in edges:
        m = 0
        for i in e:
            m |= 1 << i
        for i in e:
            through[i].append(m)
    order = [i for i, masks in enumerate(through) if masks]  # the positions searched
    # a fixed position's mask is its one color; a position in no edge takes color 0
    allowed = [(1 << colors) - 1 if masks else 1 for masks in through]
    fixed = [0] * colors  # fixed[c] has bit i when position i is fixed to c
    trail = []  # (position, its mask before a change)
    depth = len(order)
    used = [0] * depth  # colors used before each searched position
    next_color = [0] * depth
    mark = [0] * depth  # trail length when the position was entered
    resume = len(start)  # positions below this begin at start's color while on its path
    if depth and order[0] < resume:
        next_color[0] = start[order[0]]
    t = 0
    while t < depth:
        while len(trail) > mark[t]:
            i, mask = trail.pop()
            now = allowed[i]
            if not now & (now - 1):
                fixed[now.bit_length() - 1] ^= 1 << i
            allowed[i] = mask
        pos = order[t]
        low = next_color[t]
        left = allowed[pos] >> low
        c = low + (left & -left).bit_length() - 1  # the least allowed color from low on
        if not left or c > used[t]:
            if t == 0:
                return None
            t -= 1
            continue
        next_color[t] = c + 1
        if pos < resume and c != start[pos]:
            resume = pos + 1  # off start's path: later positions begin at color 0
        bit = 1 << c
        if allowed[pos] != bit:  # a position fixed by propagation was propagated then
            trail.append((pos, allowed[pos]))
            allowed[pos] = bit
            fixed[c] |= 1 << pos
            pending, wiped = 1 << pos, False
            while pending and not wiped:
                i = (pending & -pending).bit_length() - 1  # lowest first: conflicts come sooner
                pending ^= 1 << i
                b = allowed[i]
                other = ~fixed[b.bit_length() - 1]  # only other colors get fixed below
                for m in through[i]:
                    rest = m & other
                    if not rest:
                        wiped = True  # a monochromatic edge
                        break
                    if not rest & (rest - 1):
                        j = rest.bit_length() - 1
                        a = allowed[j]
                        if a & b:  # j is not fixed to b's color, so a keeps another
                            trail.append((j, a))
                            a ^= b
                            allowed[j] = a
                            if not a & (a - 1):
                                fixed[a.bit_length() - 1] |= rest
                                pending |= rest
            if wiped:
                continue  # try the next color
        t += 1
        if t < depth:
            used[t] = used[t - 1] + (c == used[t - 1])  # c is at most used[t - 1]
            next_color[t] = start[order[t]] if order[t] < resume else 0
            mark[t] = len(trail)
    return tuple(a.bit_length() - 1 for a in allowed)


def _partition_verdict(window, edges, colors, injective, coloring):
    # a one-element edge leaves no valid coloring, so at most one of coloring
    # and constant_root is set
    return WindowCertificate(
        kind="PartitionCertified" if coloring is None else "PartitionColorable",
        window=window,
        colors=colors,
        injective=injective,
        coloring=coloring,
        constant_root=next((e[0] for e in edges if len(e) == 1), None),
    )


def check_window_l_pr(p, window, colors, injective=False):
    """Decide l-partition regularity restricted to one finite window."""
    if colors < 1:
        raise ValueError("need at least one color")
    edges = _minimal_edges(enumerate_roots(p, window, injective).edges)
    coloring = _least_valid_coloring(len(window), edges, colors)
    return _partition_verdict(window, edges, colors, injective, coloring)


def semidecide_l_pr(p, colors, injective=False, budget=20):
    """Grow enumeration-prefix windows until one certifies, or give up.

    Returns the first PartitionCertified window certificate, or an Exhausted
    one carrying the coloring of the last window tried.  A certificate is
    unconditional (compactness); Exhausted is inconclusive and never a
    refutation.

    Prefix windows nest, so one search serves them all.  Roots and minimal
    edges are enumerated once each time k passes the enumerated prefix, at
    prefix min(budget, 2k).  The edges of prefix k are the larger prefix's
    edges inside range(k), and an edge contained in one of them lies inside
    range(k) too, so prefix k's minimal edges are the larger prefix's
    minimal edges inside range(k).  Each window's search resumes from the
    previous window's coloring: every lexicographically smaller assignment
    was refuted on a sub-hypergraph (see _least_valid_coloring).
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if colors < 1:
        raise ValueError("need at least one color")
    elements, coloring = (), ()
    for k in range(1, budget + 1):
        if k > len(elements):
            window = Window.enumeration_prefix(p.domain, min(budget, 2 * k))
            elements = window.elements
            edges = _minimal_edges(enumerate_roots(p, window, injective).edges)
        inside = [e for e in edges if e[-1] < k]
        coloring = _least_valid_coloring(k, inside, colors, coloring)
        if coloring is None:
            break
    window = Window(p.domain, elements[:k], f"prefix:{k}")
    cert = _partition_verdict(window, inside, colors, injective, coloring)
    return cert if coloring is None else replace(cert, kind="Exhausted")


# ---------------------------------------------------------------------------
# density windows
# ---------------------------------------------------------------------------


def max_avoiding_subset(size, edges):
    """Exact maximum subset of range(size) containing no edge.

    Edges are tuples of distinct positions.  Branch and bound with an
    explicit stack: branch on the elements of the
    first unbroken edge in sorted minimal-edge order, so the result is
    canonical.  Sets are int bitmasks.  A child's allowed set lies inside its
    parent's, so its scan for an unbroken edge resumes past the edge just
    branched on.  Pairwise disjoint unbroken edges each cost a distinct
    element, so |allowed| minus a greedy disjoint packing bounds every
    completion; best is only replaced by a strictly larger set, which keeps
    the first maximum in branching order.
    """
    edges = _minimal_edges(sorted(edges))
    masks = [sum(1 << i for i in e) for e in edges]
    best, best_size = 0, 0
    stack = [((1 << size) - 1, 0)]  # (allowed, index of the first edge that may be unbroken)
    while stack:
        allowed, start = stack.pop()
        room = allowed.bit_count() - best_size
        if room <= 0:
            continue
        target, packed, packing = None, 0, 0
        for k in range(start, len(masks)):
            m = masks[k]
            if m & allowed == m and not m & packed:
                if target is None:
                    target = k
                packed |= m
                packing += 1
                if packing >= room:
                    break
        if target is None:
            best, best_size = allowed, allowed.bit_count()
        elif packing < room:
            stack.extend((allowed & ~(1 << v), target + 1) for v in reversed(edges[target]))
    return tuple(i for i in range(size) if best >> i & 1)


def transfers(p, mode):
    """Whether a density verdict in this mode transfers beyond its window."""
    if mode == "additive":
        return is_translation_invariant(p)
    if mode == "multiplicative":
        return is_homogeneous(p) is not None
    raise ValueError("mode must be 'additive' or 'multiplicative'")


def density_delta(value, name="delta"):
    """value as a Fraction in (0, 1], the only thresholds that say anything; else ValueError."""
    try:
        if 0 < (delta := Fraction(value)) <= 1:
            return delta
    except (TypeError, ValueError, ArithmeticError):
        pass  # not a finite rational at all
    raise ValueError(f"{name} must be a rational in (0, 1], not {value!r}")


def density_window_check(p, window, delta, mode="additive", injective=False):
    """Certify or refute the delta-density property on one window.

    DensityCertified means every subset of size >= delta*|window| contains an
    edge; the certificate transfers to the whole domain only when the
    polynomial is translation invariant (additive mode) or homogeneous
    (multiplicative mode), which the transferable field records.
    """
    delta = density_delta(delta)
    transferable = transfers(p, mode)
    hypergraph = enumerate_roots(p, window, injective)
    avoider = max_avoiding_subset(len(window), hypergraph.edges)
    certified = len(avoider) < delta * len(window)
    return WindowCertificate(
        kind="DensityCertified" if certified else "DensityAvoider",
        window=window,
        delta=delta,
        mode=mode,
        injective=injective,
        avoider=None if certified else avoider,
        max_avoider_size=len(avoider),
        transferable=transferable,
    )


# ---------------------------------------------------------------------------
# disjoint solutions
# ---------------------------------------------------------------------------


def disjoint_solutions(p, window, count, injective=False):
    """The first count root tuples (window positions), in tuple order, with
    pairwise disjoint coordinate sets, or None; backtracks over a stack of
    tuple indices.
    """
    if count < 1:
        raise ValueError("count must be positive")
    hypergraph = enumerate_roots(p, window, injective)
    tuples = hypergraph.tuples
    picked, used, idx = [], set(), 0
    while len(picked) < count:
        while idx < len(tuples) and not used.isdisjoint(tuples[idx]):
            idx += 1
        if idx < len(tuples):
            picked.append(idx)
            used.update(tuples[idx])
            idx += 1
        elif picked:
            used.difference_update(tuples[picked[-1]])  # chosen tuples are disjoint
            idx = picked.pop() + 1
        else:
            return None
    return [tuples[i] for i in picked]
