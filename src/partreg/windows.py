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


def _least_valid_coloring(size, edges, colors):
    """Lexicographically least coloring with no monochromatic edge, or None.

    Edges are sorted tuples of distinct positions.  Depth-first over
    positions in window order, iteratively (per-position arrays replace the
    call stack); a fresh color is only tried as the single next unused
    color, which is sound for lexicographic minimality (relabeling any valid
    coloring canonically never increases it).

    Forward checking: positions are colored in order, so an edge has one
    uncolored member, its last, right after its second-to-last member is
    colored.  If the other members then share a color c, c leaves the last
    member's mask of allowed colors, and an empty mask closes the branch.
    This only cuts branches without a valid completion, so the first valid
    leaf, and the result, are those of plain backtracking.
    """
    if any(len(e) == 1 for e in edges):
        return None
    if size == 0:
        return ()
    colors = min(colors, size)  # a fresh color beyond the size is never reached
    closing = [[] for _ in range(size)]  # (mask of the other members, last member)
    for e in edges:
        closing[e[-2]].append((sum(1 << i for i in e[:-2]), e[-1]))
    allowed = [(1 << colors) - 1] * size
    trail = []  # (position, its mask before a removal)
    assignment = [0] * size
    # classes[c] has bit i when assignment[i] == c; bits at or past the
    # current position may be stale, and closing masks never read them
    classes = [0] * colors
    used = [0] * size  # colors used before each position
    next_color = [0] * size
    mark = [0] * size  # trail length when the position was entered
    pos = 0
    while True:
        while len(trail) > mark[pos]:
            i, mask = trail.pop()
            allowed[i] = mask
        c = next_color[pos]
        limit = min(colors, used[pos] + 1)
        while c < limit and not allowed[pos] >> c & 1:
            c += 1
        if c == limit:
            if pos == 0:
                return None
            pos -= 1
            continue
        next_color[pos] = c + 1
        here = 1 << pos
        classes[assignment[pos]] &= ~here
        assignment[pos] = c
        same = classes[c] = classes[c] | here
        bit = 1 << c
        for rest, last in closing[pos]:
            if rest & same == rest and allowed[last] & bit:
                trail.append((last, allowed[last]))
                allowed[last] ^= bit
                if not allowed[last]:
                    break  # wiped out: try the next color
        else:
            if pos + 1 == size:
                return tuple(assignment)
            pos += 1
            used[pos] = max(used[pos - 1], c + 1)
            next_color[pos] = 0
            mark[pos] = len(trail)


def check_window_l_pr(p, window, colors, injective=False):
    """Decide l-partition regularity restricted to one finite window."""
    if colors < 1:
        raise ValueError("need at least one color")
    hypergraph = enumerate_roots(p, window, injective)
    edges = _minimal_edges(hypergraph.edges)
    constant_root = next((e[0] for e in edges if len(e) == 1), None)
    coloring = _least_valid_coloring(len(window), edges, colors)
    # a one-element edge leaves no valid coloring, so at most one of these is set
    return WindowCertificate(
        kind="PartitionCertified" if coloring is None else "PartitionColorable",
        window=window,
        colors=colors,
        injective=injective,
        coloring=coloring,
        constant_root=constant_root,
    )


def semidecide_l_pr(p, colors, injective=False, budget=20):
    """Grow enumeration-prefix windows until one certifies, or give up.

    Returns the first PartitionCertified window certificate, or an Exhausted
    one carrying the coloring of the last window tried.  A certificate is
    unconditional (compactness); Exhausted is inconclusive and never a
    refutation.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    for k in range(1, budget + 1):
        cert = check_window_l_pr(p, Window.enumeration_prefix(p.domain, k), colors, injective)
        if cert.kind == "PartitionCertified":
            return cert
    return replace(cert, kind="Exhausted")


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
