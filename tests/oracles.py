"""Brute-force oracles that the engines in partreg are tested against."""

import itertools

from partreg.polys import eval_ring
from partreg.windows import RootHypergraph


def enumerate_roots_naive(p, window, injective=False):
    """Reference product scan; oracle for enumerate_roots."""
    n = p.nvars
    elems = window.elements
    found = []
    for combo in itertools.product(range(len(elems)), repeat=n):
        if injective and len(set(combo)) != n:
            continue
        if eval_ring(p, tuple(elems[i] for i in combo)).is_zero():
            found.append(combo)
    edges = sorted({tuple(sorted(set(tup))) for tup in found})
    return RootHypergraph(window, found, edges, injective)


def exhaustive_l_pr_oracle(p, window, colors, injective=False):
    """Independent oracle: try every coloring of the window."""
    hypergraph = enumerate_roots_naive(p, window, injective)
    edges = hypergraph.edges
    for coloring in itertools.product(range(colors), repeat=len(window)):
        if all(len({coloring[i] for i in e}) > 1 for e in edges):
            return coloring  # a valid coloring: not certified
    return None  # certified
