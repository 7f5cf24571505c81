"""The lift route of white.toric_fibers, and the named views of a fiber.

white.toric_fibers closes stars while every fiber below the degree is
connected, and loads this module only where it lifts: from the first
degree with a split fiber, for the representatives of a witness, and for
the named views (vertices, adjacency, components) at their first access.
So a check whose fibers are all connected never compiles it. The helpers
it shares with the star route (_join, _labels, _row_offsets, _monomials
and the degree-2 labeling) stay in white.py and are read there at each
call.

Each degree-k monomial v gets one lift key per distinct factor B,
label(v/B) * b + B for b bases, and one union-find over the keys gives the
components. Every array is indexed by lexicographic position. The labels
of degree k - 1 are one list of label * b, and since the monomials
q + (l,) with l >= last(q) are contiguous, a lift key is read at a row
offset plus l. The union-find is a list over the positions of the degree-2
monomials, then over the lift keys of each higher degree. One labeling
pass per degree, in lexicographic order, numbers the components and
records for each fiber its size and the least monomial of each component;
every component must lie in one fiber.
"""
from __future__ import annotations

import collections
import itertools

from . import white


def _key_rows(flat, n_bases, k):
    """The lift keys of the degree-k monomials, one row per degree-(k - 1)
    prefix p in lexicographic order, from the labels `flat` of the
    degree-(k - 1) monomials (label * n_bases, in lexicographic order).

    A monomial v has one key label(v / B) * n_bases + B per distinct factor
    B. Each row is last(p), head and (off, f) for each distinct factor f
    of p: for v = p + (l,), l >= last(p), the key of l is head + l, with
    head = flat[pos(p)], and the key of f is flat[off + l] + f, where off
    is the row offset of p / f, since v / f = (p / f) + (l,).
    """
    offsets = white._row_offsets(n_bases, k - 2)
    for p, head in zip(white._monomials(n_bases, k - 1), flat):
        yield p[-1], head, [
            (offsets[p[:t] + p[t + 1:]], f) for t, f in enumerate(p) if t == 0 or f != p[t - 1]
        ]


def _lift(flat, n_bases, k):
    """Pairs of lift keys that one degree-k monomial carries: the key of
    its last factor l with the key of each distinct factor of its prefix,
    one zip over l per prefix and factor. Monomials that share a key are
    B*m and B*m' with m, m' in one degree-(k - 1) component: one move
    component."""
    return itertools.chain.from_iterable(
        zip(range(head + last, head + n_bases), map(f.__add__, flat[off + last:off + n_bases]))
        for last, head, factors in _key_rows(flat, n_bases, k)
        for off, f in factors
    )


def _labeling(k, flat, summary, masks, index, codes):
    """The labeling pass of degree k, from the labels and summary of degree
    k - 1: white._labeling in degrees 1 and 2, lift keys (_lift) above."""
    if k < 3:
        return white._labeling(k, masks, index, codes)
    n_bases = len(masks)
    n_labels = sum(len(reps) for _, reps in summary.values())
    return white._labels(white._join(n_labels * n_bases, _lift(flat, n_bases, k)), flat, n_bases, k, codes)


def _lift_route(masks, index, codes, d, flat=None, lower=None):
    """The lift, degree by degree, from the labels `flat` and summary
    `lower` of degree 2 when they are given: the labels and summary of
    degree d - 1 and the summary {code: [size, least monomial of each
    component]} of degree d, whose pass keeps no labels."""
    for k in range(min(d, 2) if flat is None else 3, d):
        *flat, lower = _labeling(k, flat, lower, masks, index, codes)
    (summary,) = collections.deque(_labeling(d, flat, lower, masks, index, codes), maxlen=1)
    return flat, lower, summary


def _named_views(bases, d, codes, groups, labels):
    """{multidegree code: (vertices, adjacency, components)} with the
    bases themselves as names, from the component labels of the labeling
    pass.

    `groups` lists for each monomial, in lexicographic order, its
    double-swap neighbours in degree 2 and its lift keys above; the
    adjacency holds the double-swap moves in degree 2, and above it holds
    star edges: each monomial is joined to the first monomial that listed
    each of its lift keys, which gives the same components.
    """
    views, names, members, first = {}, {}, [], {}
    for v, items, label in zip(white._monomials(len(bases), d), groups, labels):
        names[v] = name = tuple(map(bases.__getitem__, v))
        code = sum(map(codes.__getitem__, v))
        view = views.get(code)
        if view is None:
            view = views[code] = [], {}, []
        vertices, adjacency, components = view
        vertices.append(name)
        adjacency[name] = nbrs = []
        if label == len(members):
            members.append([])
            components.append(members[label])
        members[label].append(name)
        if d < 3:
            joined = [w for w in items if w < v]
        else:
            joined = []
            for key in items:
                w = first.setdefault(key, v)
                if w is not v and w not in joined:
                    joined.append(w)
        for w in joined:
            nbrs.append(names[w])
            adjacency[names[w]].append(name)
    return views


def _views(bases, masks, index, codes, d, lifted):
    """The named views of every degree-d fiber (_named_views), from the
    labels and summary of degree d - 1 that _lift_route gave (`lifted`):
    the degree-d labeling pass run again, this time keeping its labels."""
    flat_below, summary_below, _ = lifted
    n_bases = len(bases)
    *labels, _ = _labeling(d, flat_below, summary_below, masks, index, codes)
    if d < 3:
        groups = (white._swaps(masks, index, *v) if d == 2 else () for v in white._monomials(n_bases, d))
    else:
        groups = (
            [flat_below[off + l] + f for off, f in factors] + [head + l]
            for last, head, factors in _key_rows(flat_below, n_bases, d)
            for l in range(last, n_bases)
        )
    return _named_views(bases, d, codes, groups, [x // n_bases for x in labels])
