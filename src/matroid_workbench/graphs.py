"""Graph algorithms behind graphic matroids, loaded with the first graphic
memo key, coloop query or basis count, so that commands which never meet a
graph, and graph commands that never run deletion-contraction, do not
compile them.

canonical_edges(pairs) relabels the vertices 0..n-1 so that isomorphic
multigraphs, whatever their vertex names and edge order, give the same
sorted edge list, and non-isomorphic ones different lists (the list is the
graph); graphic memo keys are written from it. It is
individualization-refinement in the manner of McKay's nauty
(McKay-Piperno, "Practical graph isomorphism, II", 2014), kept small for
the graphs deletion-contraction meets:

  * An ordered partition of the vertices is held as a colour per vertex,
    the position at which its cell starts. Colour refinement splits each
    cell by the sorted colours of its vertices' neighbours (with
    multiplicity) until the partition is equitable, and re-examines only
    the cells next to a vertex whose colour changed.
  * The first cell that is not a singleton is split by individualizing a
    vertex: it becomes a cell of its own at the end of the old one, and
    refinement runs again. Twins (vertices with the same neighbours apart
    from each other) are individualized a class at a time, since any
    permutation of a twin class is an automorphism; one branch is taken per
    class, and per orbit of the automorphisms that earlier leaves revealed
    and that fix the branch's path.
  * A discrete partition is a leaf; it numbers the vertices, and the key
    is the least edge list over the leaves.

Every step reads only the graph's structure and the order of the cells,
never vertex names (which may mix str and int), so the form is invariant,
and the branches pruned are images of explored ones under automorphisms,
so the least list is the same for every presentation.

blocks(edges) splits a graph into its blocks by one depth-first search;
its coloops are the blocks of one edge, and spanning_forest_count(pairs)
counts its bases as the product over the others of Kirchhoff's
determinant (Bareiss's int_determinant). A graph's rank, steps and
minors are the rollback union-find's, in matroids.py, from which this
module imports nothing.
"""
from __future__ import annotations


def canonical_edges(pairs):
    """The edges (u, v) of a multigraph relabelled canonically, as a sorted
    tuple of (a, b) pairs with a <= b over vertices 0..n-1; loops are
    (a, a) and parallel edges repeat."""
    index = {}
    ends = [(index.setdefault(u, len(index)), index.setdefault(v, len(index))) for u, v in pairs]
    n = len(index)
    nbrs = [[] for _ in range(n)]  # neighbours, repeated by multiplicity
    loops = [0] * n
    for a, b in ends:
        if a == b:
            loops[a] += 1
        else:
            nbrs[a].append(b)
            nbrs[b].append(a)
    col, cells = [0] * n, {}
    prev = None
    for p, v in enumerate(sorted(range(n), key=lambda v: (loops[v], len(nbrs[v])))):
        if (loops[v], len(nbrs[v])) != prev:
            prev, start = (loops[v], len(nbrs[v])), p
            cells[start] = []
        col[v] = start
        cells[start].append(v)
    _refine(col, cells, nbrs, set(cells))
    return _Search(ends, nbrs).run(col, cells)


def _refine(col, cells, nbrs, todo):
    """Refine the ordered partition (col, cells) in place to an equitable
    one, examining the cells whose starts are in `todo`, least first. A
    cell is sorted by the sorted colours of its vertices' neighbours, and
    each run of equal signatures becomes a cell at its own position; the
    first run keeps the old start, and the neighbours of every vertex that
    moved have their cells examined again. Cell lists are replaced, never
    changed, so a copy of `cells` that shares them stays valid."""
    get = col.__getitem__
    while todo:
        s = min(todo)
        todo.discard(s)
        cell = cells[s]
        if len(cell) == 1:
            continue
        sig = {v: sorted(map(get, nbrs[v])) for v in cell}
        cell = sorted(cell, key=sig.__getitem__)
        last = sig[cell[0]]
        if sig[cell[-1]] == last:
            continue
        runs = [(s, [])]
        for p, v in enumerate(cell):
            if sig[v] != last:
                last = sig[v]
                runs.append((s + p, []))
            runs[-1][1].append(v)
        for start, run in runs:
            cells[start] = run
        for start, run in runs[1:]:
            for v in run:
                col[v] = start
            for v in run:
                todo.update(map(get, nbrs[v]))


class _Search:
    """The search tree over individualizations, with the least leaf and the
    automorphisms found where two leaves give the same edge list."""

    def __init__(self, ends, nbrs):
        self.heads, self.tails = [a for a, _ in ends], [b for _, b in ends]
        self.nbrs = nbrs
        self.best = None  # (edge list, colouring) of the least leaf so far
        self.autos = []  # automorphisms as lists: vertex -> image

    def run(self, col, cells):
        self._visit(col, cells, [])
        return self.best[0]

    def _leaf(self, col):
        get = col.__getitem__
        edges = tuple(sorted([(x, y) if x <= y else (y, x)
                              for x, y in zip(map(get, self.heads), map(get, self.tails))]))
        if self.best is None or edges < self.best[0]:
            self.best = (edges, col)
        elif edges == self.best[0]:
            # both colourings number the graph the same way, so mapping each
            # vertex to the one the best leaf gives its number is an automorphism
            at = [0] * len(col)
            for v, c in enumerate(self.best[1]):
                at[c] = v
            self.autos.append([at[c] for c in col])

    def _visit(self, col, cells, path):
        """Explore the equitable partition (col, cells), reached by
        individualizing the vertices of `path` in order."""
        open_cells = sorted(t for t, cell in cells.items() if len(cell) > 1)
        nbrs = self.nbrs
        for t in open_cells:
            classes = _twin_classes(cells[t], nbrs, col)
            if len(classes) > 1:
                break
        else:
            # every open cell is one twin class, so all the leaves below
            # number each cell in some order and differ by automorphisms:
            # one leaf stands for all
            c = list(col)
            for t in open_cells:
                for p, v in enumerate(cells[t], t):
                    c[v] = p
            self._leaf(c)
            return
        s = open_cells[0]
        if t != s:
            classes = _twin_classes(cells[s], nbrs, col)
        end = s + len(cells[s])
        # union-find of the cell's orbits, seeded with the twin classes
        orbit = {v: group[0] for group in classes for v in group}
        applied, explored = 0, []
        for group in classes:
            for g in self.autos[applied:]:
                if all(g[v] == v for v in path):
                    for v in orbit:
                        orbit[_find(orbit, v)] = _find(orbit, g[v])
            applied = len(self.autos)
            root = _find(orbit, group[0])
            if any(_find(orbit, v) == root for v in explored):
                continue
            explored.append(group[0])
            c, cl = list(col), dict(cells)
            cl[s] = [v for v in cells[s] if v not in group]
            for p, v in enumerate(group, end - len(group)):
                c[v] = p
                cl[p] = [v]
            get, todo = c.__getitem__, set()
            for v in group:
                todo.update(map(get, nbrs[v]))
            _refine(c, cl, nbrs, todo)
            self._visit(c, cl, path + group)


def _find(parent, v):
    while parent[v] != v:
        v = parent[v]
    return v


def _twin_classes(cell, nbrs, col):
    """The cell's vertices in classes of twins: u and v are twins when they
    have the same neighbours with the same multiplicities, apart from each
    other (they have the same loops, being in one cell). Twins of one class
    are pairwise joined by the same number k of edges (possibly 0), so a
    class is found by the neighbours of a member with the member itself
    added k times, for each k with which it meets a vertex of the cell."""
    seen, classes = {}, []
    here = col[cell[0]]
    for v in cell:
        ws = nbrs[v]
        ks = {ws.count(w) for w in ws if col[w] == here}
        ks.add(0)
        keys = [(k, tuple(sorted(ws + [v] * k))) for k in ks]
        found = next((seen[key] for key in keys if key in seen), None)
        if found is None:
            found = len(classes)
            classes.append([])
        classes[found].append(v)
        for key in keys:
            seen.setdefault(key, found)
    return classes


def blocks(edges):
    """The blocks (2-connected components) of the multigraph with these
    (label, (u, v)) edges, each a list of edge labels; self-loops are in
    none, and a block of one edge is a bridge. Hopcroft-Tarjan's
    depth-first search (1973), run on an explicit stack. Vertices are
    numbered in the order found, and low[t] is the least number that a
    back edge from the subtree of vertex t reaches (or t); when low[t] is
    not below the number of t's parent, the edges pushed since the tree
    edge into t, with it, form a block."""
    adj = {}
    for e, (u, v) in edges:
        if u != v:
            adj.setdefault(u, []).append((v, e))
            adj.setdefault(v, []).append((u, e))
    number, low, found, stack = {}, [], [], []
    for root in adj:
        if root in number:
            continue
        number[root] = t = len(low)
        low.append(t)
        walk = [(t, None, 0, iter(adj[root]))]  # (number, tree edge in, stack mark, edges out)
        while walk:
            tx, via, mark, out = walk[-1]
            for y, e in out:
                ty = number.get(y)
                if ty is None:
                    number[y] = ty = len(low)
                    low.append(ty)
                    walk.append((ty, e, len(stack), iter(adj[y])))
                    stack.append(e)
                    break
                if ty < tx and e != via:  # a back edge, met from below
                    stack.append(e)
                    if ty < low[tx]:
                        low[tx] = ty
            else:
                walk.pop()
                if walk:
                    tp = walk[-1][0]
                    if low[tx] >= tp:
                        found.append(stack[mark:])
                        del stack[mark:]
                    elif low[tx] < low[tp]:
                        low[tp] = low[tx]
    return found


def spanning_forest_count(pairs):
    """The number of spanning forests of the multigraph with these (u, v)
    edges. A graph's cycle matroid is the direct sum of its blocks', so
    the count is the product over the blocks, and a block of one edge
    counts 1; a block of more has as many spanning trees as the
    determinant of its Laplacian with one vertex's row and column removed
    (Kirchhoff's matrix-tree theorem). Parallel edges add up in the
    Laplacian; self-loops lie in no forest and in no block."""
    edges = list(pairs)
    count = 1
    for block in blocks(enumerate(edges)):
        if len(block) > 1:
            degree, weight = {}, {}
            for e in block:
                u, v = edges[e]
                for a, b in ((u, v), (v, u)):
                    degree[a] = degree.get(a, 0) + 1
                    weight[a, b] = weight.get((a, b), 0) + 1
            _, *rest = degree
            count *= int_determinant(
                [[degree[a] if a == b else -weight.get((a, b), 0) for b in rest] for a in rest]
            )
    return count


def int_determinant(matrix):
    """The determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division is exact, so all entries stay integers
    (each is a minor of the input). The empty matrix has determinant 1."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row, c = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - c * m[k][j]) // prev
        prev = pivot
    return sign * prev
