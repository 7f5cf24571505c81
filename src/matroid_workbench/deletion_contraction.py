"""Deletion-contraction for the Tutte polynomial, and its memo tables.

tutte.tutte_polynomial routes here when the subset walk is too long or it
is given a cache (`tutte --cache`), so a command that walks never compiles
this module. tutte.tutte_dc, which loads it at the first call, and
tutte.TutteCache and cli.FileTutteCache (PEP 562) name what it defines.
The closed form of a core of rank at most 2 is the walk's, looked up as
tutte._superset_counts at each call.

FileTutteCache names its files by the interpreter's built-in sha256
module, so hashlib and OpenSSL's _hashlib load only where that module is
missing, and reads and writes them with the JSON codec it is given (the
CLI's, which the json package does not run).
"""
from __future__ import annotations

import os

from . import tutte
from .errors import InternalInvariantViolation, InvalidInput, TooLarge
from .polynomials import BivariatePoly

# the built-in sha256 (_sha2 from 3.12, _sha256 before), not hashlib, which
# loads OpenSSL's _hashlib; both give the same digests
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class TutteCache:
    """In-memory memo table for tutte_dc keyed by Matroid.memo_key().

    Subclasses may persist entries; see FileTutteCache.
    """

    def __init__(self):
        self._mem = {}

    def get(self, key, matroid=None):
        """The memoized polynomial, or None. `matroid` is the matroid the
        key belongs to, so a persistent subclass can check what it reads."""
        return self._mem.get(key)

    def put(self, key, poly):
        self._mem[key] = poly


def tutte_dc(M, cache=None, max_nodes=tutte.DEFAULT_DC_NODES):
    """Tutte polynomial by deletion-contraction.

    Every node first peels all its loops and coloops at once,

        T(M) = x^#coloops y^#loops T(M \\ loops / coloops).

    The peeled core, if nonempty, has neither loops nor coloops. A core of
    rank at most 2 takes its polynomial from the sizes of its parallel
    classes (the corank-nullity counts of tutte._superset_counts, memoized
    by rank and sorted sizes for this call), with no memo key, no `cache`
    call and no count against `max_nodes`. Any other core is memoized
    under core.memo_key(), which equal labeled matroids share, and for
    graphs isomorphic ones (the Tutte polynomial is an isomorphism
    invariant), and branches on its largest element e,
    T(core) = T(core \\ e) + T(core / e). The choice is fixed,
    so the recursion tree and any persisted cache entries are reproducible.
    Deleting e from a core can make coloops but no loops, and contracting
    it loops but no coloops, so each child looks only for the kind it can
    have. More than `max_nodes` expanded cores (memo misses) raise
    TooLarge: 620 on the 6x17 GF(7) benchmark matrix, 48 on the 6 x 18
    Vandermonde matrix over Q, 80 on U(10,20), 81 on M(K7) and 187 on M(K8).
    """
    if cache is None:
        cache = TutteCache()
    expanded = 0
    small = {}  # (rank, sorted parallel-class sizes) -> T of a core of rank <= 2

    def dc(N, may_loop=True, may_coloop=True):
        nonlocal expanded
        loops = N.loops() if may_loop else frozenset()
        coloops = N.coloops() if may_coloop else frozenset()
        core = N.minor(deleted=loops, contracted=coloops) if loops or coloops else N
        if not core.size:
            return BivariatePoly.monomial(len(coloops), len(loops))
        if core.r <= 2:
            shape = (core.r, tuple(sorted(map(len, core.parallel_classes()))))
            if shape not in small:
                counts = tutte._superset_counts(core.r, 0, core.size, shape[1])
                small[shape] = tutte.tutte_from_counts(dict(counts))
            return small[shape].shift(len(coloops), len(loops))
        key = core.memo_key()
        poly = cache.get(key, core)
        if poly is None:
            expanded += 1
            if expanded > max_nodes:
                raise TooLarge(f"deletion-contraction needs more than {max_nodes} nodes (the budget)")
            e = max(core.elements)
            poly = dc(core.delete({e}), may_loop=False) + dc(core.contract({e}), may_coloop=False)
            cache.put(key, poly)
        return poly.shift(len(coloops), len(loops))

    return dc(M)


class FileTutteCache(TutteCache):
    """Tutte memo table persisted as one JSON file per memo key, read and
    written by `loads` and `dumps` (json.loads and json.dumps, or the
    CLI's equivalents).

    Filenames are content-addressed (sha256 of Matroid.memo_key()), so
    unrelated matroids never collide, and a warm run over entries this
    class wrote is byte-identical to a cold one. A directory written under
    an older key scheme is simply cold. An entry read from disk is used
    only if it parses, passes tutte.check_tutte for the matroid being
    looked up, and has T(1,1) = #bases (Matroid.basis_count, which
    enumerates no bases of a graph, a uniform matroid or a basis list);
    otherwise it counts as a miss and the recomputed entry replaces it.
    That rejects every corrupt entry, and on a graph of rank at most
    tutte.GREENE_RANK_LIMIT every crafted one that breaks Greene's
    identity, such as T + x - y, which keeps T(1,1), T(2,2) and the
    degrees. Elsewhere a polynomial that keeps those values but is not T
    is used as it is (a complete check costs as much as computing T).
    An entry is written to <name>.<pid>.tmp beside it and renamed into
    place, so a reader never sees a partial file.
    """

    def __init__(self, directory, loads, dumps):
        super().__init__()
        self.directory = directory
        self._loads, self._dumps = loads, dumps
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise InvalidInput(f"cannot use {directory} as a cache directory: {exc}") from exc

    def _path(self, key):
        return os.path.join(self.directory, sha256(key).hexdigest() + ".json")

    def get(self, key, matroid=None):
        hit = super().get(key)
        if hit is not None or matroid is None:  # a disk entry needs the matroid
            return hit
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                poly = BivariatePoly.from_json(self._loads(fh.read()))
        except (OSError, ValueError, InvalidInput):
            return None
        try:
            tutte.check_tutte(matroid, poly)
        except InternalInvariantViolation:
            return None
        if poly.evaluate(1, 1) != matroid.basis_count():
            return None
        super().put(key, poly)
        return poly

    def put(self, key, poly):
        super().put(key, poly)
        path = self._path(key)
        tmp = f"{path}.{os.getpid()}.tmp"
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        try:
            fd = os.open(tmp, flags, 0o600)
        except FileExistsError:  # left by a killed process that had this pid
            os.unlink(tmp)
            fd = os.open(tmp, flags, 0o600)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(self._dumps(poly.to_json()))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
