"""Triangular algebras: constructors, Peirce structure, center maps, hypotheses.

A triangular algebra here is a FiniteAlgebra together with an idempotent e
such that f·T·e = 0 for f = 1 - e, the off-diagonal corner M = eTf is nonzero
and faithful on both sides, and every basis element lies in exactly one
Peirce component (all constructors produce such bases; loading validates it).
The three example families are upper triangular matrices T_n (the block
upper triangular algebra with n blocks of size 1), block upper triangular
matrices, and incidence algebras of finite posets.  All three are spanned by
matrix units at a set of positions closed under composition, split by a sum
of diagonal units, and built by one matrix-unit builder.
"""

import random

from .algebra import (Element, FiniteAlgebra, MixedAlgebras, _brackets, _cached, _combine,
                      _generators, _integer_table, _times_basis, center_basis, is_commutative,
                      multiply)
from .linalg import RowReducer, SpanChecker, _sparse, nullspace_from_reducer, reduce_rows


class ConstructionError(ValueError):
    """A constructor input cannot yield a valid triangular algebra."""


class BadSplit(ConstructionError):
    pass


class SingleBlock(ConstructionError):
    pass


class Disconnected(ConstructionError):
    pass


class NotInProjection(Exception):
    """The element is not the A-part (resp. B-part) of any central element."""


class Poset:
    """Finite poset on {1..size}, stored as the full reflexive order relation."""

    __slots__ = ("size", "relation")

    def __init__(self, size, covers):
        if size <= 0:
            raise ValueError("poset size must be positive")
        self.size = size
        rel = [[False] * (size + 1) for _ in range(size + 1)]
        for x in range(1, size + 1):
            rel[x][x] = True
        for (x, y) in covers:
            if not (1 <= x <= size and 1 <= y <= size):
                raise ValueError(f"relation ({x},{y}) out of range")
            rel[x][y] = True
        # reflexive-transitive closure (Warshall)
        for k in range(1, size + 1):
            rk = rel[k]
            for x in range(1, size + 1):
                if rel[x][k]:
                    rx = rel[x]
                    for y in range(1, size + 1):
                        if rk[y]:
                            rx[y] = True
        for x in range(1, size + 1):
            for y in range(x + 1, size + 1):
                if rel[x][y] and rel[y][x]:
                    raise ValueError(f"not antisymmetric: {x} and {y} lie on a cycle")
        self.relation = rel

    def leq(self, x, y):
        return self.relation[x][y]

    def pairs(self):
        """All (x, y) with x <= y, in lexicographic order."""
        return [(x, y) for x in range(1, self.size + 1)
                for y in range(1, self.size + 1) if self.relation[x][y]]

    def is_connected(self):
        seen = {1}
        stack = [1]
        while stack:
            x = stack.pop()
            for y in range(1, self.size + 1):
                if y not in seen and (self.relation[x][y] or self.relation[y][x]):
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.size

    def is_downset(self, s):
        return all(x in s for y in s for x in range(1, self.size + 1) if self.relation[x][y])


class TriangularAlgebra:
    """A FiniteAlgebra with a distinguished splitting idempotent.

    Validates on construction: e idempotent, fTe = 0, basis homogeneous with
    respect to the Peirce decomposition, M nonzero and faithful on both
    sides.  The split reads sparse rows of e·b_i and b_i·e off the product
    table, once per basis element, instead of taking dense products.  The
    center, from the integer bracket table, is computed eagerly.  What
    depends on the triangular structure alone (the corner algebras, the
    bimodule hom basis, the central systems of tau, tau_inv, lambda0 and
    alpha0, all built by _center_system) is built on first use into _cache
    through algebra._cached; all queries are pure.  Every query taking an
    Element raises MixedAlgebras on one of another algebra.
    """

    __slots__ = ("alg", "e", "f", "a_indices", "m_indices", "b_indices",
                 "diag_indices", "center", "_center_span", "_cache")

    def __init__(self, alg, e, diag_indices=None):
        if not isinstance(e, Element) or e.algebra is not alg:
            raise ValueError("e must be an element of the given algebra")
        self.alg = alg
        if multiply(e, e) != e:
            raise ValueError("e is not idempotent")
        f = alg.unit_element() - e
        self.e = e
        self.f = f
        # e·b_i, b_i·e and (e·b_i)·e as sparse rows; the validated unit
        # law gives the other corners through f = 1 - e:
        # f·b_i·e = b_i·e - e·b_i·e, e·b_i·f = e·b_i - e·b_i·e and
        # f·b_i·f = b_i - e·b_i - b_i·e + e·b_i·e
        left = _times_basis(alg, e.coords, True)
        right = _times_basis(alg, e.coords, False)
        a_idx, m_idx, b_idx = [], [], []
        for i in range(alg.dim):
            bi = {i: 1}
            a = _combine([(c, right[k]) for k, c in left[i].items()])
            if _combine([(1, right[i]), (-1, a)]):
                raise ValueError(f"f·T·e is nonzero at basis element {i}")
            m = _combine([(1, left[i]), (-1, a)])
            b = _combine([(1, bi), (-1, left[i]), (-1, right[i]), (1, a)])
            if a == bi and not m and not b:
                a_idx.append(i)
            elif m == bi and not a and not b:
                m_idx.append(i)
            elif b == bi and not a and not m:
                b_idx.append(i)
            else:
                raise ValueError(f"basis element {i} is not Peirce-homogeneous")
        if not m_idx:
            raise BadSplit("the bimodule eTf is zero")
        self.a_indices = tuple(a_idx)
        self.m_indices = tuple(m_idx)
        self.b_indices = tuple(b_idx)
        self.diag_indices = tuple(diag_indices) if diag_indices is not None else None
        self._check_faithful()
        self.center = tuple(center_basis(alg))
        self._center_span = SpanChecker([z.coords for z in self.center], alg.dim)
        self._cache = {}

    def _check_faithful(self):
        # a ∈ A with a·M = 0 forces a = 0, and M·b = 0 forces b = 0: each
        # actor's action on the eTf basis, as one integer row over the
        # (u, o) coordinates, so the split is faithful iff the rows are
        # independent, the rank the number of actors
        mul = self.alg._mul_basis
        dm = len(self.m_indices)
        pos = {g: u for u, g in enumerate(self.m_indices)}
        for side, actors, error in (
                ("left", self.a_indices, "bimodule not faithful: some a in A kills eTf"),
                ("right", self.b_indices, "bimodule not faithful: some b in B kills eTf")):
            red = RowReducer(dm * dm)
            for g in actors:
                red.add_fraction_row({u * dm + pos[k]: v for u, gu in enumerate(self.m_indices)
                                      for k, v in (mul(g, gu) if side == "left" else mul(gu, g)).items()})
            if len(red.pivrows) != len(actors):
                raise BadSplit(error)

    # -- Peirce structure ------------------------------------------------

    def _check(self, x):
        if x.algebra is not self.alg:
            raise MixedAlgebras("operands from different algebras")

    def _restrict(self, x, indices):
        self._check(x)
        return _element(self.alg, {i: x.coords[i] for i in indices})

    def proj_a(self, x):
        return self._restrict(x, self.a_indices)

    def proj_m(self, x):
        return self._restrict(x, self.m_indices)

    def proj_b(self, x):
        return self._restrict(x, self.b_indices)

    def is_central(self, x):
        self._check(x)
        return self._center_span.contains(x.coords)

    def corner(self, side):
        """The corner subalgebra as its own FiniteAlgebra.

        Returns (algebra, global_indices); side is "a" or "b".  Products of
        corner basis elements stay in the corner, so the structure constants
        restrict directly.  Built once per side; the corner keeps its own
        table cache.
        """
        return _cached(self, ("corner", side), lambda t: _corner_algebra(t, side))

    def trace_functional(self):
        """Coordinate functional summing the diagonal-unit coefficients.

        Only available on algebras built by the constructors in this module,
        which record their diagonal basis indices.  Vanishes on commutators.
        """
        if self.diag_indices is None:
            raise ValueError("no diagonal data recorded for this algebra")
        g = [0] * self.alg.dim
        for i in self.diag_indices:
            g[i] = 1
        return tuple(g)


def _corner_algebra(t, side):
    glob = t.a_indices if side == "a" else t.b_indices
    unit_el = t.e if side == "a" else t.f
    pos = {g: i for i, g in enumerate(glob)}
    structure = {}
    for a, ga in enumerate(glob):
        for b, gb in enumerate(glob):
            for k, v in t.alg._mul_basis(ga, gb).items():
                structure[(a, b, pos[k])] = v
    unit = [unit_el.coords[g] for g in glob]
    labels = [t.alg.basis_labels[g] for g in glob]
    return FiniteAlgebra(len(glob), labels, structure, unit), glob


def _element(alg, row):
    return Element(alg, [row.get(k, 0) for k in range(alg.dim)])


def peirce(t, x):
    """Split x into its (eTe, eTf, fTf) components; they sum back to x."""
    return t.proj_a(x), t.proj_m(x), t.proj_b(x)


def _central_system(columns):
    """The system sum_s c_s*columns[s] = target over sparse {key: value}
    columns, factored once: (columns, pivots, keys, inverse).

    pivots are the columns independent of the earlier ones, the pivot
    columns of the system's reduced echelon form.  keys are the first
    keys, in sorted order, at which the pivot columns' entries form an
    invertible square matrix, and inverse is that matrix's inverse, one
    row per pivot column."""
    keys = sorted(set().union(*columns))
    index = {key: n for n, key in enumerate(keys)}
    red = RowReducer(len(keys))
    pivots = [s for s, col in enumerate(columns)
              if red.add_fraction_row({index[key]: v for key, v in col.items()}) is not None]
    # rows [M[key, pivots] | unit row n] at the keys that add rank; their
    # reduced echelon form is [I | inverse]
    npiv = len(pivots)
    square = RowReducer(2 * npiv)
    chosen = []
    for key in keys:
        if len(chosen) == npiv:
            break
        row = {n: columns[s][key] for n, s in enumerate(pivots) if key in columns[s]}
        # independent of the rows chosen so far iff a pivot column survives
        if min(square.reduce_only(square.integer_row(row)), default=npiv) < npiv:
            row[npiv + len(chosen)] = 1
            square.add_fraction_row(row)
            chosen.append(key)
    inverse = [[row.get(npiv + m, 0) for m in range(npiv)] for row in square.echelon_rows()]
    return columns, pivots, chosen, inverse


def _center_system(t, rows):
    """The _central_system of the central z with prescribed products z*row:
    the column of center basis element z_s holds z_s*row at (key, o), for
    each (key, row) of sparse rows.  For central z, z*pi_M(x) = pi_M(z*x),
    z*m = pi_A(z)*m for m in eTf, z*e = pi_A(z) and z*f = pi_B(z), so the
    lambda0, alpha0, tau and tau_inv systems differ only in their rows."""
    columns = []
    for z in t.center:
        zb = _times_basis(t.alg, z.coords, True)
        columns.append({(key, o): c for key, row in rows
                        for o, c in _combine([(v, zb[p]) for p, v in row.items()]).items()})
    return _central_system(columns)


def _central_solution(t, system, target):
    """z = sum_s c_s*z_s over the center basis, as a sparse row, for the
    canonical solution c of a _central_system with one column per center
    basis element, as _center_system builds it, and right-hand side target
    ({key: nonzero value}), free coefficients zero, as linalg.solve gives
    it; None if there is none.

    The pivot coefficients are the inverse times the target at the
    system's keys.  They solve the system iff the sum they make equals the
    target at the target's keys and at those of the columns they use;
    everywhere else both sides vanish.
    """
    columns, pivots, keys, inverse = system
    rhs = [target.get(key, 0) for key in keys]
    coeffs = [sum(a * b for a, b in zip(row, rhs)) for row in inverse]
    used = [(c, s) for c, s in zip(coeffs, pivots) if c]
    if _combine([(c, columns[s]) for c, s in used]) != target:
        return None
    return _combine([(c, _sparse(t.center[s].coords)) for c, s in used])


def _central_part(t, row, side):
    """The central z, a sparse row, with A-part (side 'a') or B-part ('b')
    row, or None: the solve of z*e = row (resp. z*f = row)."""
    system = _cached(t, ("tau", side), lambda t: _center_system(
        t, [(side, _sparse((t.e if side == "a" else t.f).coords))]))
    return _central_solution(t, system, {(side, k): v for k, v in row.items()})


def _central_part_map(t, a, side):
    """Solve for the central z with given A-part (side 'a') or B-part ('b'),
    and return its other part."""
    t._check(a)
    indices, other = (t.a_indices, t.b_indices) if side == "a" else (t.b_indices, t.a_indices)
    for i, c in enumerate(a.coords):
        if c != 0 and i not in indices:
            raise NotInProjection("element does not lie in the corner")
    z = _central_part(t, _sparse(a.coords), side)
    if z is None:
        raise NotInProjection("element is not the corner part of any central element")
    return _element(t.alg, {k: z[k] for k in other if k in z})


def tau(t, a):
    """The central isomorphism: the unique b with a·m = m·b for all m in eTf.

    Defined exactly on the A-projection of the center; raises NotInProjection
    outside it.  Its inverse is tau_inv.
    """
    return _central_part_map(t, a, "a")


def tau_inv(t, b):
    """Inverse of tau: the unique a with a·m = m·b for all m, given b."""
    return _central_part_map(t, b, "b")


def _action(t, tab, g, left):
    """m_v → b_g·m_v (left) or m_v·b_g, read from the integer product
    table tab: one {u: p} per v, the image's coordinates over the eTf
    basis m_u."""
    pos = {gu: u for u, gu in enumerate(t.m_indices)}
    return [{pos[k]: p for k, p in tab.get((g, gv) if left else (gv, g), {}).items()}
            for gv in t.m_indices]


def bimodule_hom_basis(t):
    """Canonical basis of the (A,B)-bimodule endomorphisms of eTf.

    A hom is a dm×dm matrix H over the eTf basis, h(m_j) = Σ_i H[i][j] m_i,
    commuting with the left A-action and the right B-action.  The system
    is built from the sparse integer product table, one row per actor, j
    and output coordinate, with the generators of each corner as the
    actors (see _hom_rows), and reduced through linalg.reduce_rows as it
    is.  Returned as
    tuples of row tuples, one per basis hom, in the canonical nullspace
    order of the flattened (i, j) unknowns.
    """
    return list(_cached(t, "homs", _bimodule_homs))


def _bimodule_homs(t):
    dm = len(t.m_indices)
    red = reduce_rows(_hom_rows(t), dm * dm)
    return tuple(tuple(tuple(vec[i * dm + j] for j in range(dm)) for i in range(dm))
                 for vec in nullspace_from_reducer(red, dm * dm))


def _hom_rows(t):
    """The rows of the bimodule hom system: h(a·m_j) = a·h(m_j) and
    h(m_j·b) = h(m_j)·b, one row per (actor, j, o) over the unknowns
    H[i][j] at i·dm + j, on the integer product table (every term carries
    one table factor, so the kernel is unchanged).

    The actors are the _generators of each corner's own product table
    only.  The a in A with h(a·m) = a·h(m) for every m form a subalgebra,
    since h(a·a'·m) = a·h(a'·m) = a·a'·h(m), and so do the b in B with
    h(m·b) = h(m)·b; a subalgebra that holds a generating set is the whole
    corner, so the generators' rows span those of every actor."""
    dm = len(t.m_indices)
    tab = _integer_table(t.alg._prod)
    for left, side in ((True, "a"), (False, "b")):
        corner, glob = t.corner(side)
        for g in _generators(corner._prod, corner.dim):
            image = _action(t, tab, glob[g], left)
            into = [[] for _ in range(dm)]  # into[o] = [(u, p)]: the image of m_u is p at m_o
            for u, im in enumerate(image):
                for o, p in im.items():
                    into[o].append((u, p))
            for j in range(dm):
                for o in range(dm):
                    row = {o * dm + u: p for u, p in image[j].items()}
                    for u, p in into[o]:
                        row[u * dm + j] = row.get(u * dm + j, 0) - p
                    row = {col: v for col, v in row.items() if v}
                    if row:
                        yield row


def _standard_form_generators(t):
    """m → a₀m and m → mb₀ over the corner-center bases, each as the
    {u·dm + v: c} entries of its matrix (m_v goes to Σ_u c·m_u), from the
    product table."""
    dm = len(t.m_indices)
    pos = {g: u for u, g in enumerate(t.m_indices)}
    gens = []
    for side in ("a", "b"):
        corner, glob = t.corner(side)
        for z in center_basis(corner):
            x = [0] * t.alg.dim
            for j, c in enumerate(z.coords):
                x[glob[j]] = c
            rows = _times_basis(t.alg, x, side == "a")
            gens.append({pos[k] * dm + v: p for v, g in enumerate(t.m_indices)
                         for k, p in rows[g].items()})
    return gens


def _spans_equal(first, second, ncols):
    """(equal, rank of first, rank of second) for the spans of two lists of
    vectors, coordinate sequences or sparse dicts: the spans are equal iff
    they have one rank and the first holds every vector of the second."""
    span, other = SpanChecker(first, ncols), SpanChecker(second, ncols)
    return (span.rank == other.rank and all(span.contains(v) for v in second),
            span.rank, other.rank)


def standard_form_check(t):
    """True iff every bimodule hom has the form m → a₀m + mb₀ with central a₀, b₀."""
    dm = len(t.m_indices)
    homs = [tuple(x for row in h for x in row) for h in bimodule_hom_basis(t)]
    return _spans_equal(homs, _standard_form_generators(t), dm * dm)[0]


def hypothesis_report(t):
    """Check the four structural conditions the decomposition relies on."""
    details = {}
    corner_a, glob_a = t.corner("a")
    corner_b, glob_b = t.corner("b")

    # (i) both center projections surject onto the corner centers
    (eq_a, dim_pa, dim_za), (eq_b, dim_pb, dim_zb) = (
        _spans_equal([tuple(z.coords[g] for g in glob) for z in t.center],
                     [z.coords for z in center_basis(corner)], len(glob))
        for corner, glob in ((corner_a, glob_a), (corner_b, glob_b)))
    cond_i = eq_a and eq_b
    details["cond_i"] = {
        "pi_a_center_dim": dim_pa, "center_of_a_dim": dim_za, "a_equal": eq_a,
        "pi_b_center_dim": dim_pb, "center_of_b_dim": dim_zb, "b_equal": eq_b,
    }

    comm_a = is_commutative(corner_a)
    comm_b = is_commutative(corner_b)
    cond_ii = not (comm_a and comm_b)
    # the first nonzero [b_i, b_j] of a corner, in lexicographic order
    witness = next(([side, i, j] for corner, side in ((corner_a, "a"), (corner_b, "b"))
                    for i, j in _brackets(corner)), None)
    details["cond_ii"] = {"a_commutative": comm_a, "b_commutative": comm_b,
                          "witness": witness}

    za = center_basis(corner_a)
    cond_iii = standard_form_check(t)
    details["cond_iii"] = {
        "hom_dim": len(bimodule_hom_basis(t)),
        "standard_generator_count": len(za) + len(center_basis(corner_b)),
        "equal_spans": cond_iii,
    }

    if len(za) == 1:
        # Z(A) = Q·1, so αa = 0 with a ≠ 0 forces the scalar α to vanish
        cond_iv = "holds"
        details["cond_iv"] = {"branch": "scalar-center", "center_dim": 1}
    else:
        cond_iv = "inconclusive"
        rnd = random.Random(3517)
        found = None
        probes = 32
        for _ in range(probes):
            coeffs = [0] * len(za)
            while all(c == 0 for c in coeffs):
                coeffs = [rnd.randint(-9, 9) for _ in za]
            alpha = corner_a.zero()
            for c, z in zip(coeffs, za):
                alpha = alpha + z.scale(c)
            # the kernel of x → alpha·x on the corner, one row per output
            # coordinate k
            rows = {}
            for j, col in enumerate(_times_basis(corner_a, alpha.coords, True)):
                for k, v in col.items():
                    rows.setdefault(k, {})[j] = v
            red = RowReducer(corner_a.dim)
            for k in sorted(rows):
                red.add_fraction_row(rows[k])
            kern = nullspace_from_reducer(red, corner_a.dim)
            if kern:
                found = {"alpha": [str(c) for c in alpha.coords],
                         "kernel_vector": [str(c) for c in kern[0]]}
                break
        details["cond_iv"] = {"branch": "randomized", "center_dim": len(za),
                              "probes": probes, "witness": found}
    return HypothesisReport(cond_i, cond_ii, cond_iii, cond_iv, details)


class HypothesisReport:

    __slots__ = ("cond_i", "cond_ii", "cond_iii", "cond_iv", "details")

    def __init__(self, cond_i, cond_ii, cond_iii, cond_iv, details):
        self.cond_i = cond_i
        self.cond_ii = cond_ii
        self.cond_iii = cond_iii
        self.cond_iv = cond_iv
        self.details = details

    def all_pass(self):
        return self.cond_i and self.cond_ii and self.cond_iii and self.cond_iv == "holds"

    def __repr__(self):
        return (f"HypothesisReport(i={self.cond_i}, ii={self.cond_ii}, "
                f"iii={self.cond_iii}, iv={self.cond_iv})")


# -- constructors ---------------------------------------------------------


def _matrix_units(positions, labels, points, split):
    """Triangular algebra spanned by the matrix units E_pq at positions.

    The positions must be closed under composition and hold (p, p) for every
    p in points: E_pq·E_rs = δ_qr·E_ps, the unit is Σ_{p in points} E_pp,
    e = Σ_{p in split} E_pp, and the diagonal indices follow points.
    """
    index = {pq: i for i, pq in enumerate(positions)}
    structure = {(i, j, index[(p, s)]): 1
                 for i, (p, q) in enumerate(positions)
                 for j, (r, s) in enumerate(positions) if q == r}
    diag = [index[(p, p)] for p in points]
    unit = [0] * len(positions)
    e = [0] * len(positions)
    for i in diag:
        unit[i] = 1
    for p in split:
        e[index[(p, p)]] = 1
    alg = FiniteAlgebra(len(positions), labels, structure, unit)
    return TriangularAlgebra(alg, Element(alg, e), diag_indices=diag)


def upper_triangular(n, k):
    """T_n(Q) split at row k, the block algebra of n 1×1 blocks: e = E_11 + ... + E_kk."""
    if n < 2:
        raise BadSplit("n must be at least 2")
    if not 1 <= k <= n - 1:
        raise BadSplit(f"split k={k} out of range 1..{n - 1}")
    return block_upper_triangular([1] * n, k)


def block_upper_triangular(dims, j):
    """Block upper triangular algebra for the given block sizes, split after block j."""
    dims = list(dims)
    if len(dims) == 1:
        raise SingleBlock("a single block is a full matrix algebra, not triangular")
    if not dims or any(d < 1 for d in dims):
        raise BadSplit("block sizes must be positive")
    if not 1 <= j <= len(dims) - 1:
        raise BadSplit(f"split j={j} out of range 1..{len(dims) - 1}")
    n = sum(dims)
    block_of = []
    for bi, d in enumerate(dims):
        block_of.extend([bi] * d)
    positions = [(p, q) for p in range(n) for q in range(n)
                 if block_of[p] <= block_of[q]]
    sep = "," if n > 9 else ""
    labels = [f"E{p + 1}{sep}{q + 1}" for (p, q) in positions]
    return _matrix_units(positions, labels, range(n), range(sum(dims[:j])))


def incidence_algebra(p, downset):
    """Incidence algebra of a connected poset, split by a proper downset.

    Basis ε_xy for x <= y in lexicographic order, ε_xy·ε_zu = δ_yz·ε_xu,
    e = Σ_{x in downset} ε_xx.  The crossing bimodule is never zero (the
    poset is connected, so some x < y has x in the downset and y outside
    it); it must be faithful, otherwise the downset is rejected.
    """
    if not p.is_connected():
        raise Disconnected("poset comparability graph is not connected")
    s = set(downset)
    if not s or s == set(range(1, p.size + 1)):
        raise BadSplit("downset must be nonempty and proper")
    if not s.issubset(range(1, p.size + 1)):
        raise BadSplit("downset contains elements outside the poset")
    if not p.is_downset(s):
        raise BadSplit("split set is not a downset")
    pairs = p.pairs()
    labels = [f"e{x}_{y}" for (x, y) in pairs]
    return _matrix_units(pairs, labels, range(1, p.size + 1), s)
