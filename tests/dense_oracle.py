"""Dense reference solver and decomposition for the bilinear-map laws.

Everything here works on full dense rows over all dim**3 tensor coordinates
and reduces them with a from-scratch Gauss elimination.  The rows are
assembled by evaluating products of basis elements through the public
algebra operations, not by reusing any table inside the library, so a bug
in the production solver and a bug here would have to agree by accident.
The same holds for decompose(), verify_decomposition() and law_witness()
below: they evaluate every bracket and product as Element arithmetic and
never touch the library's cached decomposition tables.
validate(), peirce_split() and center() are the references for algebra
construction: the unit and associativity checks on every basis triple from
a table built here out of the raw structure constants, and the Peirce split,
faithfulness and center from Element arithmetic.
bimodule_homs(), standard_form_generators() and standard_form_check() are
the references for hypothesis cond_iii: dense action matrices from Element
arithmetic, their kernel and the corner centers by dense elimination.
lemma_suite() is the reference for the Lemma 3.3-3.7 checks: every value
by bilinear extension, every product as Element arithmetic, and alpha0
and tau_inv solved through linalg.solve, as decompose() solves lambda0.
It keeps check 3.4's separate antisymmetry witness, which the library
leaves out as implied by the relations it tests.
Slow on purpose; meant for cross-checking on small algebras.
"""

from fractions import Fraction
from math import gcd

from liebider import (BilinearMap, Decomposition, Inconsistent, MapLaw,
                      NoCentralLambda, NotLieBider, ResidualNotCentral,
                      SparseMatrix, law_residual, lie_bracket, multiply,
                      solve)


# -- algebra construction ------------------------------------------------------

def _dense_table(structure):
    table = {}
    for i, j, k, v in structure:
        if v:
            table.setdefault((i, j), {})[k] = Fraction(v)
    return table


def associativity_failures(dim, structure):
    """Every basis triple (i, j, l) with (b_i b_j) b_l != b_i (b_j b_l), in
    lexicographic order, from all dim**3 triples in Fraction arithmetic."""
    table = _dense_table(structure)

    def mul(i, j):
        return table.get((i, j), {})

    for i in range(dim):
        for j in range(dim):
            ij = mul(i, j)
            for l in range(dim):
                lhs = {}
                for k, v in ij.items():
                    for m, w in mul(k, l).items():
                        lhs[m] = lhs.get(m, 0) + v * w
                rhs = {}
                for k, v in mul(j, l).items():
                    for m, w in mul(i, k).items():
                        rhs[m] = rhs.get(m, 0) + v * w
                if {m: v for m, v in lhs.items() if v} != {m: v for m, v in rhs.items() if v}:
                    yield i, j, l


def validate(dim, structure, unit):
    """Reference for FiniteAlgebra's unit and associativity checks.

    structure is a list of (i, j, k, value).  The unit law runs first, on
    every basis vector, then associativity on all dim**3 basis triples in
    lexicographic order, in Fraction arithmetic.  Raises ValueError with
    the library's message at the first failure.
    """
    table = _dense_table(structure)

    def mul(i, j):
        return table.get((i, j), {})

    unit = [Fraction(u) for u in unit]
    for i in range(dim):
        left = {}
        right = {}
        for j, u in enumerate(unit):
            if u == 0:
                continue
            for k, v in mul(j, i).items():
                left[k] = left.get(k, 0) + u * v
            for k, v in mul(i, j).items():
                right[k] = right.get(k, 0) + u * v
        want = {i: Fraction(1)}
        if {k: v for k, v in left.items() if v} != want:
            raise ValueError(f"unit fails on the left at basis {i}")
        if {k: v for k, v in right.items() if v} != want:
            raise ValueError(f"unit fails on the right at basis {i}")
    for i, j, l in associativity_failures(dim, structure):
        raise ValueError(f"not associative at basis triple ({i},{j},{l})")


def _kills(alg, actors, m_idx, side):
    """True if some nonzero combination of the actors annihilates every
    m_idx basis element, acting on the left or on the right."""
    basis = alg.basis()
    rows = []
    for m in m_idx:
        cols = [(multiply(basis[a], basis[m]) if side == "left"
                 else multiply(basis[m], basis[a])).coords for a in actors]
        rows.extend([col[o] for col in cols] for o in range(alg.dim))
    return bool(dense_kernel(int_rows(rows), len(actors)))


def peirce_split(alg, e):
    """Reference for TriangularAlgebra's checks: e idempotent, f·T·e = 0,
    every basis element in one Peirce component, eTf nonzero and faithful
    on both sides.  Returns (a_indices, m_indices, b_indices) or raises
    ValueError with the library's message."""
    if multiply(e, e) != e:
        raise ValueError("e is not idempotent")
    f = alg.unit_element() - e
    a_idx, m_idx, b_idx = [], [], []
    for i in range(alg.dim):
        bi = alg.basis_element(i)
        if not multiply(multiply(f, bi), e).is_zero():
            raise ValueError(f"f·T·e is nonzero at basis element {i}")
        a = multiply(multiply(e, bi), e)
        m = multiply(multiply(e, bi), f)
        b = multiply(multiply(f, bi), f)
        if a == bi and m.is_zero() and b.is_zero():
            a_idx.append(i)
        elif m == bi and a.is_zero() and b.is_zero():
            m_idx.append(i)
        elif b == bi and a.is_zero() and m.is_zero():
            b_idx.append(i)
        else:
            raise ValueError(f"basis element {i} is not Peirce-homogeneous")
    if not m_idx:
        raise ValueError("the bimodule eTf is zero")
    if _kills(alg, a_idx, m_idx, "left"):
        raise ValueError("bimodule not faithful: some a in A kills eTf")
    if _kills(alg, b_idx, m_idx, "right"):
        raise ValueError("bimodule not faithful: some b in B kills eTf")
    return tuple(a_idx), tuple(m_idx), tuple(b_idx)


def center(alg):
    """Canonical basis of the center, as coordinate tuples: the kernel of
    z -> ([z, b_i])_i, brackets from Element arithmetic."""
    basis = alg.basis()
    rows = []
    for bi in basis:
        cols = [lie_bracket(bj, bi).coords for bj in basis]
        rows.extend([col[k] for col in cols] for k in range(alg.dim))
    return dense_kernel(int_rows(rows), alg.dim)


# -- bimodule homs (hypothesis cond_iii) ---------------------------------------

def action_matrix(t, g, side):
    """Matrix of m -> b_g·m (side 'left') or m -> m·b_g ('right') on the
    eTf coordinates, from Element arithmetic: column u is the image of m_u."""
    alg = t.alg
    basis = alg.basis()
    mat = [[Fraction(0)] * len(t.m_indices) for _ in t.m_indices]
    for u, gu in enumerate(t.m_indices):
        image = (multiply(basis[g], basis[gu]) if side == "left"
                 else multiply(basis[gu], basis[g]))
        for o, go in enumerate(t.m_indices):
            mat[o][u] = image.coords[go]
    return mat


def bimodule_homs(t):
    """Reference for bimodule_hom_basis: the canonical kernel of the dense
    system h(a·m_j) = a·h(m_j), h(m_j·b) = h(m_j)·b over the unknowns
    H[i][j] at i*dm + j, one row per (actor, j, o), as tuples of row
    tuples."""
    dm = len(t.m_indices)
    rows = []
    for side, actors in (("left", t.a_indices), ("right", t.b_indices)):
        for g in actors:
            p = action_matrix(t, g, side)
            for j in range(dm):
                for o in range(dm):
                    row = [Fraction(0)] * (dm * dm)
                    for u in range(dm):
                        row[o * dm + u] += p[u][j]
                        row[u * dm + j] -= p[o][u]
                    rows.append(row)
    return tuple(tuple(tuple(vec[i * dm + j] for j in range(dm)) for i in range(dm))
                 for vec in dense_kernel(int_rows(rows), dm * dm))


def corner_center(t, side):
    """Canonical basis of the center of the corner eTe (side 'a') or fTf
    ('b'), over the corner's own coordinates, from Element arithmetic."""
    glob = t.a_indices if side == "a" else t.b_indices
    basis = t.alg.basis()
    rows = []
    for h in glob:
        cols = [lie_bracket(basis[g], basis[h]).coords for g in glob]
        rows.extend([col[k] for col in cols] for k in glob)
    return dense_kernel(int_rows(rows), len(glob))


def standard_form_generators(t):
    """The flattened dm×dm matrices of m -> a0·m and m -> m·b0, a0 and b0
    over the corner-center bases, A's first."""
    dm = len(t.m_indices)
    gens = []
    for side, action in (("a", "left"), ("b", "right")):
        glob = t.a_indices if side == "a" else t.b_indices
        for z in corner_center(t, side):
            mat = [[Fraction(0)] * dm for _ in range(dm)]
            for j, c in enumerate(z):
                if c:
                    p = action_matrix(t, glob[j], action)
                    for u in range(dm):
                        for v in range(dm):
                            mat[u][v] += c * p[u][v]
            gens.append(tuple(x for row in mat for x in row))
    return gens


def spans_equal(vectors, others):
    """True iff two lists of dense vectors span the same space: both have
    the rank of the two together."""
    def rank(vecs):
        return len(dense_rref(int_rows(vecs)))
    return rank(vectors) == rank(others) == rank(list(vectors) + list(others))


def standard_form_check(t):
    """Reference for standard_form_check: the hom space equals the span of
    the standard-form generators."""
    homs = [tuple(x for row in h for x in row) for h in bimodule_homs(t)]
    return spans_equal(homs, standard_form_generators(t))


def law_rows(alg, law):
    """Dense constraint rows (lists of Fractions) for the law on alg."""
    dim = alg.dim
    basis = alg.basis()
    op = lie_bracket if law.lie else multiply
    prod = [[op(basis[i], basis[j]).coords for j in range(dim)]
            for i in range(dim)]
    ncols = dim ** 3
    first, second = law.slots
    rows = []

    def tcol(i, j, k):
        return (i * dim + j) * dim + k

    slots = ([True] if first else []) + ([False] if second else [])
    for first_slot in slots:
        for i in range(dim):
            for j in range(dim):
                for l in range(dim):
                    block = [[Fraction(0)] * ncols for _ in range(dim)]
                    if first_slot:
                        # phi(bi o bl, bj) - phi(bi,bj) o bl - bi o phi(bl,bj)
                        for p, c in enumerate(prod[i][l]):
                            if c:
                                for q in range(dim):
                                    block[q][tcol(p, j, q)] += c
                        for k in range(dim):
                            for q, c in enumerate(prod[k][l]):
                                if c:
                                    block[q][tcol(i, j, k)] -= c
                            for q, c in enumerate(prod[i][k]):
                                if c:
                                    block[q][tcol(l, j, k)] -= c
                    else:
                        # phi(bi, bj o bl) - phi(bi,bj) o bl - bj o phi(bi,bl)
                        for p, c in enumerate(prod[j][l]):
                            if c:
                                for q in range(dim):
                                    block[q][tcol(i, p, q)] += c
                        for k in range(dim):
                            for q, c in enumerate(prod[k][l]):
                                if c:
                                    block[q][tcol(i, j, k)] -= c
                            for q, c in enumerate(prod[j][k]):
                                if c:
                                    block[q][tcol(i, l, k)] -= c
                    rows.extend(block)
    return rows, ncols


def int_rows(rows):
    """Clear denominators row by row, dropping zero rows."""
    out = []
    for row in rows:
        den = 1
        for v in row:
            if v:
                den = den * v.denominator // gcd(den, v.denominator)
        r = [int(v * den) for v in row]
        if any(r):
            out.append(r)
    return out


def _norm(row):
    g = 0
    for v in row:
        g = gcd(g, v)
    piv = next(v for v in row if v)
    if piv < 0:
        g = -g
    return [v // g for v in row]


def dense_rref(rows):
    """Reduced echelon form of an integer row system.

    Plain incremental Gauss over dense integer lists, then a backward pass
    to reach reduced echelon form.  Returns (pivot column, row) pairs in
    pivot order, each row gcd-normalized with a positive pivot.
    """
    piv = []  # (pivot column, reduced integer row)
    for row in rows:
        row = list(row)
        for pc, pr in piv:
            rc = row[pc]
            if rc:
                pv = pr[pc]
                row = [pv * a - rc * b for a, b in zip(row, pr)]
        pc = next((c for c, v in enumerate(row) if v), None)
        if pc is not None:
            piv.append((pc, _norm(row)))
    piv.sort(key=lambda e: e[0])
    for idx in range(len(piv) - 1, -1, -1):
        pc, pr = piv[idx]
        pv = pr[pc]
        for jdx in range(idx):
            qc, qr = piv[jdx]
            rc = qr[pc]
            if rc:
                piv[jdx] = (qc, _norm([pv * a - rc * b for a, b in zip(qr, pr)]))
    return piv


def dense_kernel(rows, ncols):
    """Canonical kernel basis of an integer row system: one vector per
    free column of dense_rref(rows), with the free coordinate set to 1."""
    piv = dense_rref(rows)
    pivset = {pc for pc, _ in piv}
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, pr in piv:
            if pr[fc]:
                v[pc] = Fraction(-pr[fc], pr[pc])
        basis.append(tuple(v))
    return basis


def solve_law_dense(alg, law):
    """Kernel basis of the full dense system, canonical order."""
    rows, ncols = law_rows(alg, law)
    return dense_kernel(int_rows(rows), ncols)


def derivation_rows(alg, lie):
    """Dense rows of the single-argument derivation law over the dim**2
    unknowns d[a][k] (flat a*dim + k, with d(b_a) = sum_k d[a][k] b_k):
    for every basis pair (a, c), both orders and a == c included, and
    every output coordinate q, the q-th coordinate of
    d(b_a o b_c) - d(b_a) o b_c - b_a o d(b_c), o the bracket or the
    product."""
    dim = alg.dim
    basis = alg.basis()
    op = lie_bracket if lie else multiply
    prod = [[op(basis[i], basis[j]).coords for j in range(dim)]
            for i in range(dim)]
    rows = []
    for a in range(dim):
        for c in range(dim):
            block = [[Fraction(0)] * (dim * dim) for _ in range(dim)]
            for p, v in enumerate(prod[a][c]):
                if v:
                    for q in range(dim):
                        block[q][p * dim + q] += v
            for k in range(dim):
                for q, v in enumerate(prod[k][c]):
                    if v:
                        block[q][a * dim + k] -= v
                for q, v in enumerate(prod[a][k]):
                    if v:
                        block[q][c * dim + k] -= v
            rows.extend(block)
    return rows


def derivation_echelon(alg, lie):
    """Reference for the library's integer derivation echelon form, in its
    (zero, rows) format: zero[col] is 1 where a reduced row has its pivot
    as its only entry; rows are the other reduced rows, gcd-normalized, as
    (columns, values) pairs in pivot order."""
    ncols = alg.dim ** 2
    piv = dense_rref(int_rows(derivation_rows(alg, lie)))
    rows = [tuple(zip(*[(c, v) for c, v in enumerate(row) if v])) for _, row in piv]
    zero = {cols[0] for cols, _ in rows if len(cols) == 1}
    return (bytes(c in zero for c in range(ncols)),
            tuple(row for row in rows if len(row[0]) > 1))


def law_witness(phi):
    """First basis triple, in (i, j, l) order with slot 1 before slot 2,
    where a Lie-biderivation slot identity breaks, or None."""
    alg = phi.algebra
    basis = alg.basis()
    labels = alg.basis_labels
    for i in range(alg.dim):
        for j in range(alg.dim):
            for l in range(alg.dim):
                trip = (basis[i], basis[j], basis[l])
                r1, r2 = law_residual(phi, MapLaw.LIE_BIDER, trip)
                if not r1.is_zero():
                    return (1, (labels[i], labels[j], labels[l]), r1)
                if not r2.is_zero():
                    return (2, (labels[i], labels[j], labels[l]), r2)
    return None


def decompose(t, phi):
    """Reference (lambda0, r, mu) split, raising the library's exceptions.

    r = phi(e, e); lambda0 is the canonical central solution of the
    off-diagonal equations; mu is the residual, checked value by value."""
    witness = law_witness(phi)
    if witness is not None:
        raise NotLieBider(witness)
    alg = t.alg
    dim = alg.dim
    basis = alg.basis()
    r = phi(t.e, t.e)
    cen = t.center
    nc = len(cen)
    entries = []
    rhs = []
    nrow = 0
    brackets = {}
    for i in range(dim):
        for j in range(dim):
            br = lie_bracket(basis[i], basis[j])
            brackets[(i, j)] = br
            target = phi.value(i, j) - lie_bracket(basis[i], lie_bracket(basis[j], r))
            for o in t.m_indices:
                for s in range(nc):
                    c = multiply(cen[s], br).coords[o]
                    if c:
                        entries.append((nrow, s, c))
                rhs.append(target.coords[o])
                nrow += 1
    try:
        sol = solve(SparseMatrix(nrow, nc, entries), rhs)
    except Inconsistent as exc:
        raise NoCentralLambda("no central element matches the off-diagonal residual") from exc
    lambda0 = alg.zero()
    for s in range(nc):
        if sol[s]:
            lambda0 = lambda0 + cen[s].scale(sol[s])
    mu_items = []
    for i in range(dim):
        for j in range(dim):
            val = (phi.value(i, j)
                   - multiply(lambda0, brackets[(i, j)])
                   - lie_bracket(basis[i], lie_bracket(basis[j], r)))
            if val.is_zero():
                continue
            if not t.is_central(val):
                raise ResidualNotCentral((i, j, val))
            for k, v in enumerate(val.coords):
                if v:
                    mu_items.append((i, j, k, v))
    d = Decomposition(lambda0, r, BilinearMap(alg, mu_items))
    assert verify_decomposition(t, phi, d)
    return d


def verify_decomposition(t, phi, d):
    """Reference check of centrality and of the reconstruction
    phi(b_i,b_j) = lambda0*[b_i,b_j] + [b_i,[b_j,r]] + mu(b_i,b_j)."""
    alg = t.alg
    if not t.is_central(d.lambda0):
        return False
    basis = alg.basis()
    for i in range(alg.dim):
        for j in range(alg.dim):
            mv = d.mu.value(i, j)
            if not (mv.is_zero() or t.is_central(mv)):
                return False
            rebuilt = (multiply(d.lambda0, lie_bracket(basis[i], basis[j]))
                       + lie_bracket(basis[i], lie_bracket(basis[j], d.r))
                       + mv)
            if phi.value(i, j) != rebuilt:
                return False
    return True


# -- lemma suite -----------------------------------------------------------------

def _central_combination(t, gens, equations):
    """sum_s c_s*gens[s] for the canonical solution c of the equations,
    (coefficients by s, right-hand side) pairs, from linalg.solve; None if
    there is none."""
    entries = [(n, s, c) for n, (coeffs, _) in enumerate(equations)
               for s, c in enumerate(coeffs) if c]
    try:
        sol = solve(SparseMatrix(len(equations), len(gens), entries),
                    [rhs for _, rhs in equations])
    except Inconsistent:
        return None
    out = t.alg.zero()
    for s, c in enumerate(sol):
        if c:
            out = out + gens[s].scale(c)
    return out


def alpha0(t, phi):
    """The alpha0 in the center's A-projection with phi(e, m) = alpha0*m
    for every m in the off-diagonal block, or None."""
    alg = t.alg
    cen_a = [t.proj_a(z) for z in t.center]
    equations = []
    for u in t.m_indices:
        m = alg.basis_element(u)
        images = [multiply(za, m).coords for za in cen_a]
        target = phi(t.e, m).coords
        equations.extend(([im[o] for im in images], target[o]) for o in range(alg.dim))
    return _central_combination(t, cen_a, equations)


def tau_inv(t, b):
    """The A-part of the central element whose B-part is b, b in fTf, or
    None."""
    equations = [([z.coords[g] for z in t.center], b.coords[g]) for g in t.b_indices]
    return _central_combination(t, [t.proj_a(z) for z in t.center], equations)


def _sign(plus_all, minus_all):
    return {(True, True): "both", (True, False): "+1", (False, True): "-1"}.get(
        (plus_all, minus_all))


def lemma_suite(t, phi):
    """Reference for lemma_suite: its entries, in its order, each a dict
    with keys id, passed, witness and detail."""
    alg = t.alg
    labels = alg.basis_labels
    basis = alg.basis()
    e, f = t.e, t.f
    one = alg.unit_element()
    zero = alg.zero()
    pee = phi(e, e)
    pff = phi(f, f)
    a_els = [(labels[g], basis[g]) for g in t.a_indices]
    m_els = [(labels[g], basis[g]) for g in t.m_indices]
    b_els = [(labels[g], basis[g]) for g in t.b_indices]
    entries = []

    def record(cid, witness, detail=None, passed=None):
        entries.append({"id": cid, "passed": witness is None if passed is None else passed,
                        "witness": witness, "detail": detail or {}})

    def first(cases):
        """The witness of the first failing case, or None."""
        return next((wit for wit in cases if wit is not None), None)

    record("3.3.1", first(
        {"basis": tag, "residual": v}
        for lb, x in zip(labels, basis)
        for (u, w), tag in (((zero, x), ("0", lb)), ((x, zero), (lb, "0")))
        for v in [phi(u, w)] if not v.is_zero()))

    record("3.3.2", first(
        {"basis": tag, "residual": v}
        for lb, x in zip(labels, basis)
        for (u, w), tag in (((one, x), ("1", lb)), ((x, one), (lb, "1")))
        for v in [phi(u, w)] if not (t.is_central(v) and t.proj_m(v).is_zero())))

    c_ee = t.proj_m(pee)
    record("3.3.3", first(
        {"basis": ("e", "e") + tag, "residual": diff}
        for other, sign, tag in ((phi(f, e), -1, ("f", "e")), (phi(e, f), -1, ("e", "f")),
                                 (pff, 1, ("f", "f")))
        for diff in [c_ee - t.proj_m(other).scale(sign)] if not diff.is_zero()))

    a0 = alpha0(t, phi)
    if a0 is None:
        record("3.4", {"basis": ("e", "m"),
                       "reason": "no central alpha0 solves phi(e, m) = alpha0*m"},
               {"alpha0": None, "b_side_sign": None})
    else:
        wit = None
        anti_wit = None
        for la, a in a_els:
            for lm, m in m_els:
                want = multiply(a0, multiply(a, m))
                for tag, d in (((la, lm), phi(a, m) - want), ((lm, la), phi(m, a) + want)):
                    if wit is None and not d.is_zero():
                        wit = {"basis": tag, "residual": d}
                anti = phi(a, m) + phi(m, a)
                if anti_wit is None and not anti.is_zero():
                    anti_wit = {"basis": (la, lm), "residual": anti}
        plus_all = minus_all = True
        for lb, b in b_els:
            for lm, m in m_els:
                want = multiply(a0, multiply(m, b))
                plus_all &= (phi(b, m) - want).is_zero() and (phi(m, b) + want).is_zero()
                minus_all &= (phi(b, m) + want).is_zero() and (phi(m, b) - want).is_zero()
                anti = phi(b, m) + phi(m, b)
                if anti_wit is None and not anti.is_zero():
                    anti_wit = {"basis": (lb, lm), "residual": anti}
        sign = _sign(plus_all, minus_all)
        if sign is None and wit is None:
            wit = {"basis": ("b", "m"),
                   "reason": "no consistent sign for phi(b, m) = ±alpha0*m*b"}
        record("3.4", wit or anti_wit, {"alpha0": a0, "b_side_sign": sign},
               passed=wit is None and anti_wit is None and sign is not None)

    def mixed(la, lb, a, b, v, p):
        if t.proj_m(v) != -multiply(multiply(a, p), b):
            return {"basis": (la, lb), "residual": v}
        if not t.is_central(t.proj_a(v) + t.proj_b(v)):
            return {"basis": (la, lb), "residual": v, "reason": "diagonal part not central"}
        return None

    record("3.5", first(
        wit for la, a in a_els for lb, b in b_els
        for wit in (mixed(la, lb, a, b, phi(a, b), pee), mixed(lb, la, a, b, phi(b, a), pff))))

    record("3.6", first(
        {"basis": (lu, lv), "residual": v}
        for lu, mu_el in m_els for lv, mv_el in m_els
        for v in [phi(mu_el, mv_el)] if not v.is_zero()))

    if a0 is None:
        record("3.7", {"basis": ("a1", "a2"),
                       "reason": "alpha0 unavailable, diagonal relation untestable"},
               {"diagonal_sign": None})
    else:
        wit = None
        plus_all = minus_all = True
        for l1, a1 in a_els:
            for l2, a2 in a_els:
                v = phi(a1, a2)
                off = t.proj_m(v)
                t12 = multiply(multiply(multiply(a1, a2), pee), f)
                t21 = multiply(multiply(multiply(a2, a1), pee), f)
                if off != t12 or off != t21:
                    wit = wit or {"basis": (l1, l2), "residual": off - t12}
                    continue
                eta = tau_inv(t, t.proj_b(v))
                if eta is None:
                    wit = wit or {"basis": (l1, l2), "residual": t.proj_b(v),
                                  "reason": "diagonal part outside the center's B-projection"}
                    continue
                shift = multiply(a0, lie_bracket(a1, a2))
                plus_all &= t.proj_a(v) == eta + shift
                minus_all &= t.proj_a(v) == eta - shift
        sign = _sign(plus_all, minus_all)
        if sign is None and wit is None:
            wit = {"basis": ("a1", "a2"),
                   "reason": "no consistent sign for the diagonal relation"}
        record("3.7", wit, {"diagonal_sign": sign}, passed=wit is None and sign is not None)
    return entries
