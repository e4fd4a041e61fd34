"""Dense reference solver and decomposition for the bilinear-map laws.

Everything here works on full dense rows over all dim**3 tensor coordinates
and reduces them with a from-scratch Gauss elimination.  The rows are
assembled by evaluating products of basis elements through the public
algebra operations, not by reusing any table inside the library, so a bug
in the production solver and a bug here would have to agree by accident.
The same holds for decompose(), verify_decomposition() and law_witness()
below: they evaluate every bracket and product as Element arithmetic and
never touch the library's cached decomposition tables.
Slow on purpose; meant for cross-checking on small algebras.
"""

from fractions import Fraction
from math import gcd

from liebider import (BilinearMap, Decomposition, Inconsistent, MapLaw,
                      NoCentralLambda, NotLieBider, ResidualNotCentral,
                      SparseMatrix, law_residual, lie_bracket, multiply,
                      solve)


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


def dense_kernel(rows, ncols):
    """Canonical kernel basis of an integer row system.

    Plain incremental Gauss over dense integer lists, then a backward pass
    to reach reduced echelon form, then one kernel vector per free column
    with the free coordinate set to 1.
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
