"""Shared test fixtures: groups used across the test modules, and oracles.

The bar-complex oracles (cocycle_basis, coboundary_basis, cohomology_rank,
bar_inflation_h2, connecting_via_lift) compute from whole cochain spaces or
whole differentials what the library decides without them, and
image_membership_via_solve solves for a gamma where the library tests one
containment; they live here because only tests call them.
"""

from itertools import product as iproduct

from soclecoh.cohomology import (
    DEFAULT_H2_MAX_ORDER,
    CochainComplex,
    CoeffAction,
    Cochain,
    CoefficientSES,
    differential,
    inflation,
)
from soclecoh.errors import DimensionMismatch, NotACocycle, SizeBound
from soclecoh.fingroup import from_cayley_table
from soclecoh.gmodule import descale_vec, mat_identity, scale_vec
from soclecoh.zmodlin import HowellBasis, LinearSolver, howell_form_rows, quotient_orders


def mixer32():
    """Order-32 fixture with a genuinely nontrivial socle chain.

    Extension of H = (Z/2)^3 by the Klein group: s1 conjugates by
    e1 <-> e3, s2 by e1 -> e3, e2 -> e1+e2+e3, e3 -> e1; s1^2 = 1,
    s2^2 = (0,1,1), and s2 s1 = s1 s2 (0,1,0).  Found by exhaustive
    search; its descending step is all of H and socle ranks are [2, 3].
    """
    a1 = {(1, 0, 0): (0, 0, 1), (0, 1, 0): (0, 1, 0), (0, 0, 1): (1, 0, 0)}
    a2 = {(1, 0, 0): (0, 0, 1), (0, 1, 0): (1, 1, 1), (0, 0, 1): (1, 0, 0)}
    u1 = (0, 0, 0)
    u2 = (0, 1, 1)
    v = (0, 1, 0)

    def h_add(x, y):
        return tuple((a + b) % 2 for a, b in zip(x, y))

    def apply_aut(a, h):
        out = (0, 0, 0)
        for c, img in zip(h, [a[(1, 0, 0)], a[(0, 1, 0)], a[(0, 0, 1)]]):
            if c:
                out = h_add(out, img)
        return out

    def append_h(state, h):
        k, e1, e2 = state
        moved = apply_aut(a2, h) if e2 else h
        moved = apply_aut(a1, moved) if e1 else moved
        return (h_add(k, moved), e1, e2)

    def append_s2(state):
        k, e1, e2 = state
        if e2 == 0:
            return (k, e1, 1)
        bump = apply_aut(a1, u2) if e1 else u2
        return (h_add(k, bump), e1, 0)

    def append_s1(state):
        k, e1, e2 = state
        if e2 == 0:
            return (k, (e1 + 1) % 2, 0) if e1 == 0 else (h_add(k, u1), 0, 0)
        state = append_s1((k, e1, 0))
        state = append_s2(state)
        return append_h(state, v)

    def mul(x, y):
        state = x
        state = append_h(state, y[0])
        if y[1]:
            state = append_s1(state)
        if y[2]:
            state = append_s2(state)
        return state

    elems = [(h, e1, e2) for h in iproduct(range(2), repeat=3) for e1 in (0, 1) for e2 in (0, 1)]
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[mul(x, y)] for y in elems] for x in elems]
    gens = [index[((0, 0, 0), 1, 0)], index[((0, 0, 0), 0, 1)]]
    return from_cayley_table(table, gens, ell=2)


def cocycle_basis(cc: CochainComplex, k: int) -> HowellBasis:
    """Scaled basis of Z^k: the kernel of d cut to generator last arguments.

    For F = df, dF(g_1..g_k, x, y) = 0 reduces to F(g_1..g_k, xy) = 0 once F
    vanishes at the last arguments x and y, so those close under products.
    Row by row, differential evaluates d of each basis vector on that cut.
    """
    act = cc.action
    ring = act.module.ring
    q = ring.modulus
    orders = act.module.orders
    gens = act.group.generators
    slot = {g: i for i, g in enumerate(gens)}
    rows = []
    for tup in cc.basis_tuples(k):
        for unit in mat_identity(orders):
            row = {}
            for out, vec in differential(Cochain(act, k, {tup: unit}), gens).values.items():
                base = (cc.tuple_index(out[:-1]) * len(gens) + slot[out[-1]]) * cc.t
                for j, v in enumerate(vec):
                    if v:
                        row[base + j] = v * (q // orders[j]) % q
            rows.append(row)
    kernel = LinearSolver(rows, cc.grid(k) * len(gens) * cc.t, ring).kernel_row_tuples()
    scaled = [
        tuple(v * (q // orders[i % cc.t]) % q for i, v in enumerate(row)) for row in kernel
    ]
    return howell_form_rows(scaled, cc.dim(k), ring)


def coboundary_basis(cc: CochainComplex, k: int) -> HowellBasis:
    """Scaled basis of B^k (image of d from degree k-1)."""
    ring = cc.action.module.ring
    if k == 0:
        return howell_form_rows([], cc.dim(0), ring)
    return howell_form_rows(list(cc.solver(k - 1).image_row_tuples()), cc.dim(k), ring)


def cohomology_rank(action: CoeffAction, k: int):
    """Cyclic orders of H^k = ker d_k / im d_{k-1}, descending."""
    cc = CochainComplex(action)
    b = coboundary_basis(cc, k)  # the bar solver's entry bound trips first
    return quotient_orders(cocycle_basis(cc, k), b)


def bar_inflation_h2(ext, max_order=DEFAULT_H2_MAX_ORDER):
    """inflation_h2_surjective on the bar complex: the same (holds, diagnostics).

    Spans are compared inside Z^2 of the total group, the generator-cut
    kernel of the degree-2 bar differential, with the cocycles of the
    quotient inflated into it.
    """
    g = ext.total
    if g.order > max_order:
        raise SizeBound("total group order for the H^2 check", max_order, g.order)
    ring = ext.ring
    big = CochainComplex(CoeffAction.trivial(g, ring))
    small = CochainComplex(CoeffAction.trivial(ext.quotient, ring))
    z_big = cocycle_basis(big, 2)
    b_big = coboundary_basis(big, 2)
    inflated = []
    for row in cocycle_basis(small, 2).rows:
        f = small.unflat(row, 2)
        lifted = inflation(g, ext.projection, f)
        flat = big.flat(lifted)
        inflated.append(tuple(flat.get(i, 0) for i in range(big.dim(2))))
    b_plus = howell_form_rows(list(b_big.rows) + inflated, big.dim(2), ring)
    holds = b_plus == z_big
    h2 = quotient_orders(z_big, b_big)
    infl = quotient_orders(b_plus, b_big)
    return holds, {
        "holds": holds,
        "h2_total_dim": len(h2),
        "h2_orders": list(h2),
        "inflated_dim": len(infl),
        "inflated_orders": list(infl),
    }


def connecting_via_lift(ses: CoefficientSES, f: Cochain) -> Cochain:
    """The connecting map by its definition: lift f to mid by the section
    f |-> (0, f), take the whole bar differential, and pull back to Z/q.

    proj is equivariant and split by the section, so proj(d(section . f)) =
    d(f): the values lie in the image of Z/q (coordinates 1.. zero) exactly
    when f is a cocycle, and that is where a non-cocycle is caught.
    """
    if f.action is not ses.quot and f.action.module is not ses.quot.module:
        raise DimensionMismatch("cochain does not take values in the quotient module")
    lifted = Cochain.make(ses.mid, f.degree, {t: (0,) + v for t, v in f.values.items()})
    q = ses.mid.module.ring.modulus
    values = {}
    for t, v in differential(lifted).values.items():
        if any(v[1:]):
            raise NotACocycle("connecting map needs a cocycle")
        values[t] = (v[0] % q,)
    return Cochain.make(ses.sub, f.degree + 1, values)


def image_membership_via_solve(ctx, phi):
    """A gamma in J_m with phi_gamma = phi, or None, by one LinearSolver solve.

    The unknowns are coefficients on the Howell rows of J_m; the matrix stacks
    each row's phi_gamma, scaled, over the I_m basis.  Any solution serves.
    """
    m, em, ring = phi.m, ctx.em, ctx.ring
    jorders = em.j.module.orders
    t = len(jorders)
    if t == 0:
        return () if phi.is_zero() else None
    q = ring.modulus
    km = em.socle.basis(m)
    blocks = [tuple(scale_vec(row, jorders, ring) for row in nmat) for nmat in em.lift_actions(m)]
    targets = [x for row in phi.matrix for x in scale_vec(row, jorders, ring)]
    rows = []
    for kr in km.rows:
        x = descale_vec(kr, jorders, ring)
        rows.append([sum(x[k] * b[k][j] for k in range(t)) % q for b in blocks for j in range(t)])
    c = LinearSolver(rows, len(blocks) * t, ring).solve(targets)
    if c is None:
        return None
    x0 = [0] * t
    for ci, kr in zip(c, km.rows):
        x0 = [(a + ci * b) % q for a, b in zip(x0, kr)]
    return descale_vec(x0, jorders, ring)
