"""Shared test fixtures: groups used across the test modules, and oracles.

The bar-complex oracles (cocycle_basis, coboundary_basis, cohomology_rank,
bar_inflation_h2, connecting_via_lift) compute from whole cochain spaces or
whole differentials what the library decides without them, connecting_dense
writes out entry by entry the Psi that the library keeps factored, and
image_membership_via_solve solves for a gamma where the library tests one
containment, per_phi_route_agreement compares the three Psi routes on one
phi where the library decides them once per level, and psi_m2_formula_via_add
sums route C by whole-cochain adds where the library fills one dict.  The paper's side
constructions are oracles too: J_m through invariant homs
(jm_via_invariant_homs), the quotient group G_phi with its differential
(build_g_phi, d2_via_g_phi), inflation and restriction of cochains, quotient
modules, the regular module with its product, and the
augmentation powers from every g - 1 (ideal_basis_all_elements).  They live
here because only tests call them.
"""

from dataclasses import dataclass
from itertools import product as iproduct

from soclecoh.cohomology import (
    DEFAULT_H2_MAX_ORDER,
    CochainComplex,
    CoeffAction,
    Cochain,
    CoefficientSES,
    action_for_quotient_module,
    cup,
    d2_on_E01,
    differential,
    extension_cocycle,
    is_cocycle,
)
from soclecoh.errors import DimensionMismatch, NotACocycle, SizeBound, SocleCohError
from soclecoh.fingroup import (
    ExtensionData,
    FinGroup,
    Subgroup,
    abelian_structure,
    build_extension,
    from_cayley_table,
    quotient,
)
from soclecoh.gmodule import (
    ExtensionModules,
    GModule,
    GroupRing,
    QuotientModule,
    descale_vec,
    dual,
    dual_pair,
    dual_transpose,
    enumerate_scaled_span,
    hom_g,
    lambda_m,
    make_module,
    mat_apply,
    mat_identity,
    mat_mul,
    module_J,
    scale_vec,
    scaled_span,
    vec_reduce,
)
from soclecoh.obstruction import DEFAULT_JM_EXHAUSTIVE_BOUND, ObstructionContext, PhiMap
from soclecoh.zmodlin import (
    HowellBasis,
    LinearSolver,
    coords_in_basis,
    howell_form_rows,
    quotient_orders,
    quotient_presentation,
)


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


# (ell, n, order of z) for twisted_class2_spec: the hypothesis holds at each,
# with J cyclic under the trivial action
TWISTED_CLASS2 = ((3, 1, 3), (2, 2, 4), (2, 2, 2), (5, 1, 5))


def twisted_class2_spec(ell: int, n: int, central_order: int) -> dict:
    """Group JSON of [e1, e2] = z, e1^q = z, e2^q = 1, with z central of
    order central_order and q = ell^n.  Inflation is surjective on H^2 for
    these groups, so `verify` asserts direction 2 on them past l^n = 2."""
    return {
        "class2": {
            "d": 2, "ell": ell, "n": n, "commutators": {"0,1": [1]},
            "powers": [[1], [0]], "central_orders": [central_order],
        }
    }


def c2_wreath_c4_spec() -> dict:
    """Cayley JSON of C_2 wr C_4 = (Z/2)^4 x| Z/4, the generator of Z/4
    shifting the coordinates cyclically, on the generators (e_1, 0) and
    (0, 1); order 64.  At l^n = 2 its descending step H has order 16 and is
    not abelian."""
    elems = [(v, k) for v in iproduct(range(2), repeat=4) for k in range(4)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        (v, a), (w, b) = x, y
        return (tuple((v[i] + w[(i - a) % 4]) % 2 for i in range(4)), (a + b) % 4)

    table = [[index[mul(x, y)] for y in elems] for x in elems]
    return {"cayley": table, "generators": [index[((1, 0, 0, 0), 0)], index[((0,) * 4, 1)]]}


def per_pair_catalog(name: str, params) -> FinGroup:
    """The abelian and unitriangular catalog families from the product of
    every pair of coordinate tuples, as the catalog built them before it
    used class-2 presentations; the test oracle for those presentations."""
    ell = params["ell"]
    if name == "cyclic":
        m = ell ** params.get("k", 1)
        elems = list(range(m))
        return _per_pair_group(elems, lambda x, y: (x + y) % m, [1] if m > 1 else [], ell)
    if name in ("elementary_abelian", "abelian_product"):
        exps = params["exponents"] if name == "abelian_product" else [1] * params["d"]
        mods = [ell**e for e in exps]
        elems = list(iproduct(*(range(m) for m in mods)))
        gens = [tuple(int(i == k) for i in range(len(mods))) for k in range(len(mods))]

        def mul(x, y):
            return tuple((a + b) % m for a, b, m in zip(x, y, mods))

        return _per_pair_group(elems, mul, gens, ell)
    if name in ("heisenberg", "unitriangular3"):
        m = ell ** (1 if name == "heisenberg" else params["n"])
        elems = list(iproduct(range(m), repeat=3))

        def mul(x, y):
            return ((x[0] + y[0]) % m, (x[1] + y[1]) % m, (x[2] + y[2] + x[0] * y[1]) % m)

        return _per_pair_group(elems, mul, [(1, 0, 0), (0, 1, 0)], ell)
    raise ValueError(f"no per-pair oracle for {name!r}")


def _per_pair_group(elems, mul, gens, ell) -> FinGroup:
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[mul(x, y)] for y in elems] for x in elems]
    return from_cayley_table(table, [index[g] for g in gens], labels=[str(x) for x in elems], ell=ell)


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


def image_row_tuples(solver: LinearSolver):
    """The canonical image basis of a LinearSolver's matrix, as tuples."""
    return solver._tuples(solver._image, 0, solver.ncols)


def coboundary_basis(cc: CochainComplex, k: int) -> HowellBasis:
    """Scaled basis of B^k (image of d from degree k-1)."""
    ring = cc.action.module.ring
    if k == 0:
        return howell_form_rows([], cc.dim(0), ring)
    return howell_form_rows(list(image_row_tuples(cc.solver(k - 1))), cc.dim(k), ring)


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


def connecting_dense(ses: CoefficientSES, f: Cochain) -> Cochain:
    """The connecting map's contraction written out entry by entry: for each
    support tuple t of f and each g != 1, (delta f)(g, t) is
    sum_j f(t)_j mid[g][1 + j][0] mod q, with no column table.  f must be a
    cocycle."""
    if f.action is not ses.quot and f.action.module is not ses.quot.module:
        raise DimensionMismatch("cochain does not take values in the quotient module")
    if not is_cocycle(f):
        raise NotACocycle("connecting map needs a cocycle")
    q = ses.mid.module.ring.modulus
    ident = ses.mid.group.identity
    cols = [(g, [row[0] for row in mat[1:]]) for g, mat in enumerate(ses.mid.mats) if g != ident]
    values = {}
    for t, vec in f.values.items():
        nz = [(j, v) for j, v in enumerate(vec) if v]
        for g, col in cols:
            x = sum(v * col[j] for j, v in nz) % q
            if x:
                values[(g,) + t] = (x,)
    return Cochain(ses.sub, f.degree + 1, values)


def image_membership_via_solve(ctx, phi):
    """A gamma in J_m with phi_gamma = phi, or None, by one LinearSolver solve.

    The unknowns are coefficients on the Howell rows of J_m; the matrix stacks
    each row's phi_gamma, scaled, over the I_m basis.  Any solution serves.
    """
    m, em, ring = phi.m, ctx.em, ctx.ring
    jorders = em.j.module.orders
    t = len(jorders)
    if t == 0:
        return () if phi_is_zero(phi) else None
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


def per_phi_route_agreement(ctx: ObstructionContext, phi: PhiMap, include_m2: bool) -> dict:
    """Routes B (and C when include_m2) against route A on this one phi, with
    the keys of ctx.route_certificate: B entrywise, C up to a coboundary."""
    psi = ctx.psi_generic(phi).psi.materialize()
    agreement = {"generic_vs_closed_entrywise": psi.same_values(ctx.psi_closed_form(phi))}
    if include_m2:
        diff = psi.add(ctx.psi_m2_formula(phi), sign=-1)
        agreement["generic_vs_m2_cohomologous"] = ctx.resolution.is_coboundary(diff)
    return agreement


def psi_m2_formula_via_add(ctx: ObstructionContext, phi: PhiMap) -> Cochain:
    """Route C as a chain of Cochain.add calls, from zero: the sum
    sum_i -x_i cup d2(phi(rho_i)) that psi_m2_formula adds in one pass."""
    im, jb, q = ctx.em.i_m(2), ctx.em.j, ctx.ring.modulus
    xs = ctx.dual_basis_cochains()
    total = Cochain.zero(ctx.r_action, 3)
    for i, sigma in enumerate(ctx.ext.sigma):
        gamma_i = mat_apply(im.augmentation_coords(sigma), phi.matrix, jb.module.orders)
        xmat = tuple(((q // jb.hab.orders[k]) * gamma_i[k] % q,) for k in range(jb.hab.rank))
        xi = d2_on_E01(ctx.alpha, ctx.ext.sigma, xmat, ctx.r_action)
        total = total.add(cup(xs[i], xi), sign=-1)
    return total


# -- cochains along group maps ------------------------------------------------------


def inflation(big: FinGroup, proj, f: Cochain) -> Cochain:
    """Pull back along big ->> f's group, precomposing every tuple slot."""
    new_action = CoeffAction(
        big, f.action.module, tuple(f.action.mats[proj[x]] for x in big.elements())
    )
    pre = {}
    for x in big.elements():
        pre.setdefault(proj[x], []).append(x)
    ident = big.identity
    values = {}
    for tup, vec in f.values.items():
        for lifted in iproduct(*(pre[g] for g in tup)):
            if ident in lifted:
                continue
            values[lifted] = vec
    return Cochain.make(new_action, f.degree, values)


def restriction(sub: Subgroup, f: Cochain) -> Cochain:
    """Restrict a cochain to a subgroup (reindexed as its own group)."""
    grp, to_parent, to_sub = sub.as_group()
    action = CoeffAction(
        grp, f.action.module, tuple(f.action.mats[to_parent[x]] for x in grp.elements())
    )
    inside = set(sub.elements)
    values = {}
    for tup, vec in f.values.items():
        if all(g in inside for g in tup):
            values[tuple(to_sub[g] for g in tup)] = vec
    return Cochain.make(action, f.degree, values)


# -- modules: the regular module, quotients, J_m through invariant homs -------------


def phi_is_zero(phi: PhiMap) -> bool:
    """Whether phi is the zero map."""
    return not any(any(r) for r in phi.matrix)


def group_ring_mult(gr: GroupRing, v, w):
    """The product of two elements of Z/l^n[G]."""
    q = gr.ring.modulus
    out = [0] * gr.group.order
    for x, a in enumerate(v):
        if a:
            perm = gr.group.cayley[x]
            for y, b in enumerate(w):
                if b:
                    out[perm[y]] = (out[perm[y]] + a * b) % q
    return tuple(out)


def ideal_basis_all_elements(gr: GroupRing):
    """The canonical bases of I^1, I^2, ... up to the first zero power, each
    I^m (m >= 2) from all |G| - 1 products (g - 1) . I^(m-1), g != 1, as the
    group ring built them before it used only the d products
    (sigma_i - 1) . I^(m-1); the test oracle for GroupRing.ideal_basis."""
    G, q = gr.group, gr.ring.modulus
    nonid = [g for g in G.elements() if g != G.identity]
    powers = [howell_form_rows([gr.augmentation_row(g) for g in nonid], G.order, gr.ring)]
    while powers[-1].rows:
        rows = []
        for g in nonid:
            for v in powers[-1].rows:
                moved = gr.mult_by_elem(g, v)
                rows.append(tuple((a - b) % q for a, b in zip(moved, v)))
        powers.append(howell_form_rows(rows, G.order, gr.ring))
    return powers


def group_ring_eps(gr: GroupRing, v) -> int:
    """The augmentation of an element of Z/l^n[G]: its coefficient sum."""
    return sum(v) % gr.ring.modulus


def lambda_m_project_vec(gr: GroupRing, im: QuotientModule, v):
    """Lambda -> Lambda/I^m in lambda_m's coordinates (eps part, I_m part):
    v = eps(v) . 1 + sum over g != 1 of v_g (g - 1)."""
    return (group_ring_eps(gr, v),) + im.project_vec(tuple(v[1:]))


def regular_module(gr: GroupRing) -> GModule:
    """Lambda as a module over itself: free of rank |G|, permutation actions."""
    q = gr.ring.modulus
    size = gr.group.order
    orders = (q,) * size
    actions = []
    for s in gr.sigma:
        perm = gr.group.cayley[s]
        actions.append(
            tuple(tuple(1 if perm[x] == ypos else 0 for ypos in range(size)) for x in range(size))
        )
    return GModule(gr.ring, orders, tuple(actions))


def quotient_module(module: GModule, sub_scaled: HowellBasis):
    """module / (scaled submodule): (its presentation, the quotient module
    with induced actions)."""
    ring = module.ring
    t = module.rank
    rel = [
        tuple(module.orders[k] if j == k else 0 for j in range(t)) for k in range(t)
    ]
    rel += [descale_vec(r, module.orders, ring) for r in sub_scaled.rows]
    qp = quotient_presentation(howell_form_rows(rel, t, ring))
    orders = qp.orders
    section = tuple(
        vec_reduce(qp.section_vec(y), module.orders) for y in mat_identity(orders)
    )
    actions = [
        tuple(qp.project_vec(mat_apply(x, a, module.orders)) for x in section)
        for a in module.actions
    ]
    return qp, make_module(ring, orders, actions)


def jm_via_invariant_homs(em: ExtensionModules, m: int):
    """Both invariant-hom sides of level m plus the explicit comparison.

    Returns a dict with the Lambda_m side, the I_m side, the evaluation map
    f |-> f(1) onto J_m, the restriction map, and verification bits for the
    commuting square (exhaustive over J_m when it is small).
    """
    im = em.i_m(m)
    jmod = em.j.module
    hom_lam, basis_lam = hom_g(lambda_m(em.gr, im), jmod)
    hom_im, basis_im = hom_g(im.module, jmod)
    jm_basis = em.socle.basis(m)

    # f |-> f(1): row 0 of the matrix (1 has Lambda_m coordinates (1,0,...))
    eval_rows = []
    for row in basis_lam.rows:
        c = descale_vec(row, hom_lam.module.orders, em.ring)
        f = hom_lam.coords_to_matrix(c)
        eval_rows.append(f[0] if f else tuple())
    image_of_eval = scaled_span(eval_rows, jmod.orders, em.ring) if jmod.rank else jm_basis
    iso_onto_jm = image_of_eval == jm_basis and (
        basis_lam.span_size() == jm_basis.span_size()
    )

    # commuting square: restriction of f equals phi_{f(1)}
    square_ok = True
    checked = 0
    if basis_lam.span_size() <= DEFAULT_JM_EXHAUSTIVE_BOUND:
        for c in enumerate_scaled_span(basis_lam, hom_lam.module.orders, em.ring):
            f = hom_lam.coords_to_matrix(c)
            gamma = f[0] if f else tuple()
            restricted = tuple(f[1:])
            if restricted != em.phi_gamma_matrix(gamma, m):
                square_ok = False
            checked += 1
    return {
        "lambda_side": (hom_lam, basis_lam),
        "i_side": (hom_im, basis_im),
        "jm_basis": jm_basis,
        "iso_onto_jm": iso_onto_jm,
        "square_commutes": square_ok,
        "square_checked": checked,
    }


# -- the quotient-group recipe --------------------------------------------------------


@dataclass(frozen=True)
class GPhiData:
    """The quotient-extension data attached to phi."""

    h_phi: Subgroup
    ext_phi: ExtensionData
    image_basis: HowellBasis
    image_dual: GModule
    kernel_iso: tuple
    alpha_phi: Cochain
    beta_phi: Cochain
    iso_equivariant: bool


def build_g_phi(ctx: ObstructionContext, phi: PhiMap) -> GPhiData:
    ext = ctx.ext
    g = ext.total
    jb = ctx.em.j
    jmod = jb.module
    image = scaled_span(list(phi.matrix), jmod.orders, ctx.ring)
    im_rows = [descale_vec(r, jmod.orders, ctx.ring) for r in image.rows]
    h_elems = []
    for h in ext.kernel.elements:
        coords = jb.h_coords[h]
        if all(dual_pair(u, coords, jb.hab.orders, ctx.ring) == 0 for u in im_rows):
            h_elems.append(h)
    h_phi = Subgroup(g, tuple(sorted(h_elems)))
    h_phi.normality_witness()
    g_phi, proj_phi = quotient(g, h_phi)
    proj2 = [None] * g_phi.order
    for x in g.elements():
        y = proj_phi[x]
        if proj2[y] is None:
            proj2[y] = ext.projection[x]
        elif proj2[y] != ext.projection[x]:
            raise SocleCohError("projection does not factor through G_phi")
    kernel_phi = Subgroup(g_phi, tuple(sorted({proj_phi[h] for h in ext.kernel.elements})))
    ext_phi = build_extension(g_phi, kernel_phi, ext.quotient, tuple(proj2), ctx.ring)
    jb_phi = module_J(ext_phi)

    # evaluation pairing H/H_phi x Im(phi) -> R as a matrix to (Im phi)^vee
    o_orders = image.coordinate_orders()
    q = ctx.ring.modulus
    khab = jb_phi.hab
    # basis elements of K = H/H_phi, lifted to least preimages in H
    kgrp, to_parent_k, _ = kernel_phi.as_group()
    st = abelian_structure(kgrp)
    iso_rows = []
    ok_iso = True
    for bk in st.basis:
        yk = to_parent_k[bk]  # element of g_phi
        hk = min(h for h in ext.kernel.elements if proj_phi[h] == yk)
        row = []
        for u, o in zip(im_rows, o_orders):
            val = dual_pair(u, jb.h_coords[hk], jb.hab.orders, ctx.ring)
            step = q // o
            if val % step:
                ok_iso = False
                row.append(0)
            else:
                row.append((val // step) % o)
        iso_rows.append(tuple(row))
    kernel_iso = tuple(iso_rows)
    # (Im phi)^vee with the dual of the image's G-action
    act_rows = []
    for i in range(ext.d):
        rows = []
        for jvec in im_rows:
            moved = mat_apply(jvec, jmod.actions[i], jmod.orders)
            cs = coords_in_basis(image, scale_vec(moved, jmod.orders, ctx.ring))
            if cs is None:
                raise SocleCohError("phi image is not action-stable")
            rows.append(tuple(c % o for c, o in zip(cs, o_orders)))
        act_rows.append(tuple(rows))
    image_dual = dual(GModule(ctx.ring, o_orders, tuple(act_rows)))
    # iso equivariance: K-action vs (Im phi)^vee action
    if kernel_iso and ok_iso:
        for i in range(ext.d):
            lhs = mat_mul(khab.actions[i], kernel_iso, image_dual.orders)
            rhs = mat_mul(kernel_iso, image_dual.actions[i], image_dual.orders)
            if lhs != rhs:
                ok_iso = False
    # bijectivity: the iso rows span the full dual and sizes match
    if ok_iso:
        span = scaled_span(list(kernel_iso), image_dual.orders, ctx.ring)
        full_size = 1
        for o in image_dual.orders:
            full_size *= o
        ok_iso = span.span_size() == full_size == len(kernel_phi)

    factor_set = extension_cocycle(ext_phi, jb_phi)
    imdual_action = action_for_quotient_module(ext, image_dual)
    alpha_values = {}
    for tup, vec in factor_set.values.items():
        out = mat_apply(vec, kernel_iso, image_dual.orders)
        if any(out):
            alpha_values[tup] = out
    alpha_phi = Cochain.make(imdual_action, 2, alpha_values)
    # pushforward (Im phi)^vee -> I_m^vee dual to the corestriction of phi
    im_m = ctx.em.i_m(phi.m)
    cor = []
    for row in phi.matrix:
        cs = coords_in_basis(image, scale_vec(row, jmod.orders, ctx.ring))
        cor.append(tuple(c % o for c, o in zip(cs, o_orders)))
    push = dual_transpose(tuple(cor), im_m.module.orders, o_orders)
    beta_values = {}
    imv_action = ctx.dual_sequence(phi.m).quot
    for tup, vec in alpha_phi.values.items():
        out = mat_apply(vec, push, imv_action.module.orders)
        if any(out):
            beta_values[tup] = out
    beta_phi = Cochain.make(imv_action, 2, beta_values)
    return GPhiData(
        h_phi=h_phi,
        ext_phi=ext_phi,
        image_basis=image,
        image_dual=image_dual,
        kernel_iso=kernel_iso,
        alpha_phi=alpha_phi,
        beta_phi=beta_phi,
        iso_equivariant=ok_iso,
    )

def d2_via_g_phi(ctx: ObstructionContext, phi: PhiMap):
    """-beta_phi computed in G_phi, plus the witness against route A.

    Returns (cochain, witness): the witness certifies the two differentials
    are cohomologous; both are 2-cocycles with I_m^vee values.
    """
    data = build_g_phi(ctx, phi)
    d2q = Cochain.zero(data.beta_phi.action, 2).add(data.beta_phi, sign=-1)
    d2a = ctx.d2_of_phi(phi)
    diff = d2q.add(d2a, sign=-1)
    witness = CochainComplex(ctx.dual_sequence(phi.m).quot).coboundary_witness(diff)
    return d2q, witness, data
