"""Group rings, ideal powers, module J, duals, Hom_G, and socle series."""

from itertools import product

import pytest

from helpers import (
    TWISTED_CLASS2,
    group_ring_eps,
    group_ring_mult,
    ideal_basis_all_elements,
    jm_via_invariant_homs,
    lambda_m_project_vec,
    mixer32,
    quotient_module,
    regular_module,
    twisted_class2_spec,
)
from soclecoh.errors import NotNilpotent, QuotientNotFree
from soclecoh.fingroup import catalog, group_from_json, make_extension
from soclecoh.gmodule import (
    ExtensionModules,
    GModule,
    GroupRing,
    dual,
    dual_pair,
    element_matrices,
    enumerate_scaled_span,
    full_scaled_basis,
    hom_g,
    i_m,
    invariants,
    lambda_m,
    mat_apply,
    module_J,
    scaled_span,
    socle_series,
    trivial_module,
    vec_reduce,
)
from soclecoh.zmodlin import RingConfig, contains, howell_form_rows, span_orders

R2 = RingConfig(2, 1)
R4 = RingConfig(2, 2)
R3 = RingConfig(3, 1)


def ext_of(name, ring, params=None):
    return make_extension(catalog(name, params), ring)


def swap_module(ring):
    t = ((0, 1), (1, 0))
    return GModule(ring, (ring.modulus, ring.modulus), (t,))


# -- group ring ----------------------------------------------------------------


def ring_of(name, ring, params=None):
    return GroupRing(ext_of(name, ring, params))


def test_group_ring_z2():
    gr = ring_of("cyclic", R2, {"ell": 2, "k": 1})
    assert gr.group.order == 2
    assert group_ring_eps(gr, (1, 1)) == 0
    assert group_ring_eps(gr, (1, 0)) == 1
    # (1 + sigma)^2 = 1 + 2 sigma + sigma^2 = 0 over F2[Z/2]
    v = (1, 1)
    assert group_ring_mult(gr, v, v) == (0, 0)


def test_group_ring_klein_rank4():
    gr = ring_of("elementary_abelian", R2, {"ell": 2, "d": 2})
    assert gr.group.order == 4
    assert len(gr.sigma) == 2


def test_group_ring_rejects_nonfree():
    with pytest.raises(QuotientNotFree):
        ring_of("cyclic", R4, {"ell": 2, "k": 1})  # Z/2 is not free over Z/4


# -- ideal powers ----------------------------------------------------------------


def test_ideal_square_zero_f2_z2():
    gr = ring_of("cyclic", R2, {"ell": 2, "k": 1})
    assert len(gr.ideal_basis(1)) == 1
    assert len(gr.ideal_basis(2)) == 0  # (sigma - 1)^2 = 0


def test_ideal_chain_z4_z4():
    gr = ring_of("cyclic", R4, {"ell": 2, "k": 2})
    i5 = gr.ideal_basis(5)
    # I^5 = {0, 2N} with N = 1 + s + s^2 + s^3
    assert i5.span_size() == 2
    assert contains(i5, (2, 2, 2, 2))
    assert len(gr.ideal_basis(6)) == 0
    # direct product oracle: I^(m+1) = span of products of I^1 with I^m
    for m in range(1, 6):
        prev, cur = gr.ideal_basis(m), gr.ideal_basis(m + 1)
        prods = [group_ring_mult(gr, a, b) for a in gr.ideal_basis(1).rows for b in prev.rows]
        assert howell_form_rows(prods, gr.group.order, R4) == cur
        for r in cur.rows:
            assert contains(prev, r)  # descending chain


def test_ideal_first_power_rank():
    for name, ring, params in (
        ("quaternion8", R2, None),
        ("heisenberg", R3, {"ell": 3}),
    ):
        gr = ring_of(name, ring, params)
        assert len(gr.ideal_basis(1)) == gr.group.order - 1


R5 = RingConfig(5, 1)
R8 = RingConfig(2, 3)

# Every catalog family over each ring the tests build it with, mixer32, and
# the twisted class-2 groups, among them the q = 9 one of order 243.
IDEAL_CASES = [
    ("cyclic", R2, {"ell": 2, "k": 3}),
    ("cyclic", R4, {"ell": 2, "k": 3}),
    ("cyclic", R3, {"ell": 3, "k": 2}),
    ("elementary_abelian", R2, {"ell": 2, "d": 3}),
    ("abelian_product", R2, {"ell": 2, "exponents": (2, 1)}),
    ("abelian_product", R4, {"ell": 2, "exponents": (2, 2)}),
    ("abelian_product", R3, {"ell": 3, "exponents": (1, 1)}),
    ("quaternion8", R2, None),
    ("dihedral8", R2, None),
    ("heisenberg", R2, {"ell": 2}),
    ("heisenberg", R3, {"ell": 3}),
    ("heisenberg", R5, {"ell": 5}),
    ("unitriangular3", R4, {"ell": 2, "n": 2}),
    ("unitriangular3", R8, {"ell": 2, "n": 3}),
    ("wreath_z4_z2", R2, None),
    ("free_class2", R2, {"d": 2, "ell": 2, "n": 1}),
    ("free_class2", R3, {"d": 2, "ell": 3, "n": 1}),
    ("mixer32", R2, None),
] + [("twisted", RingConfig(ell, n), (ell, n, z)) for ell, n, z in TWISTED_CLASS2 + ((3, 2, 3),)]


def ideal_case_id(case):
    name, ring, params = case
    if isinstance(params, dict):
        params = "-".join(f"{k}={v}" for k, v in params.items())
    return f"{name}-q{ring.modulus}-{params}"


@pytest.mark.parametrize("name,ring,params", IDEAL_CASES, ids=map(ideal_case_id, IDEAL_CASES))
def test_ideal_basis_matches_all_elements_oracle(name, ring, params):
    # I^m from the d products (sigma_i - 1) . I^(m-1) against all |G| - 1
    # products (g - 1) . I^(m-1), up to the first zero power and past it
    if name == "mixer32":
        group = mixer32()
    elif name == "twisted":
        group = group_from_json(twisted_class2_spec(*params))
    else:
        group = catalog(name, params)
    gr = GroupRing(make_extension(group, ring))
    powers = ideal_basis_all_elements(gr)
    assert [gr.ideal_basis(m) for m in range(1, len(powers) + 1)] == powers
    assert gr.ideal_basis(10**9) == powers[-1]


def test_remark_product_identity():
    # (st - 1) = (s-1)(t-1) + (s-1) + (t-1) in any group ring
    ext = ext_of("wreath_z4_z2", R2)
    gr = GroupRing(ext)
    G = ext.quotient
    for s in G.elements():
        for t in G.elements():
            left = gr.augmentation_row(G.mul(s, t))
            a, b = gr.augmentation_row(s), gr.augmentation_row(t)
            right = tuple(
                (x + y + z) % 2 for x, y, z in zip(group_ring_mult(gr, a, b), a, b)
            )
            assert left == right


# -- lambda_m / i_m ----------------------------------------------------------------


def test_lambda_1_is_trivial_rank_one():
    ext = ext_of("quaternion8", R2)
    gr = GroupRing(ext)
    lam = lambda_m(gr, i_m(gr, 1))
    assert lam.orders == (2,)
    assert all(a == ((1,),) for a in lam.actions)


def test_i2_trivial_rank2_f2():
    ext = ext_of("quaternion8", R2)
    gr = GroupRing(ext)
    im = i_m(gr, 2)
    assert sorted(im.module.orders) == [2, 2]
    ident = tuple(tuple(1 if i == j else 0 for j in range(2)) for i in range(2))
    assert all(a == ident for a in im.module.actions)  # trivial G-module


def test_i2_z4_z4_free_rank_one():
    gr = ring_of("cyclic", R4, {"ell": 2, "k": 2})
    im = i_m(gr, 2)
    assert im.module.orders == (4,)


def test_lambda_m_splits_off_i_m():
    # eps: Lambda_m -> R is the first coordinate; I_m sits in the rest.
    ext = ext_of("wreath_z4_z2", R2)
    gr = GroupRing(ext)
    for m in (1, 2, 3):
        im = i_m(gr, m)
        lam = lambda_m(gr, im)
        assert lam.orders == (2,) + im.module.orders
        size = gr.group.order
        one = lambda_m_project_vec(gr, im, tuple(1 if g == 0 else 0 for g in range(size)))
        assert one == (1,) + (0,) * im.module.rank
        # projection respects multiplication by sigma on representatives
        for si, s in enumerate(gr.sigma):
            for g in range(size):
                v = tuple(1 if x == g else 0 for x in range(size))
                lhs = lambda_m_project_vec(gr, im, gr.mult_by_elem(s, v))
                rhs = mat_apply(lambda_m_project_vec(gr, im, v), lam.actions[si], lam.orders)
                assert lhs == rhs


def test_i_m_projection_kernel_is_ideal_power():
    gr = ring_of("cyclic", R4, {"ell": 2, "k": 2})
    for m in (1, 2, 3):
        im = i_m(gr, m)
        for row in gr.ideal_basis(m).rows:
            assert im.project_vec(row[1:]) == (0,) * im.module.rank


# -- dual ----------------------------------------------------------------


def test_dual_trivial():
    m = trivial_module(R2, (2,), 1)
    assert dual(m) == m


def test_dual_swap_is_swap():
    m = swap_module(R2)
    assert dual(m).actions == m.actions


def test_double_dual_identity_catalog():
    mods = [
        swap_module(R2),
        trivial_module(R4, (4, 2), 2),
    ]
    ext = ext_of("wreath_z4_z2", R2)
    mods.append(module_J(ext).module)
    gr = GroupRing(ext)
    mods.append(i_m(gr, 2).module)
    mods.append(regular_module(gr))
    for m in mods:
        assert dual(dual(m)) == m


def test_dual_pairing_is_equivariant():
    # <sigma f, sigma x> = <f, x>
    ext = ext_of("wreath_z4_z2", R2)
    jb = module_J(ext)
    jd, hm = jb.module, jb.hab
    for i in range(len(jd.actions)):
        for u in product(*(range(o) for o in jd.orders)):
            for x in product(*(range(o) for o in hm.orders)):
                lhs = dual_pair(
                    mat_apply(u, jd.actions[i], jd.orders),
                    mat_apply(x, hm.actions[i], hm.orders),
                    hm.orders,
                    R2,
                )
                rhs = dual_pair(u, x, hm.orders, R2)
                assert lhs == rhs


# -- invariants ----------------------------------------------------------------


def test_invariants_trivial_module():
    m = trivial_module(R4, (4, 2), 2)
    assert invariants(m) == full_scaled_basis(m.orders, R4)


def test_invariants_swap_diagonal():
    m = swap_module(R2)
    inv = invariants(m)
    assert inv.rows == ((1, 1),)


def test_invariants_regular_module():
    gr = ring_of("cyclic", R2, {"ell": 2, "k": 1})
    reg = regular_module(gr)
    inv = invariants(reg)
    assert inv.rows == ((1, 1),)  # the norm element 1 + sigma


# -- hom modules ----------------------------------------------------------------


def test_hom_from_free_rank_one():
    # Hom(R, N) = N
    n = swap_module(R2)
    r = trivial_module(R2, (2,), 1)
    hm, basis = hom_g(r, n)
    assert hm.module.orders == n.orders
    assert basis.span_size() == 2  # invariant homs = N^G = diagonal


def test_hom_swap_to_trivial():
    hm, basis = hom_g(swap_module(R2), trivial_module(R2, (2,), 1))
    mats = [hm.coords_to_matrix(c) for c in enumerate_scaled_span(basis, hm.module.orders, R2)]
    assert len(mats) == 2  # zero and the sum functional
    assert ((1,), (1,)) in mats


def test_hom_g_i2_to_j_quaternion():
    ext = ext_of("quaternion8", R2)
    em = ExtensionModules(ext)
    hm, basis = hom_g(em.i_m(2).module, em.j.module)
    assert basis.span_size() == 4
    assert span_orders(basis) == (2, 2)


def test_hom_g_equivariance_brute():
    ext = ext_of("wreath_z4_z2", R2)
    em = ExtensionModules(ext)
    src, tgt = em.i_m(2).module, em.j.module
    hm, basis = hom_g(src, tgt)
    for c in enumerate_scaled_span(basis, hm.module.orders, R2):
        f = hm.coords_to_matrix(c)
        for i in range(len(src.actions)):
            for x in product(*(range(o) for o in src.orders)):
                lhs = mat_apply(mat_apply(x, src.actions[i], src.orders), f, tgt.orders)
                rhs = mat_apply(mat_apply(x, f, tgt.orders), tgt.actions[i], tgt.orders)
                assert lhs == rhs


# -- module J ----------------------------------------------------------------


def test_module_j_quaternion():
    jb = module_J(ext_of("quaternion8", R2))
    assert jb.module.orders == (2,)
    assert all(a == ((1,),) for a in jb.module.actions)  # central H, trivial action


def test_module_j_abelian_total_is_zero():
    jb = module_J(ext_of("abelian_product", R4, {"ell": 2, "exponents": [2, 2]}))
    assert jb.module.rank == 0


def test_module_j_wreath():
    # H = {(x,y): x+y even} is Z/4 x Z/2; every conjugation fixes Hom(H, F2)
    # pointwise (checked independently below), so J is rank-2 trivial.
    ext = ext_of("wreath_z4_z2", R2)
    jb = module_J(ext)
    assert jb.module.orders == (2, 2)
    ident = ((1, 0), (0, 1))
    assert all(a == ident for a in jb.module.actions)
    # independent oracle: brute-force homs H -> Z/2 and conjugation
    g = ext.total
    hl = list(ext.kernel.elements)
    homs = []
    from itertools import product as iproduct

    for vals in iproduct(range(2), repeat=len(hl)):
        f = dict(zip(hl, vals))
        if all(
            f[g.mul(a, b)] == (f[a] + f[b]) % 2 for a in hl for b in hl
        ):
            homs.append(f)
    assert len(homs) == 4
    for x in g.elements():
        for f in homs:
            moved = {h: f[g.conj(x, h)] for h in hl}
            assert moved == f  # trivial action, element by element


# -- socle series ----------------------------------------------------------------


def test_socle_trivial_module_stabilizes_at_1():
    ext = ext_of("quaternion8", R2)
    em = ExtensionModules(ext)
    assert em.socle.stabilization == 1  # J = Z/2 with trivial action


def test_socle_regular_module_z2():
    gr = ring_of("cyclic", R2, {"ell": 2, "k": 1})
    reg = regular_module(gr)
    chain = socle_series(reg, gr, element_matrices(reg, gr.coords))
    assert chain.stabilization == 2
    assert chain.steps[0].rows == ((1, 1),)
    assert chain.steps[1] == full_scaled_basis(reg.orders, R2)


def test_socle_series_stall_raises_not_nilpotent(monkeypatch):
    # an augmentation ideal that never shrinks leaves J_m = J_1 != J for good
    gr = ring_of("cyclic", R2, {"ell": 2, "k": 1})
    i1 = gr.ideal_basis(1)
    monkeypatch.setattr(gr, "ideal_basis", lambda m: i1)
    with pytest.raises(NotNilpotent):
        reg = regular_module(gr)
        socle_series(reg, gr, element_matrices(reg, gr.coords))


def test_socle_wreath_ranks():
    # Trivial J of rank 2: the chain closes immediately.
    em = ExtensionModules(ext_of("wreath_z4_z2", R2))
    chain = em.socle
    assert chain.stabilization == 1
    assert [len(span_orders(s)) for s in chain.steps] == [2]


def test_socle_mixer_fixture_nontrivial_chain():
    from helpers import mixer32

    ext = make_extension(mixer32(), R2)
    assert len(ext.kernel) == 8 and ext.d == 2
    em = ExtensionModules(ext)
    assert em.socle.stabilization == 2
    assert [len(span_orders(s)) for s in em.socle.steps] == [2, 3]
    # independent oracle: J^G and J_2 by brute force over hom dictionaries
    g = ext.total
    hl = list(ext.kernel.elements)
    from itertools import product as iproduct

    homs = [
        dict(zip(hl, vals))
        for vals in iproduct(range(2), repeat=len(hl))
        if all(
            dict(zip(hl, vals))[g.mul(a, b)]
            == (dict(zip(hl, vals))[a] + dict(zip(hl, vals))[b]) % 2
            for a in hl
            for b in hl
        )
    ]
    assert len(homs) == 8

    def act(x, f):
        xi = g.inv(x)
        return {h: f[g.mul(g.mul(x, h), xi)] for h in hl}

    fixed = [f for f in homs if all(act(x, f) == f for x in g.elements())]
    assert len(fixed) == 4  # |J_1| = 4: two cyclic factors over F2
    j2 = [
        f
        for f in homs
        if all(
            # (x-1)(y-1) f = 0 for all x, y: expand the product action
            all(
                (act(x, act(y, f))[h] - act(x, f)[h] - act(y, f)[h] + f[h]) % 2 == 0
                for h in hl
            )
            for x in g.elements()
            for y in g.elements()
        )
    ]
    assert len(j2) == 8  # J_2 = J


def test_socle_identities_catalog():
    cases = [
        ("quaternion8", R2, None),
        ("dihedral8", R2, None),
        ("heisenberg", R3, {"ell": 3}),
        ("wreath_z4_z2", R2, None),
        ("free_class2", R2, {"d": 2, "ell": 2, "n": 1}),
        ("unitriangular3", R4, {"ell": 2, "n": 2}),
    ]
    for name, ring, params in cases:
        em = ExtensionModules(ext_of(name, ring, params))
        chain, jmod = em.socle, em.j.module
        full = full_scaled_basis(jmod.orders, ring)
        assert chain.steps[-1] == full  # exhaustive filtration
        # ascending chain, I . J_{m+1} inside J_m, and (J/J_m)^G = J_{m+1}/J_m
        for m in range(1, len(chain.steps) + 1):
            jm = chain.basis(m)
            if m > 1:
                for r in chain.basis(m - 1).rows:
                    assert contains(jm, r)
            for r in chain.basis(m + 1).rows if m < len(chain.steps) else ():
                x = vec_reduce(
                    tuple(v // (ring.modulus // o) for v, o in zip(r, jmod.orders)),
                    jmod.orders,
                )
                for w in em.gr.ideal_basis(1).rows:
                    from soclecoh.gmodule import lambda_action_matrix

                    moved = mat_apply(
                        x, lambda_action_matrix(jmod, em.elem_mats, w), jmod.orders
                    )
                    assert chain.member(moved, m)
            # (J/J_m)^G equals the image of J_{m+1}
            qp, qmod = quotient_module(jmod, jm)
            inv = invariants(qmod)
            nxt = chain.basis(m + 1) if m < len(chain.steps) else chain.basis(m)
            img = scaled_span(
                [
                    qp.project_vec(
                        tuple(v // (ring.modulus // o) for v, o in zip(r, jmod.orders))
                    )
                    for r in nxt.rows
                ],
                qmod.orders,
                ring,
            )
            assert img == inv


# -- invariant homs record ----------------------------------------------------------------


def test_jm_via_invariant_homs_m1():
    em = ExtensionModules(ext_of("quaternion8", R2))
    rec = jm_via_invariant_homs(em, 1)
    assert rec["iso_onto_jm"]
    assert rec["square_commutes"]


def test_jm_via_invariant_homs_q8_m2():
    em = ExtensionModules(ext_of("quaternion8", R2))
    rec = jm_via_invariant_homs(em, 2)
    assert rec["iso_onto_jm"]
    assert rec["square_commutes"]
    _, basis_lam = rec["lambda_side"]
    _, basis_im = rec["i_side"]
    assert basis_lam.span_size() == 2  # J_2 = J = Z/2
    assert basis_im.span_size() == 4  # Hom_G(I_2, J)


def test_jm_via_invariant_homs_wreath_m2():
    em = ExtensionModules(ext_of("wreath_z4_z2", R2))
    rec = jm_via_invariant_homs(em, 2)
    assert rec["iso_onto_jm"]
    assert rec["square_commutes"]
    assert rec["square_checked"] == 4  # |J_2| = 4 elements, checked exhaustively


def test_phi_gamma_linearity():
    em = ExtensionModules(ext_of("wreath_z4_z2", R2))
    m = 2
    for g1 in enumerate_scaled_span(em.socle.basis(m), em.j.module.orders, R2):
        for g2 in enumerate_scaled_span(em.socle.basis(m), em.j.module.orders, R2):
            s = vec_reduce(tuple(a + b for a, b in zip(g1, g2)), em.j.module.orders)
            fs = em.phi_gamma_matrix(s, m)
            f1 = em.phi_gamma_matrix(g1, m)
            f2 = em.phi_gamma_matrix(g2, m)
            addf = tuple(
                vec_reduce(tuple(a + b for a, b in zip(r1, r2)), em.j.module.orders)
                for r1, r2 in zip(f1, f2)
            )
            assert fs == addf


def test_gmodule_refuses_a_non_module():
    # a G-module needs reduced, well-defined entries, A^q = 1 and commuting
    # actions; the connecting map's middle module relies on each
    swap = ((0, 1), (1, 0))
    shear = ((1, 1), (0, 1))
    GModule(R2, (2, 2), (swap, swap))
    with pytest.raises(ValueError, match="do not commute"):
        GModule(R2, (2, 2), (swap, shear))
    with pytest.raises(ValueError, match="order does not divide"):
        GModule(R2, (2, 2), (((1, 1), (1, 0)),))
    with pytest.raises(ValueError, match="not well-defined"):
        GModule(R4, (2, 4), (((1, 1), (0, 1)),))
    with pytest.raises(ValueError, match="not reduced"):
        GModule(R2, (2, 2), (((1, 2), (0, 1)),))
