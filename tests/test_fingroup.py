"""Group constructors, descending series, quotients, and the catalog."""

import pytest

from soclecoh.errors import (
    GeneratorsDontGenerate,
    InconsistentPresentation,
    NotAGroup,
    NotEllGroup,
    QuotientNotFree,
    SizeBound,
    UnknownCatalogEntry,
)
from soclecoh.fingroup import (
    Subgroup,
    abelian_structure,
    abelianization,
    catalog,
    descending_step,
    from_cayley_table,
    from_class2_presentation,
    group_from_json,
    make_extension,
    quotient,
)
from soclecoh.zmodlin import RingConfig

R2 = RingConfig(2, 1)
R4 = RingConfig(2, 2)
R3 = RingConfig(3, 1)


def klein_table():
    # (Z/2)^2 written multiplicatively
    return [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]


def s3_table():
    # permutations of {0,1,2}: indices are (), (01), (02), (12), (012), (021)
    from itertools import permutations

    perms = list(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    return [[idx[compose(p, q)] for q in perms] for p in perms]


def test_klein_group():
    g = from_cayley_table(klein_table(), [1, 2], ell=2)
    assert g.order == 4
    assert g.identity == 0
    assert all(g.elt_order(x) in (1, 2) for x in g.elements())


def test_broken_associativity_detected():
    t = klein_table()
    t[3][3] = 1  # corrupt one entry
    with pytest.raises(NotAGroup):
        from_cayley_table(t, [1, 2])


def test_s3_is_not_a_2_group():
    with pytest.raises(NotEllGroup):
        from_cayley_table(s3_table(), [1, 4], ell=2)


def test_generators_must_generate():
    with pytest.raises(GeneratorsDontGenerate):
        from_cayley_table(klein_table(), [1])


def test_class2_quaternion():
    q8 = catalog("quaternion8")
    assert q8.order == 8
    # exactly one element of order 2, six of order 4
    orders = sorted(q8.elt_order(x) for x in q8.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_class2_trivial():
    g = from_class2_presentation(0, R2, {}, [])
    assert g.order == 1


def test_class2_heisenberg27():
    h = catalog("heisenberg", {"ell": 3})
    assert h.order == 27
    assert all(h.power(x, 3) == h.identity for x in h.elements())
    assert not h.is_abelian()


def test_class2_rejects_bad_indices():
    with pytest.raises(InconsistentPresentation):
        from_class2_presentation(2, R2, {(1, 0): (1,)}, [(0,), (0,)])


def test_class2_rejects_nonpositive_central_order():
    # a central order of 0 used to spin forever in the l-power check
    for bad in (0, -2):
        with pytest.raises(InconsistentPresentation):
            from_class2_presentation(2, R2, {(0, 1): (1,)}, [(1,), (1,)], central_orders=[bad])


def test_group_order_bound():
    too_big = [
        ("cyclic", {"ell": 2, "k": 10}),
        ("cyclic", {"ell": 3, "k": 10**9}),
        ("elementary_abelian", {"ell": 2, "d": 10}),
        ("abelian_product", {"ell": 3, "exponents": [3, 3]}),
        ("heisenberg", {"ell": 11}),
        ("unitriangular3", {"ell": 2, "n": 4}),
        ("free_class2", {"d": 4, "ell": 2, "n": 1}),
    ]
    for name, params in too_big:
        with pytest.raises(SizeBound):
            catalog(name, params)
    with pytest.raises(SizeBound, match="limit 512, got 2\\^10"):
        from_class2_presentation(5, R2, {}, [(1, 0, 0, 0, 0)] * 5)
    with pytest.raises(SizeBound, match="limit 512, got 513"):
        from_cayley_table([[(a + b) % 513 for b in range(513)] for a in range(513)], [1])


def test_descending_step_q8():
    q8 = catalog("quaternion8")
    h = descending_step(q8, R2)
    assert len(h) == 2  # the center {1, -1}
    center = [x for x in q8.elements() if all(q8.mul(x, y) == q8.mul(y, x) for y in q8.elements())]
    assert sorted(h.elements) == sorted(center)


def test_descending_step_klein_trivial():
    g = from_cayley_table(klein_table(), [1, 2], ell=2)
    assert len(descending_step(g, R2)) == 1


def test_descending_step_z4():
    z4 = catalog("cyclic", {"ell": 2, "k": 2})
    h = descending_step(z4, R2)
    assert len(h) == 2  # squares in Z/4


def test_quotient_q8_by_center():
    q8 = catalog("quaternion8")
    h = descending_step(q8, R2)
    g, proj = quotient(q8, h)
    assert g.order == 4
    assert all(g.elt_order(x) in (1, 2) for x in g.elements())  # Klein four
    for a in q8.elements():
        for b in q8.elements():
            assert proj[q8.mul(a, b)] == g.mul(proj[a], proj[b])


def test_quotient_by_trivial_and_full():
    g = from_cayley_table(klein_table(), [1, 2], ell=2)
    q1, _ = quotient(g, Subgroup.generated(g, ()))
    assert q1.order == g.order
    q2, _ = quotient(g, Subgroup.generated(g, (1, 2)))
    assert q2.order == 1


def test_abelianization_q8():
    q8 = catalog("quaternion8")
    orders, coords, _, _ = abelianization(q8)
    assert orders == (2, 2)


def test_abelianization_heisenberg():
    h = catalog("heisenberg", {"ell": 3})
    orders, _, _, _ = abelianization(h)
    assert orders == (3, 3)


def test_abelianization_of_abelian():
    g = catalog("abelian_product", {"ell": 2, "exponents": [2, 1]})
    orders, coords, _, _ = abelianization(g)
    assert orders == (4, 2)
    # coords really decompose the group
    seen = {coords[x] for x in g.elements()}
    assert len(seen) == 8


def test_abelian_structure_brute_force():
    # every abelian catalog case: the coordinate map must be an isomorphism
    for spec in ([1, 1], [2], [2, 1], [1, 1, 1], [3]):
        g = catalog("abelian_product", {"ell": 2, "exponents": spec})
        st = abelian_structure(g)
        assert sorted(st.orders, reverse=True) == sorted((2**e for e in spec), reverse=True)
        for x in g.elements():
            assert st.from_coords(st.coords[x]) == x
        for x in g.elements():
            for y in g.elements():
                z = g.mul(x, y)
                want = tuple((a + b) % o for a, b, o in zip(st.coords[x], st.coords[y], st.orders))
                assert st.coords[z] == want


def test_make_extension_q8():
    q8 = catalog("quaternion8")
    ext = make_extension(q8, R2)
    assert ext.d == 2
    assert len(ext.kernel) == 2
    assert ext.quotient.order == 4
    assert ext.section[ext.quotient.identity] == q8.identity
    for x in ext.quotient.elements():
        assert ext.projection[ext.section[x]] == x
    # conjugation preserves the kernel
    ker = set(ext.kernel.elements)
    for g in q8.elements():
        for h in ext.kernel.elements:
            assert q8.conj(g, h) in ker


def test_make_extension_not_free():
    g = catalog("abelian_product", {"ell": 2, "exponents": [1, 2]})
    with pytest.raises(QuotientNotFree):
        make_extension(g, RingConfig(2, 2))


def test_make_extension_abelian_full():
    g = catalog("abelian_product", {"ell": 2, "exponents": [2, 2]})
    ext = make_extension(g, RingConfig(2, 2))
    assert len(ext.kernel) == 1
    assert ext.d == 2
    assert ext.quotient.order == 16


def test_catalog_orders():
    assert catalog("quaternion8").order == 8
    assert catalog("dihedral8").order == 8
    assert catalog("heisenberg", {"ell": 3}).order == 27
    assert catalog("wreath_z4_z2").order == 32
    assert catalog("free_class2", {"d": 2, "ell": 2, "n": 1}).order == 32
    assert catalog("unitriangular3", {"ell": 2, "n": 2}).order == 64
    assert catalog("cyclic", {"ell": 2, "k": 1}).order == 2


def test_catalog_dihedral_vs_quaternion():
    d8 = catalog("dihedral8")
    orders = sorted(d8.elt_order(x) for x in d8.elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_wreath_extension():
    w = catalog("wreath_z4_z2")
    ext = make_extension(w, R2)
    assert len(ext.kernel) == 8
    hgrp, _, _ = ext.kernel.as_group()
    st = abelian_structure(hgrp)
    assert st.orders == (4, 2)
    assert ext.d == 2
    assert all(ext.quotient.elt_order(x) in (1, 2) for x in ext.quotient.elements())


def test_unknown_catalog():
    with pytest.raises(UnknownCatalogEntry):
        catalog("monster")


def test_group_from_json():
    g = group_from_json({"cayley": klein_table(), "generators": [1, 2]}, ell=2)
    assert g.order == 4
    g2 = group_from_json({"catalog": "quaternion8"})
    assert g2.order == 8
    g3 = group_from_json(
        {"class2": {"d": 2, "ell": 2, "n": 1, "commutators": {"0,1": [1]},
                    "powers": [[1], [1]], "central_orders": [2]}}
    )
    assert g3.order == 8
    with pytest.raises(ValueError):
        group_from_json({"nope": 1})


def test_free_class2_structure():
    g = catalog("free_class2", {"d": 2, "ell": 2, "n": 1})
    ext = make_extension(g, R2)
    assert len(ext.kernel) == 8
    hgrp, _, _ = ext.kernel.as_group()
    assert abelian_structure(hgrp).orders == (2, 2, 2)


def test_descending_step_normal_with_abelian_quotient():
    cases = [
        ("quaternion8", R2, None),
        ("dihedral8", R2, None),
        ("heisenberg", R3, {"ell": 3}),
        ("wreath_z4_z2", R2, None),
        ("unitriangular3", R4, {"ell": 2, "n": 2}),
    ]
    for name, ring, params in cases:
        g = catalog(name, params)
        h = descending_step(g, ring)
        assert h.is_normal()
        q, _ = quotient(g, h)
        assert q.is_abelian()
        assert all(q.power(x, ring.modulus) == q.identity for x in q.elements())
