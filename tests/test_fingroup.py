"""Group constructors, descending series, quotients, and the catalog."""

import random
from functools import reduce
from itertools import product as iproduct

import pytest

from helpers import per_pair_catalog
from soclecoh import fingroup
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


def cubic_associative(t):
    """Test-local oracle: (ab)c = a(bc) over every triple."""
    n = len(t)
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n))


def has_identity_inverses_generation(t, gens):
    """Test-local oracle for the other group axioms: a two-sided identity,
    two-sided inverses, and generators whose two-sided closure is everything."""
    n = len(t)
    ids = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    if not ids:
        return False
    e = ids[0]
    if not all(any(t[a][b] == e == t[b][a] for b in range(n)) for a in range(n)):
        return False
    reach, frontier = {e}, [e]
    while frontier:
        x = frontier.pop()
        for y in [t[x][g] for g in gens] + [t[g][x] for g in gens]:
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    return len(reach) == n


def one_entry_corruptions(rng, per_group):
    """Tables of five catalog groups, each untouched and then with one random
    entry changed per_group times, with the group's generators."""
    groups = [
        catalog("quaternion8"),
        catalog("dihedral8"),
        catalog("wreath_z4_z2"),
        catalog("unitriangular3", {"ell": 2, "n": 1}),
        catalog("abelian_product", {"ell": 2, "exponents": [2, 1]}),
    ]
    for g in groups:
        yield [list(row) for row in g.cayley], g.generators
        for _ in range(per_group):
            t = [list(row) for row in g.cayley]
            a, b = rng.randrange(g.order), rng.randrange(g.order)
            t[a][b] = rng.choice([v for v in g.elements() if v != t[a][b]])
            yield t, g.generators


def twisted_tables(rng, count):
    """Tables on (u, h, k) in Z/2 x Z/2 x Z/4 with the product
    (u + v + beta(k, l), h + i, k + l) for a random normalized beta: a loop
    that is associative exactly when beta is a 2-cocycle.

    Any generator detects a single changed entry of a group table, so those
    alone cannot tell whether every generator is tested.  Here s = (0, 1, 0)
    and s = (1, 0, 0) pass Light's test for every beta; only the last
    generator (0, 0, 1) can expose a beta that is not a cocycle.
    """
    elems = list(iproduct(range(2), range(2), range(4)))
    index = {e: i for i, e in enumerate(elems)}
    gens = [index[(0, 1, 0)], index[(1, 0, 0)], index[(0, 0, 1)]]
    for _ in range(count):
        beta = [[rng.randrange(2) if k and l else 0 for l in range(4)] for k in range(4)]
        table = [
            [index[((u + v + beta[k][l]) % 2, (h + i) % 2, (k + l) % 4)] for v, i, l in elems]
            for u, h, k in elems
        ]
        yield table, gens


def test_light_test_matches_cubic_scan():
    # a table is accepted exactly when the cubic scan and the other axioms
    # accept it, and an associativity witness (a, b, s) is a real failure
    # with s a generator
    rng = random.Random(5)
    cases = [*one_entry_corruptions(rng, 300), *twisted_tables(rng, 200)]
    accepted_count = witnessed = 0
    for t, gens in cases:
        expected = cubic_associative(t) and has_identity_inverses_generation(t, gens)
        try:
            from_cayley_table(t, gens)
            accepted = True
        except (NotAGroup, GeneratorsDontGenerate) as exc:
            accepted = False
            if str(exc).startswith("associativity fails"):
                x, y, s = exc.witness
                assert s in gens and t[t[x][y]][s] != t[x][t[y][s]]
                witnessed += 1
        assert accepted == expected, t
        accepted_count += accepted
    assert accepted_count > 5 and witnessed > 600


def per_pair_class2_table(d, q, comm_map, powers, central_orders):
    """Test-local oracle: the normal-form product of every pair of words."""
    elems = [
        (a, c)
        for a in iproduct(range(q), repeat=d)
        for c in iproduct(*(range(o) for o in central_orders))
    ]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        a, cx = x
        b, cy = y
        cz = [(u + v) % o for u, v, o in zip(cx, cy, central_orders)]
        for (i, j), w in comm_map.items():
            for k, wk in enumerate(w):
                cz[k] = (cz[k] - a[j] * b[i] * wk) % central_orders[k]
        na = []
        for i in range(d):
            t = a[i] + b[i]
            if t >= q:
                t -= q
                for k, pk in enumerate(powers[i]):
                    cz[k] = (cz[k] + pk) % central_orders[k]
            na.append(t)
        return tuple(na), tuple(cz)

    return elems, [[index[mul(x, y)] for y in elems] for x in elems]


def random_class2_presentations(count, seed):
    """Seeded presentations of order at most 256, consistent or not: central
    orders up to l^2 over Z/l make some of them non-associative."""
    rng = random.Random(seed)
    for _ in range(count):
        ell = rng.choice([2, 3])
        n = rng.choice([1, 1, 2]) if ell == 2 else 1
        d = rng.randint(1, 3 if ell == 2 and n == 1 else 2)
        s = rng.randint(0, 2 if ell == 2 else 1)
        central_orders = [rng.choice([ell, ell, ell * ell]) for _ in range(s)]
        comms = {
            (i, j): tuple(rng.randrange(4) for _ in range(s))
            for i in range(d) for j in range(i + 1, d) if rng.random() < 0.8
        }
        powers = [tuple(rng.randrange(4) for _ in range(s)) for _ in range(d)]
        yield d, RingConfig(ell, n), comms, powers, central_orders


def test_class2_table_matches_per_pair_product(monkeypatch):
    presentations = list(random_class2_presentations(120, seed=9))
    for d, ring, comms, powers, central_orders in presentations:
        args = d, ring.modulus, comms, powers, central_orders
        assert fingroup._class2_table(*args) == per_pair_class2_table(*args)

    def outcome(build):
        try:
            g = build()
        except InconsistentPresentation as exc:
            return type(exc)
        return g.cayley, g.labels, g.generators

    builds = [
        lambda name=name, params=params: catalog(name, params)
        for name, params in [
            ("quaternion8", None),
            ("dihedral8", None),
            ("heisenberg", {"ell": 3}),
            ("heisenberg", {"ell": 5}),
            ("free_class2", {"d": 2, "ell": 2, "n": 1}),
            ("free_class2", {"d": 2, "ell": 3, "n": 1}),
            ("free_class2", {"d": 3, "ell": 2, "n": 1}),
        ]
    ] + [lambda p=p: from_class2_presentation(*p) for p in presentations]
    outcomes = [outcome(build) for build in builds]
    monkeypatch.setattr(fingroup, "_class2_table", per_pair_class2_table)
    assert [outcome(build) for build in builds] == outcomes
    assert InconsistentPresentation in outcomes
    assert sum(o is not InconsistentPresentation for o in outcomes) > 40


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


def test_abelian_structure_brute_force():
    # every abelian catalog case: the coordinate map must be an isomorphism
    for spec in ([1, 1], [2], [2, 1], [1, 1, 1], [3]):
        g = catalog("abelian_product", {"ell": 2, "exponents": spec})
        st = abelian_structure(g)
        assert sorted(st.orders, reverse=True) == sorted((2**e for e in spec), reverse=True)
        for x in g.elements():
            assert reduce(g.mul, map(g.power, st.basis, st.coords[x]), g.identity) == x
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
    # Z/2 x Z/4 and Z/2 have top quotients that are not free over Z/4
    for name, params in (
        ("abelian_product", {"ell": 2, "exponents": [1, 2]}),
        ("cyclic", {"ell": 2, "k": 1}),
    ):
        with pytest.raises(QuotientNotFree):
            make_extension(catalog(name, params), RingConfig(2, 2))


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


def exponent_lists(total):
    """Every list of positive exponents summing to total, in every order."""
    if total == 0:
        yield []
    for first in range(1, total + 1):
        for rest in exponent_lists(total - first):
            yield [first, *rest]


def oracle_cases():
    """Catalog parameter sets up to order 512 for the class-2 presentations
    of the abelian and unitriangular families: every cyclic, elementary
    abelian, Heisenberg and unitriangular case at l = 2, 3, 5, 7; every
    exponent list of order at most 64 (l = 2), 27, 125 or 49 (l = 3, 5, 7);
    larger primes; and abelian products of order 243 to 512 in several
    shapes."""
    for ell, top in [(2, 9), (3, 5), (5, 3), (7, 3), (11, 2), (13, 2), (23, 1)]:
        for k in range(top + 1):
            yield "cyclic", {"ell": ell, "k": k}
            yield "elementary_abelian", {"ell": ell, "d": k}
            if 1 <= k and 3 * k <= top:
                yield "unitriangular3", {"ell": ell, "n": k}
        if 3 <= top:
            yield "heisenberg", {"ell": ell}
    for ell, top in [(2, 6), (3, 3), (5, 3), (7, 2)]:
        for total in range(top + 1):
            for exps in exponent_lists(total):
                yield "abelian_product", {"ell": ell, "exponents": exps}
    for exps in ([3, 3, 3], [2, 2, 2, 1, 1, 1]):
        yield "abelian_product", {"ell": 2, "exponents": exps}
    for exps in ([2, 2, 1], [1, 1, 3]):
        yield "abelian_product", {"ell": 3, "exponents": exps}
    yield "abelian_product", {"ell": 7, "exponents": [1, 2]}


def test_class2_catalog_families_match_per_pair_oracle():
    cases = list(oracle_cases())
    orders = set()
    for name, params in cases:
        got, want = catalog(name, params), per_pair_catalog(name, params)
        assert (got.cayley, got.generators, got.identity) == (
            want.cayley, want.generators, want.identity,
        ), (name, params)
        orders.add(got.order)
    assert {1, 343, 512} <= orders and len(cases) > 150


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
        h.normality_witness()
        q, _ = quotient(g, h)
        assert q.is_abelian()
        assert all(q.power(x, ring.modulus) == q.identity for x in q.elements())
