"""The obstruction map: three routes, the quotient recipe, and the theorem."""

import hashlib
import json
import random
from dataclasses import replace
from math import gcd
from itertools import product

import pytest

from helpers import (
    TWISTED_CLASS2,
    build_g_phi,
    connecting_dense,
    connecting_via_lift,
    d2_via_g_phi,
    image_membership_via_solve,
    mixer32,
    per_phi_route_agreement,
    phi_is_zero,
    psi_m2_formula_via_add,
    twisted_class2_spec,
)
from soclecoh import gmodule
from soclecoh.cli import _cochain_dump, _cochain_hash, _phi_matrix
from soclecoh.cohomology import CochainComplex, Cochain, cup, is_cocycle
from soclecoh.errors import EquivarianceFailure, GammaNotInSocleLevel, WrongLevel
from soclecoh.fingroup import catalog, group_from_json, make_extension
from soclecoh.gmodule import descale_vec, mat_apply, scale_vec, vec_reduce
from soclecoh.obstruction import DEFAULT_HOM_ENUM_BOUND, ObstructionContext, PhiMap
from soclecoh.zmodlin import HowellBasis, LinearSolver, RingConfig, contains

R2 = RingConfig(2, 1)
R3 = RingConfig(3, 1)
R4 = RingConfig(2, 2)
R5 = RingConfig(5, 1)

_ctx_cache = {}


def ctx_for(name, ring=R2, params=None):
    key = (name, ring, tuple(sorted((params or {}).items())))
    if key not in _ctx_cache:
        if name == "mixer32":
            ext = make_extension(mixer32(), ring)
        else:
            ext = make_extension(catalog(name, params), ring)
        _ctx_cache[key] = ObstructionContext(ext, label=name)
    return _ctx_cache[key]


# -- phi construction ------------------------------------------------------------


def test_phi_from_gamma_invariant_is_zero():
    ctx = ctx_for("quaternion8")
    for gamma in ctx.enumerate_jm(1):
        assert phi_is_zero(ctx.phi_from_gamma(gamma, 2))


def test_phi_from_gamma_level_check():
    ctx = ctx_for("mixer32")
    deep = [g for g in ctx.enumerate_jm(2) if not ctx.em.socle.member(g, 1)]
    assert deep
    with pytest.raises(GammaNotInSocleLevel):
        ctx.phi_from_gamma(deep[0], 1)


def test_phi_from_gamma_nonzero_beyond_first_level():
    ctx = ctx_for("mixer32")
    deep = [g for g in ctx.enumerate_jm(2) if not ctx.em.socle.member(g, 1)]
    for gamma in deep:
        phi = ctx.phi_from_gamma(gamma, 2)
        assert not phi_is_zero(phi)
        # image lands in J_1 and is nonzero
        for row in phi.matrix:
            assert ctx.em.socle.member(row, 1)


def test_phi_additivity():
    ctx = ctx_for("mixer32")
    rng = random.Random(7)
    gammas = list(ctx.enumerate_jm(2))
    orders = ctx.em.j.module.orders
    for _ in range(10):
        g1, g2 = rng.choice(gammas), rng.choice(gammas)
        s = vec_reduce(tuple(a + b for a, b in zip(g1, g2)), orders)
        m1 = ctx.phi_from_gamma(g1, 2).matrix
        m2 = ctx.phi_from_gamma(g2, 2).matrix
        ms = ctx.phi_from_gamma(s, 2).matrix
        assert ms == tuple(
            vec_reduce(tuple(a + b for a, b in zip(r1, r2)), orders)
            for r1, r2 in zip(m1, m2)
        )


def test_phi_matrix_validation():
    ctx = ctx_for("mixer32")
    im = ctx.em.i_m(2)
    j = ctx.em.j.module
    # a non-equivariant matrix must be rejected: count accepted = |Hom_G|
    _, basis = ctx.hom_phi_basis(2)
    accepted = 0
    for rows in product(product(range(2), repeat=j.rank), repeat=im.module.rank):
        try:
            ctx.phi_from_matrix(2, rows)
            accepted += 1
        except EquivarianceFailure:
            pass
    assert accepted == basis.span_size()
    assert accepted < 2 ** (j.rank * im.module.rank)


def test_phi_image_outside_socle_level_rejected(monkeypatch):
    ctx = ctx_for("mixer32")
    deep = [g for g in ctx.enumerate_jm(2) if not ctx.em.socle.member(g, 1)]
    phi = ctx.phi_from_gamma(deep[0], 2)
    socle = ctx.em.socle
    # pretend J_1 = 0, so the nonzero image of phi escapes it
    empty = HowellBasis(socle.steps[0].ambient_rank, (), ctx.ring)
    monkeypatch.setattr(ctx.em, "socle", replace(socle, steps=(empty,) + socle.steps[1:]))
    with pytest.raises(EquivarianceFailure, match="escaped"):
        ctx.phi_from_matrix(2, phi.matrix)


# -- route A -------------------------------------------------------------------


def test_i_m_built_once_per_level(monkeypatch):
    # Lambda_m extends the cached I_m instead of building its own
    calls = []

    def counted(gr, m):
        calls.append(m)
        return build(gr, m)

    build = gmodule.i_m
    monkeypatch.setattr(gmodule, "i_m", counted)
    ext = make_extension(catalog("unitriangular3", {"ell": 2, "n": 2}), R4)
    ctx = ObstructionContext(ext)
    for phi in ctx.random_phi(2, random.Random(3), 3):
        ctx.psi_generic(phi)
    assert calls == [2]


PSI_CASES = [
    ("quaternion8", R2, None, 2),
    ("unitriangular3", R4, {"ell": 2, "n": 2}, 2),
    ("unitriangular3", R4, {"ell": 2, "n": 2}, 3),
    ("mixer32", R2, None, 2),
]


def test_psi_generic_builds_and_runs_no_solver(monkeypatch):
    # once the context, the phis and the level's image basis are built, Psi
    # and image membership need no linear solve: the connecting map contracts
    # d2 with column 0 of mid's matrices, the H^3 decision sums Psi over
    # phi_3, and membership is one containment in the image basis
    calls = []
    solve, init = LinearSolver.solve, LinearSolver.__init__

    def counted_solve(self, b):
        calls.append("solve")
        return solve(self, b)

    def counted_init(self, *args, **kwargs):
        calls.append("__init__")
        init(self, *args, **kwargs)

    for name, ring, params, m in PSI_CASES:
        ctx = ctx_for(name, ring, params)
        phis = list(ctx.random_phi(m, random.Random(m), 6))
        ctx.image_membership(phis[0])
        monkeypatch.setattr(LinearSolver, "solve", counted_solve)
        monkeypatch.setattr(LinearSolver, "__init__", counted_init)
        for phi in phis:
            ctx.psi_generic(phi)
            ctx.image_membership(phi)
        monkeypatch.undo()
        assert phis and calls == [], (name, m)


def test_psi_generic_takes_no_whole_differential(monkeypatch):
    # the connecting map is a contraction, and neither d2(phi) nor Psi is
    # checked for the cocycle property, so no per-phi path runs the bar
    # differential: not psi_generic, not obstruction_with_routes once its
    # level's certificate is built, and not verify_theorem at all.  The
    # count is the same for 2 phis as for 6
    from soclecoh import cohomology

    calls = []
    build = cohomology.differential

    def counted(f, last=None):
        calls.append(f.degree)
        return build(f, last)

    def count(run):
        calls.clear()
        monkeypatch.setattr(cohomology, "differential", counted)
        run()
        monkeypatch.undo()
        return len(calls)

    for name, ring, params, m in PSI_CASES:
        ctx = ctx_for(name, ring, params)
        ctx.route_certificate(m, m == 2)
        for n in (2, 6):
            phis = list(ctx.random_phi(m, random.Random(m), n))
            counts = [
                count(lambda: [ctx.psi_generic(phi) for phi in phis]),
                count(lambda: [ctx.obstruction_with_routes(phi, m == 2) for phi in phis]),
                count(lambda: ctx.verify_theorem(m, ("sampled", 5, n), max_order=64)),
            ]
            assert counts == [0, 0, 0], (name, m, n, counts)


def test_a_broken_d2_fails_the_degree2_oracle(monkeypatch):
    # a d2_on_E01 whose output is off by one entry: psi_generic no longer
    # refuses it, but the oracle that psi_checks runs on every phi,
    # is_cocycle(d2(phi)), does
    from soclecoh import obstruction

    ctx = ctx_for("mixer32")
    phis = [phi for phi in ctx.enumerate_phi(2) if not phi_is_zero(phi)]
    assert phis and all(is_cocycle(ctx.d2_of_phi(phi)) for phi in phis)
    build_d2 = obstruction.d2_on_E01

    def perturbed_d2(*args):
        d2c = build_d2(*args)
        return d2c.add(Cochain.make(d2c.action, 2, {(1, 2): (1,) * d2c.action.module.rank}))

    monkeypatch.setattr(obstruction, "d2_on_E01", perturbed_d2)
    for phi in phis:
        ctx.psi_generic(phi)
        assert not is_cocycle(ctx.d2_of_phi(phi)), phi.matrix


def test_psi_generic_refuses_a_broken_per_phi_premise():
    # Psi = delta(d2(phi)) is a cocycle because d2(phi) is, and d2(phi) is a
    # cocycle because alpha is and x_phi is equivariant and well-defined.
    # psi_generic refuses the one premise that varies with phi and is not
    # fixed by PhiMap: x_phi must be equivariant (d2_on_E01).  The premises
    # fixed per context are refused where they are built: alpha in
    # extension_cocycle, the modules in GModule, the sequence in CoefficientSES.
    ctx = ctx_for("mixer32")

    # phi matrices that only fail to commute with the action, built past
    # PhiMap's validation: their x_phi is not equivariant either
    refused = 0
    for rows in product(product(range(2), repeat=3), repeat=2):
        try:
            ctx.phi_from_matrix(2, rows)
            continue
        except EquivarianceFailure as exc:
            if "commute" not in str(exc):
                continue
        phi = object.__new__(PhiMap)
        object.__setattr__(phi, "ctx", ctx)
        object.__setattr__(phi, "m", 2)
        object.__setattr__(phi, "matrix", rows)
        with pytest.raises(EquivarianceFailure, match="not G-equivariant"):
            ctx.psi_generic(phi)
        refused += 1
    assert refused


def test_dual_transpose_of_a_well_defined_phi_is_well_defined():
    # PhiMap checks o_a phi[a][b] = 0 mod o_b; then x = dual_transpose(phi)
    # has o_b x[b][a] = 0 mod o_a, so x is well-defined on the capped H^ab
    # (the proof is in d2_on_E01's docstring).  Random matrices over mixed
    # orders of 2, 3 and 5 powers, not only equivariant ones
    rng = random.Random(26)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        orders_in = [p ** rng.randrange(4) for _ in range(rng.randrange(1, 4))]
        orders_out = [p ** rng.randrange(4) for _ in range(rng.randrange(1, 4))]
        phi = [
            [ob // gcd(ob, oa) * rng.randrange(gcd(ob, oa)) for ob in orders_out]
            for oa in orders_in
        ]
        for oa, row in zip(orders_in, phi):
            assert all(oa * v % ob == 0 for v, ob in zip(row, orders_out))
        x = gmodule.dual_transpose(phi, orders_in, orders_out)
        assert all(
            ob * v % oa == 0 for ob, row in zip(orders_out, x) for v, oa in zip(row, orders_in)
        ), (orders_in, orders_out, phi)


R8 = RingConfig(2, 3)

# Every catalog family, over each ring the tests build it with, and the
# twisted class-2 fixtures: all phis at m = 2 and 3 where enumerate_phi runs.
# unitriangular3(2, 3) enumerates 64 phis per level, but its guard pass alone
# takes about 45 s per level, so it gets 3 seeded draws per level.  The
# |G| = 32 and |G| = 64 draws are the phis of test_cli's pinned obstruction
# runs: 5 and 2 draws at m = 2 from seed 1.
GUARD_CASES = [
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
    ("wreath_z4_z2", R2, None),
    ("free_class2", R2, {"d": 2, "ell": 2, "n": 1}),
    ("free_class2", R3, {"d": 2, "ell": 3, "n": 1}),
    ("mixer32", R2, None),
] + [("twisted", RingConfig(ell, n), (ell, n, z)) for ell, n, z in TWISTED_CLASS2]
SEEDED_GUARD_CASES = [
    ("unitriangular3", R8, {"ell": 2, "n": 3}, (2, 3), 3, None),
    ("abelian_product", R2, {"ell": 2, "exponents": (2, 2, 2, 1, 1)}, (2,), 5, 1),
    ("abelian_product", R2, {"ell": 2, "exponents": (2, 2, 2, 1, 1, 1)}, (2,), 2, 1),
]


def guard_ctx(name, ring, params):
    if name != "twisted":
        return ctx_for(name, ring, params)
    key = (name, ring, params)
    if key not in _ctx_cache:
        group = group_from_json(twisted_class2_spec(*params))
        _ctx_cache[key] = ObstructionContext(make_extension(group, ring))
    return _ctx_cache[key]


def blob_hash(c):
    """The Psi digest as the CLI computed it before streaming: sha256 of the
    whole compact, sorted JSON text of _cochain_dump."""
    blob = json.dumps(_cochain_dump(c), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def psi_checks():
    """One record per phi of GUARD_CASES and SEEDED_GUARD_CASES: the factored
    Psi that psi_generic returns against its materialized cochain, the dense
    contraction and the lifted bar differential, and the cocycle guards that
    psi_generic does not run, on Psi and on d2(phi).  Each Psi is dropped
    once checked, since together they take hundreds of MB."""
    def contexts():
        for name, ring, params in GUARD_CASES:
            yield (name, params), guard_ctx(name, ring, params), (2, 3), None
        for name, ring, params, levels, count, seed in SEEDED_GUARD_CASES:
            ctx = ObstructionContext(make_extension(catalog(name, params), ring))
            yield (name, params), ctx, levels, (count, seed)

    out = []
    for case, ctx, levels, draws in contexts():
        for m in levels:
            if draws is None:
                phis = ctx.enumerate_phi(m)
            else:
                count, seed = draws
                phis = ctx.random_phi(m, random.Random(m if seed is None else seed), count)
            ses = ctx.dual_sequence(m)
            points = {t for chain in ctx.resolution.chain_map[3].values() for t in chain}
            hab, quot = ctx.alpha.action.module.orders, ses.quot.module.orders
            for phi in phis:
                res = ctx.psi_generic(phi)
                psi = res.psi.materialize()
                f = ctx.d2_of_phi(phi)
                dense = connecting_dense(ses, f).values
                x = ctx.x_phi_matrix(phi)
                out.append({
                    "case": (case, m),
                    "size": len(psi.values),
                    "cocycle": is_cocycle(psi),
                    "d2_cocycle": is_cocycle(f),
                    "x_well_defined": all(
                        ok * v % oj == 0 for ok, row in zip(hab, x) for v, oj in zip(row, quot)
                    ),
                    # the chunked hash, the whole blob, and the entry-by-entry stream
                    "streamed_hash": _cochain_hash(res.psi) == blob_hash(psi) == _cochain_hash(psi),
                    "entrywise": list(res.psi.entries()) == sorted(dense.items())
                    and psi.values == dense == connecting_via_lift(ses, f).values,
                    "points": all(res.psi.value(t) == psi.value(t) for t in points),
                    "bit": res.is_zero_class == ctx.resolution.vanishes_on_chain_map(psi),
                })
    return out


def failing(psi_checks, key):
    return [rec["case"] for rec in psi_checks if not rec[key]]


def test_every_psi_passes_the_degree3_guard(psi_checks):
    # psi_generic no longer runs is_cocycle on Psi; this runs it on every Psi
    # the cases produce, so a route that broke the cocycle property would show
    assert failing(psi_checks, "cocycle") == []
    assert any(rec["size"] for rec in psi_checks)


def test_every_d2_of_phi_passes_the_degree2_guard(psi_checks):
    # psi_generic does not run is_cocycle on d2(phi): alpha is a 2-cocycle
    # and x_phi is equivariant and well-defined, so d(x_phi(alpha)) =
    # x_phi(d alpha) = 0.  This runs the guard, and checks well-definedness,
    # on every phi the cases produce
    assert failing(psi_checks, "d2_cocycle") == []
    assert failing(psi_checks, "x_well_defined") == []


def test_streamed_psi_hash_matches_the_json_blob(psi_checks):
    # _cochain_hash feeds the compact sorted JSON of the factored Psi's
    # entries to sha256 piece by piece; the digest is that of the whole blob
    # of the materialized cochain
    assert failing(psi_checks, "streamed_hash") == []
    sizes = [rec["size"] for rec in psi_checks]
    assert 0 in sizes and max(sizes) > 100_000
    empty = Cochain.zero(ctx_for("quaternion8").r_action, 3)
    assert _cochain_hash(empty) == blob_hash(empty)


def test_factored_psi_matches_the_dense_and_lifted_oracles(psi_checks):
    # entries() streams exactly the sorted items of the dense contraction,
    # which agrees with the lifted bar differential; value(t) agrees with the
    # materialized cochain on the chain map's tuples, so the H^3 bit read
    # through it is the bit of the materialized Psi
    assert failing(psi_checks, "entrywise") == []
    assert failing(psi_checks, "points") == []
    assert failing(psi_checks, "bit") == []
    assert {rec["case"][0][0] for rec in psi_checks if rec["size"] > 100_000} == {"unitriangular3"}


def test_psi_zero_map():
    ctx = ctx_for("quaternion8")
    phi = ctx.phi_from_matrix(2, ((0,), (0,)))
    res = ctx.psi_generic(phi)
    psi = res.psi.materialize()
    witness = ctx.r_complex.coboundary_witness(psi)
    assert psi.is_zero()
    assert res.is_zero_class
    assert witness.is_zero()


def test_psi_q8_nonzero_maps_have_nonzero_class():
    ctx = ctx_for("quaternion8")
    count_zero = 0
    for phi in ctx.enumerate_phi(2):
        res = ctx.psi_generic(phi)
        if res.is_zero_class:
            count_zero += 1
            assert phi_is_zero(phi)
    assert count_zero == 1


def test_psi_q8_classes_in_polynomial_basis():
    # the three nonzero maps give x^3+x^2y+xy^2, x^2y+xy^2+y^3, x^3+y^3
    ctx = ctx_for("quaternion8")
    xs = ctx.dual_basis_cochains()
    x, y = xs
    monos = {
        "x3": cup(x, cup(x, x)),
        "x2y": cup(x, cup(x, y)),
        "xy2": cup(x, cup(y, y)),
        "y3": cup(y, cup(y, y)),
    }
    cc = ctx.r_complex

    def class_of(psi):
        found = []
        for bits in product(range(2), repeat=4):
            cand = None
            for b, mono in zip(bits, monos.values()):
                if b:
                    cand = mono if cand is None else cand.add(mono)
            cand = cand or monos["x3"].add(monos["x3"], sign=-1)
            if cc.coboundary_witness(psi.add(cand, sign=-1)) is not None:
                found.append(bits)
        assert len(found) == 1  # H^3 basis: class is unique
        return dict(zip(monos.keys(), found[0]))

    got = set()
    for phi in ctx.enumerate_phi(2):
        if phi_is_zero(phi):
            continue
        res = ctx.psi_generic(phi)
        cls = class_of(res.psi.materialize())
        got.add(tuple(sorted(k for k, v in cls.items() if v)))
    assert got == {
        tuple(sorted(("x3", "x2y", "xy2"))),
        tuple(sorted(("x2y", "xy2", "y3"))),
        tuple(sorted(("x3", "y3"))),
    }


def test_psi_of_phi_gamma_always_zero_class():
    for name, ring, params in (
        ("quaternion8", R2, None),
        ("dihedral8", R2, None),
        ("heisenberg", R3, {"ell": 3}),
        ("wreath_z4_z2", R2, None),
        ("mixer32", R2, None),
    ):
        ctx = ctx_for(name, ring, params)
        for m in (2, 3):
            if m > ctx.em.socle.stabilization + 1:
                continue
            for gamma in ctx.enumerate_jm(min(m, len(ctx.em.socle.steps))):
                phi = ctx.phi_from_gamma(gamma, m)
                assert ctx.psi_generic(phi).is_zero_class, (name, m, gamma)


# -- routes B and C ------------------------------------------------------------


def test_routes_agree_q8_m2():
    ctx = ctx_for("quaternion8")
    for phi in ctx.enumerate_phi(2):
        agree = per_phi_route_agreement(ctx, phi, include_m2=True)
        assert agree["generic_vs_closed_entrywise"]
        assert agree["generic_vs_m2_cohomologous"]


def test_routes_agree_mixer_m2_and_m3():
    ctx = ctx_for("mixer32")
    for m in (2, 3):
        for phi in ctx.enumerate_phi(m):
            agree = per_phi_route_agreement(ctx, phi, include_m2=m == 2)
            assert agree["generic_vs_closed_entrywise"], (m, phi.matrix)
            if m == 2:
                assert agree["generic_vs_m2_cohomologous"]


ROUTE_KEYS = ("generic_vs_closed_entrywise", "generic_vs_m2_cohomologous")


def per_phi_and(ctx, m, include_m2):
    """The AND over every phi of the level of the per-phi route oracle."""
    out = dict.fromkeys(ROUTE_KEYS[: 1 + include_m2], True)
    for phi in ctx.enumerate_phi(m):
        for key, ok in per_phi_route_agreement(ctx, phi, include_m2).items():
            out[key] = out[key] and ok
    return out


@pytest.mark.parametrize("name,ring,params", GUARD_CASES)
def test_route_certificate_is_the_and_of_the_per_phi_oracle(name, ring, params):
    ctx = guard_ctx(name, ring, params)
    for m in (2, 3):
        cert = ctx.route_certificate(m, include_m2=m == 2)
        assert list(cert) == list(ROUTE_KEYS[: 1 + (m == 2)])
        assert cert == per_phi_and(ctx, m, m == 2), (name, m)


def test_routed_records_read_a_copy_of_the_certificate():
    ctx = ObstructionContext(make_extension(catalog("unitriangular3", {"ell": 2, "n": 2}), R4))
    phi = next(ctx.random_phi(2, random.Random(1), 1))
    res = ctx.obstruction_with_routes(phi, include_m2=True)
    assert res.agreement == ctx.route_certificate(2, True) == dict.fromkeys(ROUTE_KEYS, True)
    assert res.psi.materialize().same_values(ctx.psi_generic(phi).psi.materialize())
    res.agreement["generic_vs_closed_entrywise"] = False
    assert ctx.route_certificate(2, True)["generic_vs_closed_entrywise"]


# q >= 3: a sign flip in route B is invisible over Z/2
@pytest.mark.parametrize("name,ring,params", [
    ("heisenberg", R3, {"ell": 3}),
    ("unitriangular3", R4, {"ell": 2, "n": 2}),
])
def test_route_certificate_fails_on_a_negated_closed_form(name, ring, params, monkeypatch):
    from soclecoh import obstruction

    pair = obstruction.dual_pair
    monkeypatch.setattr(obstruction, "dual_pair", lambda u, x, o, r: -pair(u, x, o, r))
    ctx = ObstructionContext(make_extension(catalog(name, params), ring))
    cert = ctx.route_certificate(2, include_m2=True)
    assert cert == {"generic_vs_closed_entrywise": False, "generic_vs_m2_cohomologous": True}
    assert cert == per_phi_and(ctx, 2, True)


# q >= 3 again, on groups with level-2 classes Psi != 0: on heisenberg(3)
# every such Psi is a coboundary, and so is each term of the level-2 sum
@pytest.mark.parametrize("name,ring,params", [
    ("free_class2", R3, {"d": 2, "ell": 3, "n": 1}),
    ("unitriangular3", R4, {"ell": 2, "n": 2}),
])
def test_route_certificate_fails_on_a_dropped_cup_term(name, ring, params, monkeypatch):
    # a zero x_i drops the term -x_i cup d2(phi(rho_i)) of the level-2 sum
    xs = ObstructionContext.dual_basis_cochains
    monkeypatch.setattr(
        ObstructionContext, "dual_basis_cochains",
        lambda self: xs(self)[:-1] + [Cochain.zero(self.r_action, 1)],
    )
    ctx = ObstructionContext(make_extension(catalog(name, params), ring))
    cert = ctx.route_certificate(2, include_m2=True)
    assert cert == {"generic_vs_closed_entrywise": True, "generic_vs_m2_cohomologous": False}
    assert cert == per_phi_and(ctx, 2, True)


@pytest.mark.parametrize("name,ring,params", [
    ("mixer32", R2, None),
    ("unitriangular3", R4, {"ell": 2, "n": 2}),
    ("heisenberg", R3, {"ell": 3}),
])
def test_file_phis_lie_in_the_span_of_the_hom_rows(name, ring, params, tmp_path):
    # the premise of route_certificate: a phi read from a file, here each
    # phi_gamma of J_m, lies in the span of the Howell rows of Hom_G(I_m, J)
    ctx = ctx_for(name, ring, params)
    for m in (2, 3):
        hm, basis = ctx.hom_phi_basis(m)
        for gamma in ctx.enumerate_jm(m):
            pf = tmp_path / "phi.json"
            pf.write_text(json.dumps({"m": m, "matrix": ctx.em.phi_gamma_matrix(gamma, m)}))
            phi = ctx.phi_from_matrix(m, _phi_matrix(json.loads(pf.read_text()), m))
            coords = hm.matrix_to_coords(phi.matrix)
            assert contains(basis, scale_vec(coords, hm.module.orders, ring)), (name, m, gamma)


@pytest.mark.parametrize("name,ring,params", GUARD_CASES)
def test_m2_formula_equals_the_sum_of_cochain_adds(name, ring, params):
    # route C adds its d cups into one dict; the oracle sums them with one
    # Cochain.add each, from zero, on every Hom row at level 2
    ctx = guard_ctx(name, ring, params)
    hm, basis = ctx.hom_phi_basis(2)
    for r in basis.rows:
        phi = ctx.phi_from_matrix(2, hm.coords_to_matrix(descale_vec(r, hm.module.orders, ring)))
        got = ctx.psi_m2_formula(phi)
        assert got.action is ctx.r_action and got.degree == 3
        assert got.same_values(psi_m2_formula_via_add(ctx, phi)), (name, phi.matrix)


def test_m2_formula_rejects_other_levels():
    ctx = ctx_for("quaternion8")
    phi = ctx.phi_from_matrix(3, tuple((0,) for _ in range(ctx.em.i_m(3).module.rank)))
    with pytest.raises(WrongLevel):
        ctx.psi_m2_formula(phi)


def test_route_outputs_are_cocycles():
    ctx = ctx_for("mixer32")
    for phi in list(ctx.enumerate_phi(2))[:6]:
        assert is_cocycle(ctx.psi_generic(phi).psi.materialize())
        assert is_cocycle(ctx.psi_closed_form(phi))
        assert is_cocycle(ctx.psi_m2_formula(phi))


def test_generator_permutation_does_not_change_verdicts():
    # permuting sigma amounts to rebuilding the context from a relabeled
    # extension; the zero-class verdict per phi-as-set must be preserved.
    ctx = ctx_for("quaternion8")
    ext = ctx.ext
    from soclecoh.fingroup import ExtensionData

    swapped = ExtensionData(
        total=ext.total,
        kernel=ext.kernel,
        quotient=ext.quotient,
        projection=ext.projection,
        section=tuple(
            ext.section[g] if g == ext.quotient.identity else ext.section[g]
            for g in ext.quotient.elements()
        ),
        sigma=(ext.sigma[1], ext.sigma[0]),
        coords=tuple((c[1], c[0]) for c in ext.coords),
        lifts=(ext.lifts[1], ext.lifts[0]),
        ring=ext.ring,
    )
    # rebuild the section from the swapped normal form words
    g = ext.total
    section = []
    for x in ext.quotient.elements():
        w = g.identity
        for t, c in zip(swapped.lifts, swapped.coords[x]):
            w = g.mul(w, g.power(t, c))
        section.append(w)
    swapped = ExtensionData(
        total=ext.total,
        kernel=ext.kernel,
        quotient=ext.quotient,
        projection=ext.projection,
        section=tuple(section),
        sigma=swapped.sigma,
        coords=swapped.coords,
        lifts=swapped.lifts,
        ring=ext.ring,
    )
    ctx2 = ObstructionContext(swapped, label="q8-swapped")
    verdicts1 = sorted(
        (phi.matrix, ctx.psi_generic(phi).is_zero_class) for phi in ctx.enumerate_phi(2)
    )
    verdicts2 = sorted(
        (phi.matrix, ctx2.psi_generic(phi).is_zero_class) for phi in ctx2.enumerate_phi(2)
    )
    # the I_m coordinates differ, so compare the multiset of verdicts
    assert [v for _, v in verdicts1] == [v for _, v in verdicts2]
    assert sum(v for _, v in verdicts1) == 1


# -- the quotient-group recipe ----------------------------------------------------


def test_g_phi_zero_map():
    ctx = ctx_for("quaternion8")
    phi = ctx.phi_from_matrix(2, ((0,), (0,)))
    data = build_g_phi(ctx, phi)
    assert len(data.h_phi) == len(ctx.ext.kernel)
    assert data.ext_phi.total.order == ctx.ext.quotient.order
    assert data.alpha_phi.is_zero()
    assert data.iso_equivariant


def test_g_phi_q8_injective_character():
    ctx = ctx_for("quaternion8")
    for phi in ctx.enumerate_phi(2):
        if phi_is_zero(phi):
            continue
        data = build_g_phi(ctx, phi)
        assert len(data.h_phi) == 1  # chi is injective on H = Z/2
        assert data.ext_phi.total.order == 8
        assert data.iso_equivariant


def test_g_phi_wreath_rank_one_image():
    ctx = ctx_for("wreath_z4_z2")
    sizes = set()
    for phi in ctx.enumerate_phi(2):
        data = build_g_phi(ctx, phi)
        assert data.iso_equivariant
        assert len(data.h_phi) * data.image_basis.span_size() == len(ctx.ext.kernel)
        if data.image_basis.span_size() == 2:
            sizes.add(len(data.h_phi))
    assert sizes == {4}  # kernel of one character on an order-8 kernel


def test_d2_via_g_phi_matches_route_a():
    for name in ("quaternion8", "wreath_z4_z2", "mixer32"):
        ctx = ctx_for(name)
        for phi in ctx.enumerate_phi(2):
            d2q, witness, data = d2_via_g_phi(ctx, phi)
            assert witness is not None, (name, phi.matrix)
            assert is_cocycle(d2q)


def test_d2_injective_on_top_graded_piece():
    # no nonzero invariant class with (I^{m-1}/I^m)^vee coefficients has a
    # d2 coboundary witness
    from soclecoh.cohomology import d2_on_E01, action_for_quotient_module
    from soclecoh.gmodule import dual, enumerate_scaled_span, hom_g

    for name, m in (("quaternion8", 2), ("mixer32", 2), ("quaternion8", 3)):
        ctx = ctx_for(name)
        em = ctx.em
        # I^{m-1}/I^m inside I_m: quotient of I_{m} by image of I_{m-1}... the
        # graded piece presented as a quotient of I_m coordinates:
        im_m = em.i_m(m)
        prev = em.gr.ideal_basis(m - 1)
        rows = [im_m.project_vec(r[1:]) for r in prev.rows]
        from soclecoh.gmodule import scaled_span

        sub = scaled_span(rows, im_m.module.orders, ctx.ring)
        # graded piece = sub as a module (it is I^{m-1}/I^m inside I/I^m)
        # build it as a standalone module via its Howell coordinates
        from soclecoh.zmodlin import coords_in_basis
        from soclecoh.gmodule import GModule, scale_vec

        o = sub.coordinate_orders()
        acts = []
        for i in range(ctx.ext.d):
            mat = []
            for r in sub.rows:
                x = vec_reduce(
                    tuple(v // (ctx.ring.modulus // oo) for v, oo in zip(r, im_m.module.orders)),
                    im_m.module.orders,
                )
                moved = mat_apply(x, im_m.module.actions[i], im_m.module.orders)
                cs = coords_in_basis(sub, scale_vec(moved, im_m.module.orders, ctx.ring))
                mat.append(tuple(c % oo for c, oo in zip(cs, o)))
            acts.append(tuple(mat))
        graded = GModule(ctx.ring, o, tuple(acts))
        gdual = dual(graded)
        act = action_for_quotient_module(ctx.ext, gdual)
        hm, basis = hom_g(em.j.hab, gdual)
        cc = CochainComplex(act)
        for c in enumerate_scaled_span(basis, hm.module.orders, ctx.ring):
            x = hm.coords_to_matrix(c)
            if not any(any(r) for r in x):
                continue
            c = d2_on_E01(ctx.alpha, ctx.ext.sigma, x, act)
            assert cc.coboundary_witness(c) is None, (name, m)


# -- image membership ----------------------------------------------------------------


def test_image_membership_zero():
    ctx = ctx_for("quaternion8")
    phi = ctx.phi_from_matrix(2, ((0,), (0,)))
    assert ctx.image_membership(phi) is True


def test_image_membership_q8_nonzero_absent():
    ctx = ctx_for("quaternion8")
    for phi in ctx.enumerate_phi(2):
        # trivial action: phi_gamma = 0 always
        assert ctx.image_membership(phi) == phi_is_zero(phi)


def test_image_membership_roundtrip_mixer():
    ctx = ctx_for("mixer32")
    for gamma in ctx.enumerate_jm(2):
        phi = ctx.phi_from_gamma(gamma, 2)
        assert ctx.image_membership(phi)
        back = image_membership_via_solve(ctx, phi)
        assert back is not None
        assert ctx.phi_from_gamma(back, 2).matrix == phi.matrix


# every catalog group of order at most 16 (cyclic and abelian_product cover
# the elementary_abelian alias) over Z/l, and over Z/4 where the quotient is
# free; cyclic of order 2 and the elementary abelian groups have trivial J
# (rank-0 vectors); mixer32 is the one group here with a nontrivial image
IMAGE_CASES = (
    [("cyclic", R2, {"ell": 2, "k": k}) for k in (1, 2, 3, 4)]
    + [("cyclic", R4, {"ell": 2, "k": k}) for k in (2, 3, 4)]
    + [("cyclic", R3, {"ell": 3, "k": k}) for k in (1, 2)]
    + [
        ("abelian_product", R2, {"ell": 2, "exponents": e})
        for e in ((1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    ]
    + [
        ("abelian_product", R4, {"ell": 2, "exponents": (2, 2)}),
        ("abelian_product", R3, {"ell": 3, "exponents": (1, 1)}),
        ("quaternion8", R2, None),
        ("dihedral8", R2, None),
        ("heisenberg", R2, {"ell": 2}),
        ("unitriangular3", R2, {"ell": 2, "n": 1}),
        ("mixer32", R2, None),
    ]
)


def test_image_membership_matches_solve_and_image():
    # one containment in the span of the phi_gamma decides what the per-phi
    # solve and the enumerated image {phi_gamma : gamma in J_m} decide
    ranks = set()
    for name, ring, params in IMAGE_CASES:
        ctx = ctx_for(name, ring, params)
        ranks.add(ctx.em.j.module.rank)
        for m in (2, 3):
            _, basis = ctx.hom_phi_basis(m)
            if basis.span_size() > DEFAULT_HOM_ENUM_BOUND:
                phis = list(ctx.random_phi(m, random.Random(m), 8))
            else:
                phis = list(ctx.enumerate_phi(m))
            image = {ctx.phi_from_gamma(gamma, m).matrix for gamma in ctx.enumerate_jm(m)}
            for phi in phis:
                got = ctx.image_membership(phi)
                assert got == (image_membership_via_solve(ctx, phi) is not None), (name, params, m)
                assert got == (phi.matrix in image), (name, params, m)
            if name == "mixer32":
                assert len(image) == 2
    assert 0 in ranks


# -- verify_theorem -------------------------------------------------------------------


def test_verify_q8_exhaustive():
    ctx = ctx_for("quaternion8")
    rep = ctx.verify_theorem(2)
    assert rep["hypothesis"]["holds"]
    assert rep["hypothesis"]["h2_total_dim"] == 2
    assert rep["direction1"]["passed"]
    assert rep["direction2"]["asserted"]
    assert rep["direction2"]["passed"]
    assert rep["direction2"]["zero_class_count"] == 1
    assert rep["direction2"]["image_size"] == 1
    assert rep["counterexamples"] == []


def test_verify_abelian_degenerate():
    ext = make_extension(catalog("abelian_product", {"ell": 2, "exponents": [2, 2]}), R4)
    ctx = ObstructionContext(ext, label="abelian")
    rep = ctx.verify_theorem(2)
    assert rep["hypothesis"]["holds"]
    assert rep["direction1"]["passed"]
    assert rep["direction2"]["passed"]
    assert rep["socle_ranks"] == [0]  # J = 0: one stabilized step of rank 0


def test_verify_d8_hypothesis_fails_direction1_passes():
    ctx = ctx_for("dihedral8")
    rep = ctx.verify_theorem(2)
    assert not rep["hypothesis"]["holds"]
    assert rep["hypothesis"]["h2_total_dim"] == 3
    assert rep["hypothesis"]["inflated_dim"] == 2
    assert rep["direction1"]["passed"]
    assert not rep["direction2"]["asserted"]


def test_verify_mixer_exhaustive():
    ctx = ctx_for("mixer32")
    rep = ctx.verify_theorem(2)
    assert rep["direction1"]["passed"]
    assert rep["socle_ranks"] == [2, 3]
    assert rep["direction2"]["image_size"] > 1
    if rep["hypothesis"]["holds"]:
        assert rep["direction2"]["passed"]


@pytest.mark.parametrize(
    "name, ring, params, decided",
    [("heisenberg", R5, {"ell": 5}, 25), ("free_class2", R2, {"d": 2, "ell": 2, "n": 1}, 64)],
)
def test_verify_decides_each_phi_matrix_once(monkeypatch, name, ring, params, decided):
    # exhaustive verify decides every distinct phi matrix once: each phi_gamma
    # of direction 1 is also a phi of direction 2
    ext = make_extension(catalog(name, params), ring)
    ctx = ObstructionContext(ext, label=name)
    calls = []
    psi_generic = ObstructionContext.psi_generic

    def counted(self, phi):
        calls.append(phi.matrix)
        return psi_generic(self, phi)

    monkeypatch.setattr(ObstructionContext, "psi_generic", counted)
    rep = ctx.verify_theorem(2, max_order=ext.total.order)
    assert len(calls) == len(set(calls)) == decided
    assert rep["direction2"]["checked"] == decided


def test_verify_sampled_deterministic():
    ctx = ctx_for("quaternion8")
    r1 = ctx.verify_theorem(2, mode=("sampled", 7, 20))
    r2 = ctx.verify_theorem(2, mode=("sampled", 7, 20))
    assert r1 == r2
    r3 = ctx.verify_theorem(2, mode=("sampled", 8, 20))
    assert r3["direction1"]["checked"] == 20


def test_psi_witness_actually_bounds_psi():
    # whenever a witness is returned, its differential reproduces psi exactly
    from soclecoh.cohomology import differential

    for name in ("quaternion8", "mixer32"):
        ctx = ctx_for(name)
        for gamma in ctx.enumerate_jm(2):
            phi = ctx.phi_from_gamma(gamma, 2)
            res = ctx.psi_generic(phi)
            psi = res.psi.materialize()
            witness = ctx.r_complex.coboundary_witness(psi)
            assert witness is not None
            assert differential(witness).same_values(psi)
