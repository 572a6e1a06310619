"""The degree-3 obstruction for socle filtration maps, three ways.

A filtration map phi: I/I^m -> J (equivariant, image automatically inside
J_{m-1}) has an obstruction class Psi(phi) in H^3(G, Z/l^n): the composite
of the quotient-extension differential on invariant degree-1 classes with
the connecting map of 0 -> R -> (Lambda/I^m)^vee -> (I/I^m)^vee -> 0.

Three computation routes are kept deliberately independent and cross-checked,
once per level on the generators of Hom_G(I_m, J) (route_certificate):

* generic: build the degree-2 cochain -x_phi(alpha) and apply the
  connecting map, a contraction with column 0 of the middle module's matrices;
* closed form: Psi(phi)(a,b,c) = -[phi((a^-1 - 1) mod I^m)](alpha(b,c))
  evaluated directly from the factor set, no cochain solves;
* level-2 formula: sum_i -x_i cup d2(phi(rho_i)) over the dual basis,
  available exactly when m = 2.

The quotient-group recipe, which realizes the same differential inside the
smaller group G_phi = total/H_phi, is a test oracle in tests/helpers.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
import random

from .cohomology import (
    DEFAULT_H2_MAX_ORDER,
    CochainComplex,
    CoeffAction,
    Cochain,
    CoefficientSES,
    ConnectingCochain,
    CyclicTensorResolution,
    action_for_quotient_module,
    contract,
    cup,
    d2_on_E01,
    extension_cocycle,
    inflation_h2_surjective,
)
from .errors import (
    EquivarianceFailure,
    GammaNotInSocleLevel,
    SizeBound,
    WrongLevel,
)
from .fingroup import ExtensionData
from .gmodule import (
    ExtensionModules,
    descale_vec,
    dual,
    dual_pair,
    dual_transpose,
    enumerate_scaled_span,
    hom_g,
    lambda_m,
    mat_apply,
    mat_mul,
    random_scaled_span_element,
    scale_vec,
    scaled_span,
    vec_reduce,
)
from .zmodlin import contains, span_orders

DEFAULT_HOM_ENUM_BOUND = 4096
DEFAULT_JM_EXHAUSTIVE_BOUND = 256


def _check_phi_shape(ctx: "ObstructionContext", m: int, matrix) -> None:
    rows, cols = ctx.em.i_m(m).module.rank, ctx.em.j.module.rank
    if len(matrix) != rows or any(len(r) != cols for r in matrix):
        raise EquivarianceFailure(f"phi matrix must be {rows} x {cols}")


@dataclass(frozen=True)
class PhiMap:
    """Equivariant R-linear map I/I^m -> J in canonical coordinates.

    matrix[a] is the J-coordinate vector of the a-th canonical I_m basis
    vector.  Equivariance is validated at construction; the image landing in
    J_{m-1} follows, and is checked too.
    """

    ctx: "ObstructionContext"
    m: int
    matrix: tuple

    def __post_init__(self):
        ctx, m = self.ctx, self.m
        im = ctx.em.i_m(m)
        jmod = ctx.em.j.module
        mat = self.matrix
        _check_phi_shape(ctx, m, mat)
        for a, row in enumerate(mat):
            for b, v in enumerate(row):
                if not 0 <= v < jmod.orders[b]:
                    raise EquivarianceFailure("phi matrix entries must be reduced")
                if (im.module.orders[a] * v) % jmod.orders[b]:
                    raise EquivarianceFailure(
                        "phi is not well-defined on the module", witness=("coordinate", a, b)
                    )
        for i in range(ctx.ext.d):
            lhs = mat_mul(im.module.actions[i], mat, jmod.orders)
            rhs = mat_mul(mat, jmod.actions[i], jmod.orders)
            if lhs != rhs:
                for a in range(im.module.rank):
                    if lhs[a] != rhs[a]:
                        raise EquivarianceFailure(
                            "phi does not commute with the action",
                            witness=("sigma", i, "basis", a),
                        )
        if m >= 2:
            for a, row in enumerate(mat):
                if not ctx.em.socle.member(row, m - 1):
                    raise EquivarianceFailure(
                        "phi image escaped J_{m-1}", witness=("basis", a)
                    )


@dataclass(frozen=True)
class ObstructionResult:
    """Psi of one phi: the degree-3 cocycle in contract's factored form,
    its class bit, and the route agreement certificates (None when only the
    generic route ran)."""

    psi: ConnectingCochain
    is_zero_class: bool
    agreement: dict | None = None


class ObstructionContext:
    """All caches for one extension: modules, factor set, solvers."""

    def __init__(self, ext: ExtensionData, label: str = ""):
        self.ext = ext
        self.ring = ext.ring
        self.label = label
        self.em = ExtensionModules(ext)
        self.alpha = extension_cocycle(ext, self.em.j)
        self.r_action = CoeffAction.trivial(ext.quotient, self.ring)
        self.r_complex = CochainComplex(self.r_action)
        self.resolution = CyclicTensorResolution(ext)
        self._ses = {}
        self._hom = {}
        self._image = {}
        self._certificate = {}

    # -- cached module-side data -----------------------------------------

    def dual_sequence(self, m: int) -> CoefficientSES:
        """0 -> R -> Lambda_m^vee -> I_m^vee -> 0 with the f~(1)=0 section;
        its quot is the I_m^vee that d2(phi) takes values in."""
        if m not in self._ses:
            im = self.em.i_m(m)
            mid = action_for_quotient_module(self.ext, dual(lambda_m(self.em.gr, im)))
            quot = action_for_quotient_module(self.ext, dual(im.module))
            self._ses[m] = CoefficientSES(mid, quot)
        return self._ses[m]

    def hom_phi_basis(self, m: int):
        """(HomModule, scaled invariant basis) for Hom_G(I_m, J)."""
        if m not in self._hom:
            self._hom[m] = hom_g(self.em.i_m(m).module, self.em.j.module)
        return self._hom[m]

    def dual_basis_cochains(self):
        """x_i(g) = i-th exponent of g, as R-valued 1-cocycles."""
        G = self.ext.quotient
        out = []
        for i in range(self.ext.d):
            values = {}
            for g in G.elements():
                if g != G.identity and self.ext.coords[g][i]:
                    values[(g,)] = (self.ext.coords[g][i],)
            out.append(Cochain.make(self.r_action, 1, values))
        return out

    # -- phi constructors ---------------------------------------------------

    def phi_from_matrix(self, m: int, matrix) -> PhiMap:
        _check_phi_shape(self, m, matrix)
        jmod = self.em.j.module
        reduced = tuple(
            tuple(v % jmod.orders[b] for b, v in enumerate(row)) for row in matrix
        )
        return PhiMap(self, m, reduced)

    def phi_from_gamma(self, gamma, m: int) -> PhiMap:
        gamma = vec_reduce(gamma, self.em.j.module.orders)
        if not self.em.socle.member(gamma, m):
            raise GammaNotInSocleLevel(f"gamma {gamma} is not in socle level {m}")
        return self.phi_from_matrix(m, self.em.phi_gamma_matrix(gamma, m))

    def enumerate_phi(self, m: int):
        hm, basis = self.hom_phi_basis(m)
        if basis.span_size() > DEFAULT_HOM_ENUM_BOUND:
            raise SizeBound("Hom_G(I_m, J) enumeration", DEFAULT_HOM_ENUM_BOUND, basis.span_size())
        for c in enumerate_scaled_span(basis, hm.module.orders, self.ring):
            yield self.phi_from_matrix(m, hm.coords_to_matrix(c))

    def random_phi(self, m: int, rng, count: int):
        """count uniformly random phis from Hom_G(I_m, J), drawn from rng."""
        hm, basis = self.hom_phi_basis(m)
        for _ in range(count):
            coords = random_scaled_span_element(basis, hm.module.orders, self.ring, rng)
            yield self.phi_from_matrix(m, hm.coords_to_matrix(coords))

    def enumerate_jm(self, m: int):
        jmod = self.em.j.module
        return enumerate_scaled_span(self.em.socle.basis(m), jmod.orders, self.ring)

    # -- the obstruction routes ----------------------------------------------

    def x_phi_matrix(self, phi: PhiMap):
        """phi transported to a map (capped H^ab) -> I_m^vee."""
        im = self.em.i_m(phi.m)
        jmod = self.em.j.module
        return dual_transpose(phi.matrix, im.module.orders, jmod.orders)

    def d2_of_phi(self, phi: PhiMap) -> Cochain:
        return d2_on_E01(
            self.alpha, self.ext.sigma, self.x_phi_matrix(phi), self.dual_sequence(phi.m).quot
        )

    def psi_generic(self, phi: PhiMap) -> ObstructionResult:
        """Psi(phi) = delta(d2(phi)), factored, and its H^3 bit.  Neither
        d2(phi) nor Psi is checked for the cocycle property: d2(phi) is a
        cocycle and delta maps it to one, and each premise is checked at run
        time (README, "The H^3 decision")."""
        psi = contract(self.dual_sequence(phi.m), self.d2_of_phi(phi))
        return ObstructionResult(psi, self.resolution.vanishes_on_chain_map(psi))

    def psi_closed_form(self, phi: PhiMap) -> Cochain:
        """Direct evaluation from the factor set, no cochain-space solves."""
        ext = self.ext
        G = ext.quotient
        im = self.em.i_m(phi.m)
        jb = self.em.j
        q = self.ring.modulus
        alpha = self.alpha.values
        distinct = set(alpha.values())
        values = {}
        for a in G.elements():
            if a == G.identity:
                continue
            w = mat_apply(im.augmentation_coords(G.inv(a)), phi.matrix, jb.module.orders)
            # -<w, alpha(b, c)> depends on (b, c) only through alpha(b, c)
            pair = {v: (-dual_pair(w, v, jb.hab.orders, self.ring)) % q for v in distinct}
            for (b, c), avec in alpha.items():
                if pair[avec]:
                    values[(a, b, c)] = (pair[avec],)
        # values are reduced and nonzero, on tuples of non-identity elements
        return Cochain(self.r_action, 3, values)

    def psi_m2_formula(self, phi: PhiMap) -> Cochain:
        """sum_i -x_i cup d2(phi(rho_i)); only meaningful at level 2."""
        if phi.m != 2:
            raise WrongLevel(f"the level-2 formula needs m = 2, got {phi.m}")
        im = self.em.i_m(2)
        jb = self.em.j
        q = self.ring.modulus
        xs = self.dual_basis_cochains()
        total = {}
        for i, sigma in enumerate(self.ext.sigma):
            gamma_i = mat_apply(im.augmentation_coords(sigma), phi.matrix, jb.module.orders)
            xmat = tuple(
                ((q // jb.hab.orders[k]) * gamma_i[k] % q,) for k in range(jb.hab.rank)
            )
            xi = d2_on_E01(self.alpha, self.ext.sigma, xmat, self.r_action)
            for t, (v,) in cup(xs[i], xi).values.items():
                total[t] = total.get(t, 0) - v
        values = {t: (v % q,) for t, v in total.items() if v % q}
        return Cochain(self.r_action, 3, values)

    def route_certificate(self, m: int, include_m2: bool) -> dict:
        """Whether route B (and route C when include_m2, which needs m = 2)
        agrees with route A on every phi of Hom_G(I_m, J), decided once per
        level: B entrywise, C up to a coboundary.

        Each route is Z/q-linear in phi, so Psi_A - Psi_B and Psi_A - Psi_C
        are too, and the coboundaries form a subgroup.  Both agreements
        therefore hold on all of Hom_G(I_m, J) exactly when they hold on a
        generating set, and the descaled Howell rows of hom_phi_basis(m)
        generate it as an abelian group.  Every PhiMap lies in it, including
        one read from a file, since its construction checks that the matrix
        is a well-defined equivariant hom.
        """
        key = (m, include_m2)
        if key not in self._certificate:
            hm, basis = self.hom_phi_basis(m)
            rows = [
                self.phi_from_matrix(
                    m, hm.coords_to_matrix(descale_vec(r, hm.module.orders, self.ring))
                )
                for r in basis.rows
            ]
            ses = self.dual_sequence(m)
            closed = m2 = True
            for phi in rows:
                psi = contract(ses, self.d2_of_phi(phi)).materialize()
                closed = closed and psi.same_values(self.psi_closed_form(phi))
                if include_m2 and m2:
                    m2 = self.resolution.is_coboundary(psi.add(self.psi_m2_formula(phi), sign=-1))
            agreement = {"generic_vs_closed_entrywise": closed}
            if include_m2:
                agreement["generic_vs_m2_cohomologous"] = m2
            self._certificate[key] = agreement
        return self._certificate[key]

    def obstruction_with_routes(self, phi: PhiMap, include_m2: bool) -> ObstructionResult:
        """Route A for phi, with the agreement certificates of its level."""
        base = self.psi_generic(phi)
        agreement = dict(self.route_certificate(phi.m, include_m2))
        return ObstructionResult(base.psi, base.is_zero_class, agreement)

    # -- membership and the theorem --------------------------------------------

    def image_membership(self, phi: PhiMap) -> bool:
        """Whether phi = phi_gamma for some gamma in J_m.

        gamma |-> phi_gamma is Z/q-linear, so its image is the span of the
        phi_gamma over the Howell rows of J_m, flattened to vectors over
        J.orders x rank(I_m); it is built once per level.
        """
        m, em = phi.m, self.em
        jorders = em.j.module.orders
        orders = jorders * len(phi.matrix)
        if m not in self._image:
            gens = [
                chain.from_iterable(em.phi_gamma_matrix(descale_vec(r, jorders, self.ring), m))
                for r in em.socle.basis(m).rows
            ]
            self._image[m] = scaled_span(gens, orders, self.ring)
        flat = chain.from_iterable(phi.matrix)
        return contains(self._image[m], scale_vec(flat, orders, self.ring))

    def verify_theorem(self, m: int, mode=("exhaustive",), max_order: int = DEFAULT_H2_MAX_ORDER):
        """Check both theorem directions and report, JSON-ready.

        mode is ("exhaustive",) or ("sampled", seed, count).  direction2 is
        asserted only under the inflation hypothesis; otherwise its observed
        status is recorded without judgement.  max_order bounds the total
        group order of the H^2 hypothesis check.
        """
        em = self.em
        jmod = em.j.module
        counterexamples = []
        socle_ranks = [len(span_orders(s)) for s in em.socle.steps]

        # the enumeration bounds are cheap, so they trip before the H^2 check runs
        basis = em.socle.basis(m)
        if mode[0] == "exhaustive":
            jm_size = basis.span_size()
            if jm_size > DEFAULT_JM_EXHAUSTIVE_BOUND:
                raise SizeBound("exhaustive J_m enumeration", DEFAULT_JM_EXHAUSTIVE_BOUND, jm_size)
            gammas = list(self.enumerate_jm(m))
            phis = list(self.enumerate_phi(m))
            mode_label = "exhaustive"
        else:
            _, seed, count = mode
            rng = random.Random(seed)
            gammas = [
                random_scaled_span_element(basis, jmod.orders, self.ring, rng)
                for _ in range(count)
            ]
            phis = list(self.random_phi(m, random.Random(seed + 1), count))
            mode_label = f"sampled(seed={seed},count={count})"
        holds, hyp = inflation_h2_surjective(self.ext, max_order=max_order)

        # many gammas share one phi_gamma, and in exhaustive mode each phi_gamma
        # is also a phi of direction 2
        zero_classes = {}

        def is_zero_class(phi):
            if phi.matrix not in zero_classes:
                zero_classes[phi.matrix] = self.psi_generic(phi).is_zero_class
            return zero_classes[phi.matrix]

        image_matrices = set()
        d1_checked = d1_passed = 0
        for gamma in gammas:
            phi = self.phi_from_gamma(gamma, m)
            image_matrices.add(phi.matrix)
            d1_checked += 1
            if is_zero_class(phi):
                d1_passed += 1
            else:
                counterexamples.append(
                    {"kind": "psi_of_phi_gamma_nonzero", "gamma": list(gamma)}
                )

        d2_checked = zero_class_count = 0
        d2_mismatches = 0
        for phi in phis:
            zero = is_zero_class(phi)
            in_image = self.image_membership(phi)
            d2_checked += 1
            if zero:
                zero_class_count += 1
            if in_image and not zero:
                counterexamples.append(
                    {"kind": "phi_gamma_with_nonzero_class", "phi": [list(r) for r in phi.matrix]}
                )
                d2_mismatches += 1
            if zero and not in_image:
                d2_mismatches += 1
                counterexamples.append(
                    {"kind": "zero_class_without_gamma", "phi": [list(r) for r in phi.matrix]}
                )

        direction2_passed = d2_mismatches == 0
        report = {
            "group": self.label,
            "ell": self.ring.ell,
            "n": self.ring.n,
            "m": m,
            "d": self.ext.d,
            "order": self.ext.total.order,
            "socle_ranks": socle_ranks,
            "hypothesis": {
                "holds": holds,
                "h2_total_dim": hyp["h2_total_dim"],
                "inflated_dim": hyp["inflated_dim"],
            },
            "direction1": {"checked": d1_checked, "passed": d1_checked == d1_passed},
            "direction2": {
                "asserted": holds,
                "checked": d2_checked,
                "passed": direction2_passed,
                "zero_class_count": zero_class_count,
                "image_size": len(image_matrices),
            },
            "counterexamples": counterexamples,
            "mode": mode_label,
        }
        return report
