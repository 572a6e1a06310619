"""Finite l-groups as validated Cayley tables.

Elements are integer indices into a canonical ordering: identity first, then
breadth-first from the ordered generator list under right multiplication.
Every constructor validates the full group axioms and, when a prime is
supplied, that all element orders are powers of it.  Associativity is
checked by Light's test, with the last factor ranging over the generators,
in O(n^2·|S|) steps.  Orders above MAX_GROUP_ORDER are refused with SizeBound
before any element list or table is built.

Commutator convention: [x, y] = x^-1 y^-1 x y.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    GeneratorsDontGenerate,
    InconsistentPresentation,
    NotAGroup,
    NotEllGroup,
    NotNormal,
    QuotientNotFree,
    SizeBound,
    UnknownCatalogEntry,
)
from .zmodlin import RingConfig

MAX_GROUP_ORDER = 512


def _check_order(base: int, exponent: int = 1) -> None:
    """Refuse a group of order base**exponent above MAX_GROUP_ORDER.

    A base of at least 2 with an exponent of at least 10 always exceeds it,
    so a huge parameter is refused without computing the power.
    """
    if base >= 2 and (
        exponent >= MAX_GROUP_ORDER.bit_length() or base**exponent > MAX_GROUP_ORDER
    ):
        order = base if exponent == 1 else f"{base}^{exponent}"
        raise SizeBound("group order", MAX_GROUP_ORDER, order)


class FinGroup:
    """Finite group on indices 0..order-1 with an explicit Cayley table."""

    __slots__ = (
        "order", "cayley", "identity", "generators", "labels", "_inv", "_orders", "_merges"
    )

    def __init__(self, cayley, generators, labels=None, *, ell=None, relabel=True):
        (
            self.order, self.cayley, self.identity, self.generators, self.labels,
            self._inv, self._orders,
        ) = _build_group(cayley, generators, labels=labels, ell=ell, relabel=relabel)
        self._merges = None

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self._inv[a], -k
        out = self.identity
        while k:
            if k & 1:
                out = self.cayley[out][a]
            a = self.cayley[a][a]
            k >>= 1
        return out

    def comm(self, a: int, b: int) -> int:
        t = self.cayley[self._inv[a]][self._inv[b]]
        return self.cayley[self.cayley[t][a]][b]

    def conj(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.cayley[self.cayley[g][h]][self._inv[g]]

    def elt_order(self, a: int) -> int:
        return self._orders[a]

    def elements(self) -> range:
        return range(self.order)

    def merges(self) -> tuple:
        """merges()[t] lists the pairs (a, b) with a.b = t, a != 1 != b, by
        increasing a.  Built on first use: it holds (order - 1)^2 pairs."""
        if self._merges is None:
            out = [[] for _ in range(self.order)]
            nonid = [x for x in self.elements() if x != self.identity]
            for a in nonid:
                row = self.cayley[a]
                for b in nonid:
                    out[row[b]].append((a, b))
            self._merges = tuple(tuple(pairs) for pairs in out)
        return self._merges

    def is_abelian(self) -> bool:
        c = self.cayley
        return all(c[a][b] == c[b][a] for a in range(self.order) for b in range(a))

    def closure(self, gens) -> tuple:
        seen = {self.identity}
        frontier = [self.identity]
        gens = [g for g in gens]
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.cayley[x][g], self.cayley[g][x]):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return tuple(sorted(seen))

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    def __repr__(self):
        return f"FinGroup(order={self.order}, generators={self.generators})"


def _validate_table(cayley):
    """Identity and two-sided inverses of a square table with in-range entries."""
    n = len(cayley)
    for row in cayley:
        if len(row) != n:
            raise NotAGroup(f"table is not square: row of length {len(row)} in order-{n} table")
        for v in row:
            if type(v) is not int or not 0 <= v < n:  # bool is not an index
                raise NotAGroup(f"table entry {v!r} out of range 0..{n - 1}")
    identity = None
    for e in range(n):
        if all(cayley[e][x] == x and cayley[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    inv = []
    for a, row in enumerate(cayley):
        # the first right inverse, if two-sided, is the first two-sided one
        b = row.index(identity) if identity in row else None
        if b is None or cayley[b][a] != identity:
            b = next((b for b in range(n) if row[b] == identity == cayley[b][a]), None)
            if b is None:
                raise NotAGroup("element has no inverse", witness=a)
        inv.append(b)
    return identity, inv


def _check_associative(cayley, generators):
    """Light's test: (ab)s = a(bs) for all a, b and every generator s.

    The z with (xy)z = x(yz) for all x, y contain the identity and are closed
    under products, so once the generators reach every element by right
    multiplication, z = s in the generators is enough.  O(n^2·|S|).
    """
    for s in generators:
        right = [row[s] for row in cayley]
        for a, ca in enumerate(cayley):
            if [right[v] for v in ca] != [ca[w] for w in right]:
                b = next(b for b, v in enumerate(ca) if right[v] != ca[right[b]])
                raise NotAGroup("associativity fails", witness=(a, b, s))


def _build_group(cayley, generators, labels=None, ell=None, relabel=True):
    n = len(cayley)
    if n == 0:
        raise NotAGroup("empty table")
    _check_order(n)
    cayley = [list(r) for r in cayley]
    identity, inv = _validate_table(cayley)
    generators = list(generators)
    for g in generators:
        if type(g) is not int or not 0 <= g < n:
            raise NotAGroup(f"generator index {g!r} out of range")
    generators = list(dict.fromkeys(g for g in generators if g != identity))

    # identity first, then BFS by right multiplication: the canonical ordering
    order_list = [identity]
    seen = {identity}
    for x in order_list:
        for g in generators:
            y = cayley[x][g]
            if y not in seen:
                seen.add(y)
                order_list.append(y)
    if len(order_list) != n:
        raise GeneratorsDontGenerate(f"generators reach {len(order_list)} of {n} elements")
    _check_associative(cayley, generators)

    if relabel:
        new_index = [0] * n
        for new, old in enumerate(order_list):
            new_index[old] = new
        rows = [cayley[a] for a in order_list]
        cayley = [[new_index[row[b]] for b in order_list] for row in rows]
        generators = [new_index[g] for g in generators]
        inv = [new_index[inv[a]] for a in order_list]
        labels = [labels[a] for a in order_list] if labels else None
        identity = 0
    # element orders
    orders = []
    for a in range(n):
        k, x = 1, a
        while x != identity:
            x = cayley[x][a]
            k += 1
        orders.append(k)
    if ell is not None:
        for a, k in enumerate(orders):
            while k % ell == 0:
                k //= ell
            if k != 1:
                raise NotEllGroup(
                    f"element {a} has order {orders[a]}, not a power of {ell}"
                )
    return (
        n, tuple(map(tuple, cayley)), identity, tuple(generators),
        tuple(labels) if labels else None, tuple(inv), tuple(orders),
    )


def from_cayley_table(table, generators, labels=None, ell=None) -> FinGroup:
    """Validated group from a raw Cayley table, relabeled canonically."""
    return FinGroup(table, generators, labels=labels, ell=ell, relabel=True)


@dataclass(frozen=True)
class Subgroup:
    """Subset of a parent group, closed under product and inverse."""

    parent: FinGroup
    elements: tuple

    def __post_init__(self):
        es = set(self.elements)
        if self.parent.identity not in es:
            raise NotAGroup("subgroup without identity")
        for a in self.elements:
            if self.parent.inv(a) not in es:
                raise NotAGroup("subgroup not closed under inverse", witness=a)
            for b in self.elements:
                if self.parent.mul(a, b) not in es:
                    raise NotAGroup("subgroup not closed under product", witness=(a, b))

    @classmethod
    def generated(cls, parent: FinGroup, gens) -> "Subgroup":
        return cls(parent, parent.closure(gens))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in set(self.elements)

    def normality_witness(self) -> None:
        """Raise NotNormal with a witness (s, h), s a generator of the parent
        and s·h·s^-1 not in the subgroup.  The generators are enough: sHs^-1
        has |H| elements, so sHs^-1 ⊆ H makes it H, and conjugation by a
        product is the composite of the conjugations.  O(|S|·|H|)."""
        es = set(self.elements)
        for s in self.parent.generators:
            for h in self.elements:
                if self.parent.conj(s, h) not in es:
                    raise NotNormal("subgroup is not normal", witness=(s, h))

    def as_group(self):
        """The subgroup as a standalone FinGroup plus index maps.

        Elements keep their sorted parent order (identity is index 0), so no
        relabeling happens and results are deterministic.
        """
        idx = {x: i for i, x in enumerate(self.elements)}
        table = [
            [idx[self.parent.mul(a, b)] for b in self.elements] for a in self.elements
        ]
        gens = [i for i in range(1, len(self.elements))]
        labels = (
            tuple(self.parent.labels[x] for x in self.elements)
            if self.parent.labels
            else None
        )
        grp = FinGroup(table, gens, labels=labels, relabel=False)
        return grp, self.elements, idx


def descending_step(g: FinGroup, ring: RingConfig) -> Subgroup:
    """H = [g, g]·g^q, q = l^n, as the normal closure N of the [s, t] and s^q
    over the generators s, t of g.

    N ⊆ H because H contains them and is normal: the commutators and the
    q-th powers are each closed under conjugation.  g/N is generated by commuting images of order
    dividing q, so it is abelian of exponent dividing q, and N ⊇ H.  N grows
    from its generators X until s·x·s^-1 ∈ N for every x in X and generator
    s of g, which makes N normal (see Subgroup.normality_witness).
    """
    q = ring.modulus
    gens = g.generators
    todo = [g.comm(s, t) for s in gens for t in gens] + [g.power(s, q) for s in gens]
    xs, members = [], {g.identity}
    while todo:
        x = todo.pop()
        if x not in members:
            xs.append(x)
            members = set(g.closure(xs))
            todo += [g.conj(s, x) for s in gens]
    return Subgroup(g, tuple(sorted(members)))


def quotient(g: FinGroup, normal: Subgroup):
    """Quotient group with least-index coset representatives.

    Returns (FinGroup, projection) where projection[x] is the index of the
    coset of x.  Raises NotNormal with a conjugation witness otherwise.
    """
    if normal.parent is not g:
        raise NotNormal("subgroup belongs to a different parent")
    normal.normality_witness()
    rep = [None] * g.order
    for x in g.elements():
        if rep[x] is None:
            coset = sorted(g.mul(x, h) for h in normal.elements)
            r = coset[0]
            for y in coset:
                rep[y] = r
    reps = sorted(set(rep))
    rep_index = {r: i for i, r in enumerate(reps)}
    table = [[rep_index[rep[g.mul(a, b)]] for b in reps] for a in reps]
    proj = tuple(rep_index[rep[x]] for x in g.elements())
    gens = list(dict.fromkeys(proj[x] for x in g.generators if proj[x] != 0))
    labels = tuple(g.labels[r] for r in reps) if g.labels else None
    qgrp = FinGroup(table, gens, labels=labels, relabel=False)
    _check_homomorphism(g, qgrp, proj)
    return qgrp, proj


def _check_homomorphism(g: FinGroup, qgrp: FinGroup, proj) -> None:
    """proj(1) = 1 and proj(a·s) = proj(a)·proj(s) for every a and generator s.

    qgrp is a validated group, so by induction on the length of b as a word
    in the generators, proj(a·b) = proj(a)·proj(b) for all a, b: the closure
    argument of Light's test.  O(n·|S|).
    """
    if proj[g.identity] != qgrp.identity:
        raise NotAGroup("projection is not a homomorphism", witness=(g.identity, g.identity))
    for a, row in enumerate(g.cayley):
        qrow = qgrp.cayley[proj[a]]
        for s in g.generators:
            if proj[row[s]] != qrow[proj[s]]:
                raise NotAGroup("projection is not a homomorphism", witness=(a, s))


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant-factor decomposition of a finite abelian group.

    orders are descending; coords[x] are the exponents of element x over the
    basis, i.e. x = prod basis[i]^coords[x][i].
    """

    orders: tuple
    basis: tuple
    coords: tuple


def _abelian_basis(a: FinGroup):
    """Basis (element, order) pairs, largest order first, deterministic."""
    if a.order == 1:
        return []
    h = max(a.elt_order(y) for y in a.elements())
    x = min(y for y in a.elements() if a.elt_order(y) == h)
    sub = Subgroup.generated(a, (x,))
    qgrp, proj = quotient(a, sub)
    out = [(x, h)]
    for qb, qo in _abelian_basis(qgrp):
        lift = None
        for y in a.elements():
            if proj[y] == qb and a.elt_order(y) == qo:
                lift = y
                break
        if lift is None:
            raise NotAGroup("no order-preserving lift; group is not abelian?")
        out.append((lift, qo))
    return out


def abelian_structure(a: FinGroup) -> AbelianStructure:
    if not a.is_abelian():
        raise NotAGroup("abelian structure requested for a nonabelian group")
    pairs = _abelian_basis(a)
    basis = tuple(p[0] for p in pairs)
    orders = tuple(p[1] for p in pairs)
    coords = [None] * a.order
    for cs in product(*(range(o) for o in orders)):
        x = a.identity
        for b, c in zip(basis, cs):
            x = a.mul(x, a.power(b, c))
        if coords[x] is not None:
            raise NotAGroup("basis decomposition is not direct")
        coords[x] = cs
    if any(c is None for c in coords):
        raise NotAGroup("basis does not span")
    return AbelianStructure(orders, basis, tuple(coords))


@dataclass(frozen=True)
class ExtensionData:
    """A group extension 1 -> H -> total -> G -> 1 with canonical bookkeeping.

    projection/section are index maps; sigma lists the chosen generators of G
    (a free Z/l^n-module basis) and coords[x] gives the exponent vector of a
    G element over sigma.  section is the normal-form word map
    g |-> prod lifts[i]^coords[g][i], so section(1) = 1.
    """

    total: FinGroup
    kernel: Subgroup
    quotient: FinGroup
    projection: tuple
    section: tuple
    sigma: tuple
    coords: tuple
    lifts: tuple
    ring: RingConfig

    @property
    def d(self) -> int:
        return len(self.sigma)

    def __post_init__(self):
        g, G = self.total, self.quotient
        if self.section[0] != g.identity or self.projection[g.identity] != G.identity:
            raise NotAGroup("section/projection do not preserve the identity")
        for x in G.elements():
            if self.projection[self.section[x]] != x:
                raise NotAGroup("projection . section is not the identity", witness=x)


def _free_basis(G: FinGroup, ring: RingConfig) -> AbelianStructure:
    if not G.is_abelian():
        raise QuotientNotFree("top quotient is not abelian")
    structure = abelian_structure(G)
    if any(o != ring.modulus for o in structure.orders):
        raise QuotientNotFree(
            f"quotient has invariant factors {structure.orders}, "
            f"not free over Z/{ring.modulus}"
        )
    return structure


def build_extension(g: FinGroup, kernel: Subgroup, G: FinGroup, projection, ring: RingConfig) -> ExtensionData:
    """Assemble ExtensionData over an already-known quotient G."""
    structure = _free_basis(G, ring)
    sigma = structure.basis
    lifts = tuple(
        min(x for x in g.elements() if projection[x] == s) for s in sigma
    )
    section = []
    for x in G.elements():
        w = g.identity
        for t, c in zip(lifts, structure.coords[x]):
            w = g.mul(w, g.power(t, c))
        section.append(w)
    return ExtensionData(
        total=g,
        kernel=kernel,
        quotient=G,
        projection=tuple(projection),
        section=tuple(section),
        sigma=sigma,
        coords=structure.coords,
        lifts=lifts,
        ring=ring,
    )


def make_extension(g: FinGroup, ring: RingConfig) -> ExtensionData:
    """Split g into its descending-step kernel and free top quotient."""
    for a in g.elements():
        k = g.elt_order(a)
        while k % ring.ell == 0:
            k //= ring.ell
        if k != 1:
            raise NotEllGroup(f"element {a} has order {g.elt_order(a)}")
    H = descending_step(g, ring)
    G, proj = quotient(g, H)
    return build_extension(g, H, G, proj, ring)


# ---------------------------------------------------------------------------
# Class-2 presentations and the catalog.
# ---------------------------------------------------------------------------


def from_class2_presentation(d, ring: RingConfig, commutators, powers, central_orders=None) -> FinGroup:
    """Group of nilpotency class <= 2 from commutator and power words.

    commutators maps (i, j) with i < j to the exponent vector of [e_i, e_j]
    over the central generators (a dict, or a nested list c[i][j]); powers[i]
    is the exponent vector of e_i^(l^n).  Central generators default to order
    l^n each.  Elements are normal-form words e_0^a0 ... e_{d-1}^a{d-1} * z.
    """
    q = ring.modulus
    comm_map = {}
    if isinstance(commutators, dict):
        items = commutators.items()
    else:
        items = (
            ((i, j), commutators[i][j])
            for i in range(len(commutators))
            for j in range(len(commutators[i]))
        )
    for (i, j), w in items:
        if w is None:
            continue
        if not (0 <= i < j < d):
            raise InconsistentPresentation(f"commutator index ({i},{j}) not i<j<d")
        comm_map[(i, j)] = tuple(w)
    powers = [tuple(p) for p in powers]
    for w in [*comm_map.values(), *powers]:
        if any(type(v) is not int for v in w):
            raise InconsistentPresentation(f"central word {list(w)} has a non-integer entry")
    if len(powers) != d:
        raise InconsistentPresentation(f"need {d} power words, got {len(powers)}")
    widths = {len(w) for w in comm_map.values()} | {len(p) for p in powers}
    widths.discard(0)
    if len(widths) > 1:
        raise InconsistentPresentation(f"central word lengths differ: {sorted(widths)}")
    s = widths.pop() if widths else 0
    if central_orders is None:
        central_orders = [q] * s
    central_orders = list(central_orders)
    if len(central_orders) != s:
        raise InconsistentPresentation("central_orders length mismatch")
    log_order = ring.n * d
    for o in central_orders:
        if type(o) is not int:
            raise InconsistentPresentation(f"central order {o!r} is not an integer")
        k = o
        while k > 1 and k % ring.ell == 0:
            k //= ring.ell
            log_order += 1
        if k != 1 or o < 2:
            raise InconsistentPresentation(f"central order {o} is not an l-power >= 2")
    _check_order(ring.ell, log_order)

    elems, table = _class2_table(d, q, comm_map, powers, central_orders)
    index = {e: i for i, e in enumerate(elems)}

    def word_label(x):
        a, c = x
        parts = [f"e{i + 1}^{v}" if v > 1 else f"e{i + 1}" for i, v in enumerate(a) if v]
        parts += [f"z{k + 1}^{v}" if v > 1 else f"z{k + 1}" for k, v in enumerate(c) if v]
        return "*".join(parts) if parts else "1"

    labels = [word_label(x) for x in elems]
    gens = []
    for i in range(d):
        a = tuple(1 if k == i else 0 for k in range(d))
        gens.append(index[(a, tuple([0] * s))])
    try:
        out = FinGroup(table, gens, labels=labels, ell=ring.ell)
    except (NotAGroup, NotEllGroup, GeneratorsDontGenerate) as exc:
        raise InconsistentPresentation(str(exc)) from exc

    # verify the prescribed relations in the materialized group; the normal
    # form words label its elements, and e_1..e_d stay its generators
    e = out.generators
    for (i, j), w in comm_map.items():
        zc = tuple([0] * d), tuple(v % o for v, o in zip(w, central_orders))
        if out.label(out.comm(e[i], e[j])) != word_label(zc):
            raise InconsistentPresentation(f"[e{i + 1},e{j + 1}] does not match its word")
    for i in range(d):
        zc = tuple([0] * d), tuple(v % o for v, o in zip(powers[i], central_orders))
        if out.label(out.power(e[i], q)) != word_label(zc):
            raise InconsistentPresentation(f"e{i + 1}^{q} does not match its word")
    return out


def _class2_table(d, q, comm_map, powers, central_orders):
    """The normal-form words (a, c), top part a major, and their Cayley table.

    (0, c) is central, so (a, c)(b, c') = (a, 0)(b, 0)·(0, c + c'): the table
    takes one normal-form product per pair of top parts and a table of
    central addition, not one product per pair of elements.
    """
    tops = list(product(range(q), repeat=d))
    cents = list(product(*(range(o) for o in central_orders)))
    top_index = {a: i for i, a in enumerate(tops)}
    cent_index = {c: i for i, c in enumerate(cents)}
    width = len(cents)

    def top_mul(a, b):
        """(a, 0)(b, 0) as (index of its (top, 0), index of its central part)."""
        cz = [0] * len(central_orders)
        for (i, j), w in comm_map.items():
            f = a[j] * b[i]
            if f:
                for k, wk in enumerate(w):
                    if wk:
                        cz[k] = (cz[k] - f * wk) % central_orders[k]
        na = []
        for i in range(d):
            t = a[i] + b[i]
            if t >= q:
                t -= q
                for k, pk in enumerate(powers[i]):
                    if pk:
                        cz[k] = (cz[k] + pk) % central_orders[k]
            na.append(t)
        return top_index[tuple(na)] * width, cent_index[tuple(cz)]

    cadd = [
        [cent_index[tuple((u + v) % o for u, v, o in zip(x, y, central_orders))] for y in cents]
        for x in cents
    ]
    table = []
    for a in tops:
        prods = [top_mul(a, b) for b in tops]
        for c in range(width):
            row = []
            for base, z in prods:
                row += [base + v for v in cadd[cadd[z][c]]]
            table.append(row)
    return [(a, c) for a in tops for c in cents], table


def _abelian_product(ell, exps) -> FinGroup:
    """Z/l^k_1 x ... x Z/l^k_d as a class-2 presentation over Z/l: e_i^l = z_i,
    with z_i central of order l^(k_i - 1) for each k_i > 1, and no commutators."""
    deep = [i for i, k in enumerate(exps) if k > 1]
    powers = [tuple(int(i == j) for j in deep) for i in range(len(exps))]
    central_orders = [ell ** (exps[i] - 1) for i in deep]
    return from_class2_presentation(len(exps), RingConfig(ell, 1), {}, powers, central_orders)


def catalog(name: str, params=None) -> FinGroup:
    """Named constructors for the groups the theory gets exercised on."""
    params = dict(params or {})
    name = name.lower()

    def need(key, default=None):
        if key in params:
            return params[key]
        if default is not None:
            return default
        raise UnknownCatalogEntry(f"catalog {name!r} needs parameter {key!r}")

    if name == "cyclic":
        ell = int(need("ell"))
        k = int(need("k", 1))
        _check_order(ell, k)
        if k < 0:
            raise ValueError(f"cyclic parameter 'k' must be >= 0, got {k}")
        return _abelian_product(ell, [k] if k else [])
    if name == "elementary_abelian":
        ell = int(need("ell"))
        d = int(need("d"))
        _check_order(ell, d)
        if d < 0:
            raise ValueError(f"elementary_abelian parameter 'd' must be >= 0, got {d}")
        return _abelian_product(ell, [1] * d)
    if name == "abelian_product":
        ell = int(need("ell"))
        exps = [int(e) for e in need("exponents")]
        _check_order(ell, sum(exps))
        if any(e < 1 for e in exps):
            raise ValueError(f"abelian_product parameter 'exponents' needs entries >= 1, got {exps}")
        return _abelian_product(ell, exps)
    if name == "quaternion8":
        ring = RingConfig(2, 1)
        return from_class2_presentation(
            2, ring, {(0, 1): (1,)}, [(1,), (1,)], central_orders=[2]
        )
    if name == "dihedral8":
        ring = RingConfig(2, 1)
        return from_class2_presentation(
            2, ring, {(0, 1): (1,)}, [(1,), (0,)], central_orders=[2]
        )
    if name in ("heisenberg", "unitriangular3"):
        # upper unitriangular 3x3 matrices mod l^n: [e1, e2] = z, all of order l^n;
        # the Heisenberg group is the case n = 1
        ell = int(need("ell"))
        n = 1 if name == "heisenberg" else int(need("n"))
        _check_order(ell, 3 * n)
        return from_class2_presentation(2, RingConfig(ell, n), {(0, 1): (1,)}, [(0,), (0,)])
    if name == "wreath_z4_z2":
        # class 3, so no class-2 presentation: the table from the product of
        # every pair of elements (a, b, s) of (Z/4)^2 x| Z/2

        def mul(x, y):
            a, b, si = x
            c, dd, t = y
            if si:
                c, dd = dd, c
            return ((a + c) % 4, (b + dd) % 4, (si + t) % 2)

        elems = [(a, b, s) for a in range(4) for b in range(4) for s in range(2)]
        index = {e: i for i, e in enumerate(elems)}
        table = [[index[mul(x, y)] for y in elems] for x in elems]
        gens = [index[(1, 0, 0)], index[(0, 0, 1)]]
        return from_cayley_table(table, gens, labels=[str(x) for x in elems], ell=2)
    if name == "free_class2":
        d = int(need("d"))
        ell = int(need("ell"))
        n = int(need("n"))
        _check_order(ell, n * (2 * d + d * (d - 1) // 2))
        ring = RingConfig(ell, n)
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        s = len(pairs) + d
        comms = {}
        for k, (i, j) in enumerate(pairs):
            comms[(i, j)] = tuple(1 if t == k else 0 for t in range(s))
        powers = [
            tuple(1 if t == len(pairs) + i else 0 for t in range(s)) for i in range(d)
        ]
        return from_class2_presentation(d, ring, comms, powers)
    raise UnknownCatalogEntry(f"unknown catalog group {name!r}")


# The documented group JSON shapes: the keys each allows beside its own.
_GROUP_JSON_KEYS = {
    "cayley": ("cayley", "generators"),
    "class2": ("class2",),
    "catalog": ("catalog", "params"),
}
_CLASS2_JSON_KEYS = ("d", "ell", "n", "commutators", "powers", "central_orders")


def _check_keys(obj, allowed, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}")


def group_from_json(obj, ell=None) -> FinGroup:
    """Parse the group JSON formats the CLI accepts."""
    if not isinstance(obj, dict):
        raise ValueError("group spec must be a JSON object")
    shape = next((key for key in _GROUP_JSON_KEYS if key in obj), None)
    if shape is None:
        raise ValueError("group spec needs one of: cayley, class2, catalog")
    _check_keys(obj, _GROUP_JSON_KEYS[shape], f"a {shape} group spec")
    if shape == "cayley":
        return from_cayley_table(obj["cayley"], obj.get("generators", []), ell=ell)
    if shape == "class2":
        spec = obj["class2"]
        if not isinstance(spec, dict):
            raise ValueError("class2 spec must be a JSON object")
        _check_keys(spec, _CLASS2_JSON_KEYS, "the class2 spec")
        for key in ("d", "ell", "n"):
            if type(spec[key]) is not int:
                raise InconsistentPresentation(f"class2 {key} {spec[key]!r} is not an integer")
        ring = RingConfig(spec["ell"], spec["n"])
        comms = spec.get("commutators", {})
        if isinstance(comms, dict):
            comms = {
                tuple(int(t) for t in key.split(",")): tuple(val)
                for key, val in comms.items()
            }
        return from_class2_presentation(
            spec["d"], ring, comms, spec.get("powers", []),
            central_orders=spec.get("central_orders"),
        )
    return catalog(obj["catalog"], obj.get("params", {}))
