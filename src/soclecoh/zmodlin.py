"""Exact linear algebra over Z/l^n.

Submodules of free modules over Z/l^n are represented by their Howell normal
form, which is canonical: two row sets span the same submodule exactly when
their Howell forms are identical.  Over the local ring Z/l^n every pivot is a
power of l, entries above a pivot are reduced modulo that pivot, and the row
set is closed under multiplication by l^(n-e) for a pivot l^e (the "shadow"
rows), which is what makes membership and canonical solving work.

Conventions used throughout the package:

* vectors are rows, matrices act on the right: ``y = x . A``;
* ``solve(a, b)`` solves ``x . a = b`` and returns the lexicographically
  least solution vector (canonical representatives in ``[0, l^n)``);
* all residues are kept reduced modulo l^n at all times.

Three interchangeable row representations back the same algorithm: dense
lists for small matrices, ``{column: value}`` dicts for large sparse ones
(bar differentials are overwhelmingly zero), and packed int bitmasks when
the modulus is 2.  All produce the identical canonical form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
from itertools import product

from .errors import DimensionMismatch

_WORD_BOUND = 2**63


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingConfig:
    """The coefficient ring Z/l^n, fixed once per computation."""

    ell: int
    n: int

    def __post_init__(self):
        if not _is_prime(self.ell):
            raise ValueError(f"ell must be prime, got {self.ell}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.ell**self.n >= _WORD_BOUND:
            raise ValueError(f"modulus {self.ell}**{self.n} does not fit a machine word")

    @property
    def modulus(self) -> int:
        return self.ell**self.n

    def val(self, x: int) -> int:
        """l-adic valuation of x mod l^n; val(0) = n."""
        x %= self.modulus
        if x == 0:
            return self.n
        v = 0
        while x % self.ell == 0:
            x //= self.ell
            v += 1
        return v

    def unit_inv(self, x: int) -> int:
        """Inverse of the unit part of x: x = u * l^v with u invertible."""
        v = self.val(x)
        u = (x % self.modulus) // self.ell**v
        return pow(u, -1, self.modulus)


@dataclass(frozen=True)
class ZMat:
    """Dense matrix over Z/l^n, entries row-major and reduced."""

    rows: int
    cols: int
    entries: tuple
    ring: RingConfig

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows, cols: int, ring: RingConfig) -> "ZMat":
        rows = list(rows)
        q = ring.modulus
        flat = []
        for r in rows:
            r = list(r)
            if len(r) != cols:
                raise DimensionMismatch(f"row of length {len(r)}, expected {cols}")
            flat.extend(v % q for v in r)
        return cls(len(rows), cols, tuple(flat), ring)

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_dicts(self):
        return [
            {j: v for j, v in enumerate(self.row(i)) if v} for i in range(self.rows)
        ]


@dataclass(frozen=True)
class HowellBasis:
    """Canonical basis of a submodule of (Z/l^n)^ambient_rank."""

    ambient_rank: int
    rows: tuple  # tuple of row tuples, strictly increasing pivot columns
    ring: RingConfig

    def __len__(self):
        return len(self.rows)

    def pivots(self):
        """List of (column, pivot valuation) per row."""
        out = []
        for r in self.rows:
            c = next(j for j, v in enumerate(r) if v)
            out.append((c, self.ring.val(r[c])))
        return out

    def span_size_log(self) -> int:
        """log_l of the number of elements in the span."""
        return sum(self.ring.n - e for _, e in self.pivots())

    def span_size(self) -> int:
        return self.ring.ell ** self.span_size_log()

    def coordinate_orders(self):
        """Order of the coefficient of each basis row: l^(n-e_i)."""
        return tuple(self.ring.ell ** (self.ring.n - e) for _, e in self.pivots())


# ---------------------------------------------------------------------------
# Row engines.  Each returns a list of (pivot_col, pivot_val, row) with rows
# fully reduced above pivots; rows are dicts or packed ints per engine.
# ---------------------------------------------------------------------------


def _sub_scaled(r: dict, f: int, p: dict, q: int) -> None:
    for c, v in p.items():
        nv = (r.get(c, 0) - f * v) % q
        if nv:
            r[c] = nv
        else:
            r.pop(c, None)


def _howell_dicts(rows, ring: RingConfig):
    q, ell, n = ring.modulus, ring.ell, ring.n
    heap = []
    cnt = 0
    for r in rows:
        rr = {c: v % q for c, v in r.items() if v % q}
        if rr:
            heapq.heappush(heap, (min(rr), cnt, rr))
            cnt += 1
    pivots = []
    while heap:
        lead, c0, r = heapq.heappop(heap)
        if heap and heap[0][0] == lead:
            _, c1, r2 = heapq.heappop(heap)
            if ring.val(r2[lead]) < ring.val(r[lead]):
                r, r2 = r2, r
            vp = ring.val(r[lead])
            pe = ell**vp
            f = (r2[lead] // pe) * ring.unit_inv(r[lead]) % q
            _sub_scaled(r2, f, r, q)
            heapq.heappush(heap, (lead, min(c0, c1), r))
            if r2:
                heapq.heappush(heap, (min(r2), max(c0, c1), r2))
            continue
        vp = ring.val(r[lead])
        uinv = ring.unit_inv(r[lead])
        if uinv != 1:
            r = {c: (v * uinv) % q for c, v in r.items()}
        pivots.append((lead, vp, r))
        if vp:
            sh = ell ** (n - vp)
            shadow = {c: w for c, v in r.items() if (w := (v * sh) % q)}
            if shadow:
                heapq.heappush(heap, (min(shadow), cnt, shadow))
                cnt += 1
    for i, (col, e, prow) in enumerate(pivots):
        pe = ell**e
        for j in range(i):
            r0 = pivots[j][2]
            f = r0.get(col, 0) // pe
            if f:
                _sub_scaled(r0, f, prow, q)
    return pivots


def _howell_bits(rows):
    """RREF over F_2 with rows packed as ints (bit j = column j)."""
    table = {}
    for row in rows:
        while row:
            c = (row & -row).bit_length() - 1
            p = table.get(c)
            if p is None:
                table[c] = row
                break
            row ^= p
    cols = sorted(table)
    pivot_mask = sum(1 << c for c in cols)
    for c in reversed(cols):
        r = table[c]
        # rows of larger pivots are already reduced: each XOR clears one pivot bit
        hits = (r & pivot_mask) >> (c + 1)
        while hits:
            low = hits & -hits
            r ^= table[c + low.bit_length()]
            hits ^= low
        table[c] = r
    return [(c, 0, table[c]) for c in cols]


class LinearSolver:
    """Canonical solving machinery for one matrix: x . A = b.

    Built from the Howell form of [A | I]; exposes the canonical image basis,
    the canonical kernel basis (in coefficient space), membership tests, and
    lexicographically-least solutions.  Accepts dense row lists, sparse row
    dicts, or (modulus 2) packed ints.
    """

    def __init__(self, rows, ncols: int, ring: RingConfig, packed: bool = False):
        self.ring = ring
        self.ncols = ncols
        rows = list(rows)
        self.nrows = len(rows)
        self.bits = ring.modulus == 2
        if packed and not self.bits:
            raise ValueError("packed rows require modulus 2")
        if self.bits:
            if packed:
                packed_rows = [r | (1 << (ncols + i)) for i, r in enumerate(rows)]
            else:
                packed_rows = []
                for i, r in enumerate(rows):
                    if isinstance(r, dict):
                        x = reduce(lambda a, cv: a | ((cv[1] % 2) << cv[0]), r.items(), 0)
                    else:
                        x = reduce(lambda a, cv: a | ((cv[1] % 2) << cv[0]), enumerate(r), 0)
                    packed_rows.append(x | (1 << (ncols + i)))
            pivots = _howell_bits(packed_rows)
            amask = (1 << ncols) - 1
            self._image = [
                (c, e, row & amask, row >> ncols) for c, e, row in pivots if c < ncols
            ]
            self._kernel = [
                (c - ncols, e, row >> ncols) for c, e, row in pivots if c >= ncols
            ]
        else:
            dict_rows = []
            for i, r in enumerate(rows):
                d = dict(r) if isinstance(r, dict) else {j: v for j, v in enumerate(r) if v}
                d = {c: v % ring.modulus for c, v in d.items() if v % ring.modulus}
                d[ncols + i] = 1
                dict_rows.append(d)
            pivots = _howell_dicts(dict_rows, ring)
            self._image = [
                (
                    c,
                    e,
                    {k: v for k, v in row.items() if k < ncols},
                    {k - ncols: v for k, v in row.items() if k >= ncols},
                )
                for c, e, row in pivots
                if c < ncols
            ]
            self._kernel = [
                (c - ncols, e, {k - ncols: v for k, v in row.items()})
                for c, e, row in pivots
                if c >= ncols
            ]

    # -- representation helpers ------------------------------------------

    def image_row_tuples(self):
        out = []
        for _, _, row, _ in self._image:
            if self.bits:
                out.append(tuple((row >> j) & 1 for j in range(self.ncols)))
            else:
                out.append(tuple(row.get(j, 0) for j in range(self.ncols)))
        return tuple(out)

    def kernel_row_tuples(self):
        out = []
        for _, _, row in self._kernel:
            if self.bits:
                out.append(tuple((row >> j) & 1 for j in range(self.nrows)))
            else:
                out.append(tuple(row.get(j, 0) for j in range(self.nrows)))
        return tuple(out)

    # -- solving ----------------------------------------------------------

    def _reduce_against_image(self, b):
        """Reduce b against image pivots; returns (ok, coeffs) where coeffs
        pairs each pivot with its coefficient, or (False, None)."""
        q, ell = self.ring.modulus, self.ring.ell
        if self.bits:
            r = 0
            for j, v in (b.items() if isinstance(b, dict) else enumerate(b)):
                if v % 2:
                    r |= 1 << j
            coeffs = []
            for c, e, arow, trow in self._image:
                if (r >> c) & 1:
                    r ^= arow
                    coeffs.append((c, trow, 1))
            return (False, None) if r else (True, coeffs)
        r = dict(b) if isinstance(b, dict) else {j: v for j, v in enumerate(b) if v}
        r = {c: v % q for c, v in r.items() if v % q}
        coeffs = []
        for c, e, arow, trow in self._image:
            a = r.get(c, 0)
            if not a:
                continue
            pe = ell**e
            if a % pe:
                return (False, None)
            f = a // pe
            _sub_scaled(r, f, arow, q)
            coeffs.append((c, trow, f))
        if r:
            return (False, None)
        return (True, coeffs)

    def contains(self, b) -> bool:
        ok, _ = self._reduce_against_image(b)
        return ok

    def coords(self, b):
        """Coefficients of b over the canonical image rows, or None."""
        ok, coeffs = self._reduce_against_image(b)
        if not ok:
            return None
        by_col = {c: f for c, _, f in coeffs}
        return tuple(by_col.get(c, 0) for c, _, _, _ in self._image)

    def solve(self, b):
        """Lexicographically least x with x . A = b, or None."""
        ok, coeffs = self._reduce_against_image(b)
        if not ok:
            return None
        q = self.ring.modulus
        if self.bits:
            x = 0
            for _, trow, _ in coeffs:
                x ^= trow
            x = _lex_min_bits(x, [row for _, _, row in self._kernel])
            return tuple((x >> i) & 1 for i in range(self.nrows))
        x = {}
        for _, trow, f in coeffs:
            _sub_scaled(x, (-f) % q, trow, q)
        xv = [x.get(i, 0) for i in range(self.nrows)]
        xv = _lex_min_dense(xv, self._kernel, self.ring)
        return tuple(xv)


def _lex_min_bits(x: int, kernel_rows) -> int:
    for row in kernel_rows:
        c = (row & -row).bit_length() - 1
        if (x >> c) & 1:
            x ^= row
    return x


def _lex_min_dense(xv, kernel_pivots, ring: RingConfig):
    q, ell = ring.modulus, ring.ell
    for c, e, row in kernel_pivots:
        pe = ell**e
        f = xv[c] // pe
        if f:
            for k, v in row.items():
                xv[k] = (xv[k] - f * v) % q
    return xv


def lex_min_in_coset(vec, basis: HowellBasis):
    """Lexicographically least element of vec + span(basis)."""
    ring = basis.ring
    q, ell = ring.modulus, ring.ell
    xv = [v % q for v in vec]
    if len(xv) != basis.ambient_rank:
        raise DimensionMismatch("vector/ambient rank mismatch")
    for (c, e), row in zip(basis.pivots(), basis.rows):
        pe = ell**e
        f = xv[c] // pe
        if f:
            for k, v in enumerate(row):
                if v:
                    xv[k] = (xv[k] - f * v) % q
    return tuple(xv)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def howell_form_rows(rows, ambient_rank: int, ring: RingConfig) -> HowellBasis:
    rows = list(rows)
    for r in rows:
        if not isinstance(r, dict) and len(r) != ambient_rank:
            raise DimensionMismatch(f"row length {len(r)} != ambient rank {ambient_rank}")
    if ring.modulus == 2:
        packed = []
        for r in rows:
            items = r.items() if isinstance(r, dict) else enumerate(r)
            packed.append(reduce(lambda a, cv: a | ((cv[1] % 2) << cv[0]), items, 0))
        pivots = _howell_bits(packed)
        out = [tuple((row >> j) & 1 for j in range(ambient_rank)) for _, _, row in pivots]
    else:
        dicts = [
            r if isinstance(r, dict) else {j: v for j, v in enumerate(r) if v % ring.modulus}
            for r in rows
        ]
        pivots = _howell_dicts(dicts, ring)
        out = [tuple(row.get(j, 0) for j in range(ambient_rank)) for _, _, row in pivots]
    return HowellBasis(ambient_rank, tuple(out), ring)


def howell_form(generators: ZMat) -> HowellBasis:
    """Canonical basis of the row span of the given matrix."""
    return howell_form_rows(generators.row_dicts(), generators.cols, generators.ring)


def kernel(a: ZMat) -> HowellBasis:
    """Canonical basis of {x : x . a = 0}."""
    solver = LinearSolver(a.row_dicts(), a.cols, a.ring)
    return HowellBasis(a.rows, solver.kernel_row_tuples(), a.ring)


def solve(a: ZMat, b):
    """One canonical solution of x . a = b, or None when unsolvable."""
    b = list(b)
    if len(b) != a.cols:
        raise DimensionMismatch(f"rhs length {len(b)} != cols {a.cols}")
    return LinearSolver(a.row_dicts(), a.cols, a.ring).solve(b)


def contains(sub: HowellBasis, v) -> bool:
    """Membership of v in the span of a Howell basis."""
    v = list(v)
    if len(v) != sub.ambient_rank:
        raise DimensionMismatch(f"vector length {len(v)} != ambient rank {sub.ambient_rank}")
    ring = sub.ring
    q, ell = ring.modulus, ring.ell
    r = [x % q for x in v]
    for (c, e), row in zip(sub.pivots(), sub.rows):
        a = r[c]
        if not a:
            continue
        pe = ell**e
        if a % pe:
            return False
        f = a // pe
        for k, w in enumerate(row):
            if w:
                r[k] = (r[k] - f * w) % q
    return not any(r)


def coords_in_basis(sub: HowellBasis, v):
    """Unique coefficients (c_i in [0, l^(n-e_i))) with v = sum c_i row_i, or None."""
    v = list(v)
    ring = sub.ring
    q, ell = ring.modulus, ring.ell
    r = [x % q for x in v]
    out = []
    for (c, e), row in zip(sub.pivots(), sub.rows):
        a = r[c]
        pe = ell**e
        if a % pe:
            return None
        f = a // pe
        out.append(f)
        if f:
            for k, w in enumerate(row):
                if w:
                    r[k] = (r[k] - f * w) % q
    if any(r):
        return None
    return tuple(out)


def enumerate_span(sub: HowellBasis):
    """All elements of the span, deterministically ordered by coefficients."""
    orders = sub.coordinate_orders()
    q = sub.ring.modulus
    amb = sub.ambient_rank
    for cs in product(*(range(o) for o in orders)):
        v = [0] * amb
        for f, row in zip(cs, sub.rows):
            if f:
                for k, w in enumerate(row):
                    if w:
                        v[k] = (v[k] + f * w) % q
        yield tuple(v)


def sum_spans(a: HowellBasis, b: HowellBasis) -> HowellBasis:
    if a.ambient_rank != b.ambient_rank:
        raise DimensionMismatch("ambient ranks differ")
    return howell_form_rows(list(a.rows) + list(b.rows), a.ambient_rank, a.ring)


def zero_basis(ambient_rank: int, ring: RingConfig) -> HowellBasis:
    return HowellBasis(ambient_rank, (), ring)


def full_basis(ambient_rank: int, ring: RingConfig) -> HowellBasis:
    rows = tuple(
        tuple(1 if i == j else 0 for j in range(ambient_rank)) for i in range(ambient_rank)
    )
    return HowellBasis(ambient_rank, rows, ring)


# ---------------------------------------------------------------------------
# Quotients.
# ---------------------------------------------------------------------------


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def smith_normal_form(rows, ncols: int, ring: RingConfig):
    """Diagonalize over Z/l^n by unimodular row/column operations.

    Returns (diag, Q, Qinv) where diag lists the diagonal entries (canonical
    powers of l, possibly 0) and Q / Qinv are the accumulated column
    transforms: new coordinates of an ambient row vector x are x . Q.
    """
    q, ell, n = ring.modulus, ring.ell, ring.n
    M = [[v % q for v in r] for r in rows]
    nr = len(M)
    Q = _identity(ncols)
    Qinv = _identity(ncols)
    t = 0
    lim = min(nr, ncols)
    while t < lim:
        best = None
        for i in range(t, nr):
            Mi = M[i]
            for j in range(t, ncols):
                if Mi[j]:
                    v = ring.val(Mi[j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, bi, bj = best
        if bi != t:
            M[bi], M[t] = M[t], M[bi]
        if bj != t:
            for row in M:
                row[bj], row[t] = row[t], row[bj]
            for row in Q:
                row[bj], row[t] = row[t], row[bj]
            Qinv[bj], Qinv[t] = Qinv[t], Qinv[bj]
        uinv = ring.unit_inv(M[t][t])
        if uinv != 1:
            M[t] = [(x * uinv) % q for x in M[t]]
        pe = ell**v
        for i in range(nr):
            if i == t:
                continue
            f = M[i][t] // pe
            if f:
                Mi, Mt = M[i], M[t]
                for k in range(t, ncols):
                    Mi[k] = (Mi[k] - f * Mt[k]) % q
        for j in range(t + 1, ncols):
            f = M[t][j] // pe
            if f:
                for row in M:
                    row[j] = (row[j] - f * row[t]) % q
                for row in Q:
                    row[j] = (row[j] - f * row[t]) % q
                Qj, Qt = Qinv[j], Qinv[t]
                for k in range(ncols):
                    Qt[k] = (Qt[k] + f * Qj[k]) % q
        t += 1
    diag = [M[i][i] if i < nr else 0 for i in range(min(t, ncols))]
    return diag, Q, Qinv


@dataclass(frozen=True)
class QuotientPresentation:
    """Ambient/sub as a product of cyclic groups with transfer maps.

    orders[i] is the order of quotient coordinate i; project/section are
    matrices in the row convention (project: ambient -> quotient coords,
    section: quotient -> ambient representatives).
    """

    ambient_rank: int
    orders: tuple
    project: tuple  # ambient_rank x len(orders)
    section: tuple  # len(orders) x ambient_rank
    ring: RingConfig

    def project_vec(self, v):
        q = self.ring.modulus
        out = [0] * len(self.orders)
        for i, x in enumerate(v):
            if x % q:
                prow = self.project[i]
                for j in range(len(self.orders)):
                    if prow[j]:
                        out[j] = (out[j] + x * prow[j]) % self.orders[j]
        return tuple(out)

    def section_vec(self, y):
        q = self.ring.modulus
        out = [0] * self.ambient_rank
        for i, x in enumerate(y):
            if x % self.orders[i]:
                srow = self.section[i]
                for j in range(self.ambient_rank):
                    if srow[j]:
                        out[j] = (out[j] + x * srow[j]) % q
        return tuple(out)


def quotient_presentation(sub: HowellBasis, ambient_rank: int | None = None) -> QuotientPresentation:
    """Present ambient/span(sub) as a product of cyclic l-power groups."""
    ring = sub.ring
    if ambient_rank is None:
        ambient_rank = sub.ambient_rank
    if ambient_rank != sub.ambient_rank:
        raise DimensionMismatch("ambient rank mismatch")
    q, ell, n = ring.modulus, ring.ell, ring.n
    diag, Q, Qinv = smith_normal_form(list(sub.rows), ambient_rank, ring)
    orders = []
    kept = []
    for j in range(ambient_rank):
        d = diag[j] if j < len(diag) else 0
        o = ell ** ring.val(d) if d else q
        if ring.val(d) == 0 and d:
            continue  # unit pivot: coordinate dies in the quotient
        orders.append(o)
        kept.append(j)
    project = tuple(tuple(Q[i][j] for j in kept) for i in range(ambient_rank))
    section = tuple(tuple(Qinv[j]) for j in kept)
    return QuotientPresentation(ambient_rank, tuple(orders), project, section, ring)


def span_orders(h: HowellBasis):
    """Invariant factors of the span as an abstract module, descending."""
    return quotient_orders(h, zero_basis(h.ambient_rank, h.ring))


def quotient_orders(u: HowellBasis, v: HowellBasis):
    """Invariant factors of span(u)/span(v), descending; v must lie in u."""
    if u.ambient_rank != v.ambient_rank:
        raise DimensionMismatch("ambient ranks differ")
    ring = u.ring
    ell, n = ring.ell, ring.n
    size_u = u.span_size_log()
    s = [0] * (n + 1)
    for j in range(1, n + 1):
        scaled = [tuple((x * ell**j) % ring.modulus for x in row) for row in u.rows]
        w = howell_form_rows(list(v.rows) + scaled, u.ambient_rank, ring)
        s[j] = size_u - w.span_size_log()
    m = [0] * (n + 2)
    for j in range(1, n + 1):
        m[j] = s[j] - s[j - 1]
    out = []
    for c in range(n, 0, -1):
        out.extend([ell**c] * (m[c] - m[c + 1]))
    return tuple(out)
