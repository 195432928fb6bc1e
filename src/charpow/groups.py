"""Finite groups as explicit tables; commuting p-power tuples and their classes.

Groups are built from a small spec language ("S3", "C4", "C2xC2",
"wr(S2,2)") and cached per name, so repeated constructions hand back the
same object and conjugacy classes stay comparable across calls.  Tuple
classes are canonicalized to the lexicographically least representative of
their simultaneous-conjugacy orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    GroupTooLargeError,
    ListingTooLargeError,
    NotAHomomorphismError,
    NotASubgroupError,
    NotPPowerTupleError,
)
from .lattice import (
    LatticeBasis,
    _flip,
    int_valuation,
    is_p_power,
    is_prime,
)
from .torsion import (
    LISTING_CAP,
    SumOfSubgroups,
    annihilator_lattice,
    torsion_subgroup,
)

ORDER_CAP = 10_000
TRANSLATION_CACHE = 1024  # lattices whose coset translations are kept at most
_CHECK_BLOCK = 1 << 16  # table entries per block of a table scan


def _row_blocks(n):
    """Slices of rows that cover an n-column table, about _CHECK_BLOCK entries each.

    A scan block by block holds no transient as large as the table.
    """
    rows = max(1, _CHECK_BLOCK // max(n, 1))
    return [slice(r, r + rows) for r in range(0, n, rows)]


class FiniteGroup:
    """Indexed element set with a full multiplication table.

    table[i, j] is the index of elements[i] * elements[j], as uint16.
    """

    def __init__(self, name, elements, table, structure=None):
        _check_order(name, [len(elements)])
        self.name = name
        self.elements = tuple(elements)
        self.index = {lab: i for i, lab in enumerate(self.elements)}
        self.structure = structure
        n = len(self.elements)
        self.table = table = np.asarray(table, dtype=np.uint16)
        if table.shape != (n, n):
            raise ValueError(f"group {name} has {n} elements but a {table.shape} table")
        eye, left = np.arange(n), np.zeros(n, dtype=bool)  # left: the left identities
        for b in _row_blocks(n):
            left[b] = (table[b] == eye).all(axis=1)
        ident = [e for e in np.flatnonzero(left) if (table[:, e] == eye).all()]
        if len(ident) != 1:
            raise ValueError(f"group {self.name} has no identity")
        self.identity = int(ident[0])
        inv = np.full(n, -1, dtype=np.int64)
        for b in _row_blocks(n):
            rows, cols = np.nonzero(table[b] == self.identity)
            inv[b.start + rows] = cols
        if (inv < 0).any():
            raise ValueError(f"group {self.name} has an element without inverse")
        self.inv = inv.astype(np.uint16)
        self._orders = None
        self._gens = self._generators()
        self._check_associativity()
        self._center = None
        self._hom_classes = {}
        self._subgroup_groups = {}
        self._cosets = {}

    def _check_associativity(self):
        """Light's test on a generating set: exhaustive, and cheap.

        The g with (xg)y == x(gy) for all x, y form a set closed under
        products that holds the identity; once it holds generators whose
        products reach every element, it is the whole group.  Rows are
        compared in blocks.
        """
        table = self.table
        for g in self._gens:
            left, right = table[:, g], table[g]
            for b in _row_blocks(self.order):
                if (table[left[b]] != np.take(table[b], right, axis=1)).any():
                    raise ValueError(f"multiplication table of {self.name} is not associative")

    def _generators(self):
        """A small generating set for Light's test.

        Greedy by order: each next generator is an element of largest order
        that products of the earlier ones miss, the first such on ties; then
        each generator that the others already generate is dropped.  S5 to S7
        end with two, where taking the first element missed needs m - 1.
        orders() takes a bounded number of gathers on any table, so a table
        that is no group still ends.
        """
        rank = self.orders()
        gens = []
        while not (reached := self._closure(gens)).all():
            gens.append(int(np.argmax(np.where(reached, 0, rank))))
        for g in gens[:-1]:  # the others always miss the last one
            rest = [x for x in gens if x != g]
            if self._closure(rest).all():
                gens = rest
        return gens

    def _closure(self, gens):
        """Mask of the elements that the identity reaches by right products with gens."""
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        frontier = np.flatnonzero(reached)
        while frontier.size and gens:  # breadth-first
            before = reached.copy()
            reached[self.table[frontier[:, None], gens]] = True
            frontier = np.flatnonzero(reached ^ before)
        return reached

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def orders(self):
        """Order of every element, by divisor tests on |G|.

        Every order divides |G|.  Starting from d = |G|, each prime r of |G|
        divides d for as long as x^(d/r) is the identity, which leaves d the
        order of x: O(log^2 |G|) table gathers in all.
        """
        if self._orders is None:
            x = np.arange(self.order)
            d = np.full(self.order, self.order, dtype=np.int64)
            for r in _prime_factors(self.order):
                trial = np.where(d % r == 0, d // r, d)
                d = np.where(self._powers(x, trial) == self.identity, trial, d)
            self._orders = d
        return self._orders

    def _powers(self, base, exps):
        """base[i]^exps[i] for every i of one shape, by repeated squaring with table gathers."""
        acc = np.full(exps.shape, self.identity, dtype=np.intp)
        while exps.any():
            odd = (exps & 1) == 1
            acc[odd] = self.table[acc[odd], base[odd]]
            base = self.table[base, base]
            exps = exps >> 1
        return acc

    def power(self, i: int, e: int) -> int:
        e %= int(self.orders()[i])
        acc = self.identity
        for _ in range(e):
            acc = self.mul(acc, i)
        return acc

    def exponent_valuation(self, p: int) -> int:
        """v_p of the exponent of the p-part of the group."""
        return max(int_valuation(int(o), p) for o in self.orders())

    def p_power_elements(self, p: int):
        orders = self.orders()
        return [i for i in range(self.order) if is_p_power(int(orders[i]), p)]

    def _center_mask(self):
        """Mask of the central elements: those commuting with each generator."""
        if self._center is None:
            self._center = np.zeros(self.order, dtype=bool)
            self._center[self.centralizer(self._gens)] = True
        return self._center

    def centralizer(self, idxs):
        table = self.table
        mask = np.ones(self.order, dtype=bool)
        for g in idxs:
            mask &= table[:, g] == table[g, :]
        return [int(i) for i in np.nonzero(mask)[0]]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def canonical_tuples(group, tuples, mats=None):
    """Canonical rep of [alpha . T] for each tuple alpha and its matrix T, as int rows.

    The tuple h_j = prod_i g_i^{T[i][j]} is formed by repeated squaring
    over table gathers, with each exponent taken mod the order of g_i, so
    negative entries work; mats is one matrix for every tuple or one per
    tuple, and None stands for the identity.  Of the conjugates x h x^-1,
    all formed at once, lexsort picks the least.  Blocks of tuples keep
    each transient within about _CHECK_BLOCK entries.  No p-power or
    commuting check is made: a tuple that passed them keeps them under
    precomposition and conjugation.  No tuples give an empty array.
    """
    if not len(tuples):
        return np.empty((0, 0), dtype=np.intp)
    table, inv = group.table, group.inv
    tuples = np.asarray(tuples, dtype=np.intp)
    k, n = tuples.shape
    width = n
    if mats is not None:
        t = np.asarray(mats)
        if t.dtype == object:  # entries past int64: every element order divides |G|
            t = t % group.order
        width = t.shape[-1]
        t = np.broadcast_to(t.astype(np.int64), (k, n, width))
    rows = max(1, _CHECK_BLOCK // (width * max(group.order, n)))
    out = []
    for b in range(0, k, rows):
        h = tuples[b:b + rows]
        if mats is not None:
            exps = t[b:b + rows] % group.orders()[h][:, :, None]
            acc = group._powers(np.broadcast_to(h[:, :, None], exps.shape), exps)
            h = acc[:, 0]
            for i in range(1, n):
                h = table[h, acc[:, i]]
        # conj[x, c, j] = x h_cj x^-1
        conj = table[table.take(h.ravel(), axis=1), inv[:, None]].reshape(-1, *h.shape)
        x0 = np.lexsort(conj.T[::-1], axis=-1)[:, 0]
        out.append(conj[x0, np.arange(len(h))])
    return out[0] if len(out) == 1 else np.concatenate(out)


def canonical_tuple(group, tup):
    """Lexicographically least member of the simultaneous-conjugacy orbit."""
    return tuple(canonical_tuples(group, [tup])[0].tolist())


@dataclass(frozen=True)
class TupleClass:
    """Conjugacy class of a commuting p-power-order tuple; rep is canonical."""

    group: FiniteGroup
    rep: tuple
    p: int

    def __post_init__(self):
        rep = tuple(int(g) for g in self.rep)
        orders = self.group.orders()
        for g in rep:
            if not is_p_power(int(orders[g]), self.p):
                raise NotPPowerTupleError(f"element {g} has order {orders[g]}")
        for a, b in itertools.combinations(rep, 2):
            if self.group.mul(a, b) != self.group.mul(b, a):
                raise NotPPowerTupleError("tuple entries do not commute")
        object.__setattr__(self, "rep", canonical_tuple(self.group, rep))

    @classmethod
    def _canonical(cls, group, rep, p):
        """A class whose rep is already a canonical tuple of ints; skips every check."""
        alpha = object.__new__(cls)
        object.__setattr__(alpha, "group", group)
        object.__setattr__(alpha, "rep", rep)
        object.__setattr__(alpha, "p", p)
        return alpha

    @property
    def n(self) -> int:
        return len(self.rep)

    def __eq__(self, other):
        return (
            isinstance(other, TupleClass)
            and self.group is other.group
            and self.p == other.p
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((id(self.group), self.p, self.rep))


# ---------------------------------------------------------------------------
# group constructors and the group-spec mini-language

_GROUPS: dict = {}


def _check_order(name, factors):
    """Refuse a group whose order, the product of factors, passes ORDER_CAP."""
    order = 1
    for f in factors:  # stops at the first partial product above the cap
        order *= f
        if order > ORDER_CAP:
            raise GroupTooLargeError(f"group {name} has order above ORDER_CAP = {ORDER_CAP}")


def _prime_factors(k: int) -> list:
    """The primes of k, each as often as it divides k."""
    out, r = [], 2
    while r * r <= k:
        while k % r == 0:
            out.append(r)
            k //= r
        r += 1
    return out + [k] * (k > 1)


def _perm_table(perms):
    """Composition table (s t)(i) = s(t(i)) of lexicographically sorted permutations.

    A permutation's base-m digits are its entries, so its key ranks it; a
    dense key -> index array of m^m entries (823543 for S7) reads the rows.
    The key of s t is sum_i w_i s(t(i)) = s . u_t with u_t(j) = w_(t^-1(j)),
    so the keys of a block of rows are a sum of m outer products, in int32:
    ORDER_CAP admits m <= 7, and 7^7 < 2^31.
    """
    n, m = perms.shape
    perms = perms.astype(np.int32)
    weights = m ** np.arange(m - 1, -1, -1, dtype=np.int32)
    rank = np.zeros(m ** m, dtype=np.uint16)
    rank[perms @ weights] = np.arange(n)
    u = np.ascontiguousarray(weights[np.argsort(perms, axis=1)].T)  # column t is u_t
    table = np.empty((n, n), dtype=np.uint16)
    for b in _row_blocks(n):
        s = perms[b]
        keys = np.zeros((len(s), n), dtype=np.int32)
        for j in range(m):
            keys += s[:, j, None] * u[j]
        table[b] = rank[keys]
    return table


def symmetric_group(m: int) -> FiniteGroup:
    """S_m on the permutations of range(m) in lexicographic order."""
    name = f"S{m}"
    if name not in _GROUPS:
        _check_order(name, range(1, m + 1))
        elements = list(itertools.permutations(range(m)))
        table = _perm_table(np.array(elements, dtype=np.intp, ndmin=2))
        _GROUPS[name] = FiniteGroup(name, elements, table, structure=("symmetric", m))
    return _GROUPS[name]


def cyclic_group(k: int) -> FiniteGroup:
    """C_k on 0, ..., k-1 under addition mod k."""
    name = f"C{k}"
    if name not in _GROUPS:
        _check_order(name, [k])
        a = np.arange(k, dtype=np.uint16)
        table = np.add.outer(a, a)
        np.remainder(table, k, out=table)  # in place: one table at a time
        _GROUPS[name] = FiniteGroup(name, range(k), table, structure=("cyclic", k))
    return _GROUPS[name]


def product_group(g: FiniteGroup, k: FiniteGroup) -> FiniteGroup:
    """G x K with (g_i, k_j) at index i |K| + j."""
    name = f"({g.name}x{k.name})"
    if name not in _GROUPS:
        _check_order(name, [g.order, k.order])
        elements = list(itertools.product(g.elements, k.elements))
        table = g.table[:, None, :, None] * k.order + k.table[None, :, None, :]
        table = table.reshape(len(elements), -1)
        _GROUPS[name] = FiniteGroup(name, elements, table, structure=("product", g, k))
    return _GROUPS[name]


def wreath_group(g: FiniteGroup, m: int) -> FiniteGroup:
    """G wr S_m, (v, s)(w, t) = (i -> v_i w_{s^-1(i)}, s t).

    (v, s) has index (v in base |G|, first entry leading) m! + (index of s).
    """
    name = f"wr({g.name},{m})"
    if name not in _GROUPS:
        _check_order(name, (g.order * i for i in range(1, m + 1)))
        perms = list(itertools.permutations(range(m)))
        elements = [
            (vec, s)
            for vec in itertools.product(g.elements, repeat=m)
            for s in perms
        ]
        perm_arr = np.array(perms, dtype=np.intp, ndmin=2)
        perm_table = _perm_table(perm_arr)
        perm_inv = perm_arr[np.nonzero(perm_table == 0)[1]]  # s t = identity: t = s^-1
        digits = np.array(
            list(itertools.product(range(g.order), repeat=m)), dtype=np.intp, ndmin=2
        )
        weights = g.order ** np.arange(m - 1, -1, -1)
        table = np.empty((len(elements), len(elements)), dtype=np.uint16)
        for a in range(len(elements)):
            v, s = divmod(a, len(perms))
            vec = g.table[digits[v], digits[:, perm_inv[s]]].dot(weights)
            table[a] = (vec[:, None] * len(perms) + perm_table[s]).ravel()
        _GROUPS[name] = FiniteGroup(name, elements, table, structure=("wreath", g, m))
    return _GROUPS[name]


def build_group(spec: str) -> FiniteGroup:
    """Build a group from the group-spec mini-language.

    Grammar: atom = S<m> | C<k> | wr(<spec>,<m>); product = atoms joined by x.
    """
    factors = _split_product(spec.replace(" ", ""))
    groups = [_build_atom(f) for f in factors]
    out = groups[0]
    for extra in groups[1:]:
        out = product_group(out, extra)
    return out


def _split_product(spec: str):
    parts, depth, cur = [], 0, []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "x" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if not all(parts):
        raise ValueError(f"bad group spec {spec!r}")
    return parts


def _spec_number(digits: str, atom: str) -> int:
    """The number written in a spec atom.

    A number of more digits than ORDER_CAP has is refused before int()
    reads it: C_k, S_k and G wr S_k all have order at least k.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(ORDER_CAP)):
        shown = atom if len(atom) <= 40 else atom[:37] + "..."
        raise GroupTooLargeError(
            f"group spec {shown!r} names a {len(digits)}-digit number, so the group "
            f"has order above ORDER_CAP = {ORDER_CAP}"
        )
    return int(digits)


def _build_atom(atom: str) -> FiniteGroup:
    if atom.startswith("(") and atom.endswith(")"):
        return build_group(atom[1:-1])
    if atom.startswith("wr(") and atom.endswith(")"):
        inner = atom[3:-1]
        depth = 0
        for pos in range(len(inner) - 1, -1, -1):
            ch = inner[pos]
            if ch == ")":
                depth += 1
            elif ch == "(":
                depth -= 1
            elif ch == "," and depth == 0 and inner[pos + 1:].isdecimal():
                degree = _spec_number(inner[pos + 1:], atom)
                return wreath_group(build_group(inner[:pos]), degree)
        raise ValueError(f"bad wreath spec {atom!r}")
    if atom[:1] == "S" and atom[1:].isdecimal():
        return symmetric_group(_spec_number(atom[1:], atom))
    if atom[:1] == "C" and atom[1:].isdecimal():
        return cyclic_group(_spec_number(atom[1:], atom))
    raise ValueError(f"bad group spec {atom!r}")


# ---------------------------------------------------------------------------
# homomorphisms and subgroups


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(int(x) for x in self.mapping))
        if len(self.mapping) != self.source.order:
            raise NotAHomomorphismError("mapping must be total")
        if self.mapping[self.source.identity] != self.target.identity:
            raise NotAHomomorphismError("identity is not preserved")
        f = np.array(self.mapping, dtype=np.intp)
        for i in range(self.source.order):
            # f(g_i g_j) == f(g_i) f(g_j), for every j at once
            if (f[self.source.table[i]] != self.target.table[f[i], f]).any():
                raise NotAHomomorphismError("map fails the homomorphism law")

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.order


def identity_hom(g: FiniteGroup) -> Homomorphism:
    return Homomorphism(g, g, tuple(range(g.order)))


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    indices: tuple

    def __post_init__(self):
        idxs = tuple(sorted(set(int(i) for i in self.indices)))
        object.__setattr__(self, "indices", idxs)
        if self.parent.identity not in idxs:
            raise NotASubgroupError("subset misses the identity")
        inside = np.zeros(self.parent.order, dtype=bool)
        inside[list(idxs)] = True
        for a in idxs:
            if not inside[self.parent.table[a, idxs]].all():
                raise NotASubgroupError("subset is not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.indices)

    def as_group(self) -> FiniteGroup:
        cache = self.parent._subgroup_groups
        if self.indices not in cache:
            parent, idxs = self.parent, np.array(self.indices)
            table = np.empty((len(idxs), len(idxs)), dtype=np.uint16)
            for row, a in enumerate(idxs):
                table[row] = np.searchsorted(idxs, parent.table[a, idxs])
            name = f"{parent.name}|sub{len(cache)}:{self.indices[:6]}"
            elements = [parent.elements[i] for i in self.indices]
            cache[self.indices] = FiniteGroup(name, elements, table)
        return cache[self.indices]

    def inclusion(self) -> Homomorphism:
        sub = self.as_group()
        return Homomorphism(sub, self.parent, self.indices)


def subgroup_closure(group: FiniteGroup, gens) -> Subgroup:
    """The subgroup gens generate: in a finite group, right products with gens reach it."""
    return Subgroup(group, tuple(np.flatnonzero(group._closure([int(g) for g in gens])).tolist()))


def abelian_subgroups(group: FiniteGroup):
    """All abelian subgroups, found by closing commuting extensions; |G| <= 1000."""
    if group.order > 1000:
        raise GroupTooLargeError("abelian subgroup enumeration capped at order 1000")
    found = {}
    frontier = [frozenset({group.identity})]
    found[frozenset({group.identity})] = Subgroup(group, (group.identity,))
    while frontier:
        current = frontier.pop()
        elems = sorted(current)
        cent = set(group.centralizer(elems))
        for g in sorted(cent - current):
            new = subgroup_closure(group, list(current) + [g])
            key = frozenset(new.indices)
            block = group.table[np.ix_(new.indices, new.indices)]
            abelian = (block == block.T).all()
            if abelian and key not in found:
                found[key] = new
                frontier.append(key)
    return tuple(sorted(found.values(), key=lambda s: (s.order, s.indices)))


# ---------------------------------------------------------------------------
# commuting tuple classes


def enumerate_hom_classes(group: FiniteGroup, n: int, p: int):
    """Complete duplicate-free list of classes of commuting p-power n-tuples.

    Hom(Z_p^n, G)/G is the disjoint union over classes [g] of p-power
    elements of Hom(Z_p^(n-1), C(g))/C(g).  The walk carries the
    centralizer C of the prefix and the pool of p-power elements that
    commute with the prefix, ascending.  It branches only on the least
    element x of each C-orbit in the pool; the child keeps the part of C
    and of the pool that commutes with x.  A central x is its own orbit
    and keeps both whole.

    So every leaf is canonical, the least tuple of its class: h_1 is the
    least conjugate of g_1, the conjugators reaching h_1 form a coset of
    C(h_1), so h_2 is the least C(h_1)-conjugate of its entry, and so on.
    Leaves come out sorted, one per class.  ListingTooLargeError is raised
    past LISTING_CAP leaves, with nothing more built, and before the walk
    when n alone shows the listing too large.
    """
    key = (n, p)
    if key in group._hom_classes:
        return group._hom_classes[key]
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    ppow = np.array(group.p_power_elements(p), dtype=np.intp)
    too_many = f"n = {n}: more than LISTING_CAP = {LISTING_CAP} tuple classes in {group.name}"
    if n > LISTING_CAP:
        raise ListingTooLargeError(f"n = {n}: a tuple of more than LISTING_CAP = {LISTING_CAP} entries")
    # an x != e of p-power order gives the 2^n or more commuting tuples of
    # <x>^n, and a class holds at most |G| tuples
    if len(ppow) > 1 and 2 ** n > LISTING_CAP * group.order:
        raise ListingTooLargeError(too_many)
    table, inv, central = group.table, group.inv, group._center_mask()
    reps, path = [], []  # path[d]: the entry chosen at depth d

    def node(cent, cent_inv, pool):
        """A node of the walk; its iterator resumes where a child was entered."""
        return cent, cent_inv, pool, np.zeros(len(pool), dtype=bool), iter(enumerate(pool.tolist()))

    stack = [node(np.arange(group.order), inv, ppow)]
    while stack:  # depth first, without recursion
        cent, cent_inv, pool, done, todo = stack[-1]
        last = len(stack) == n
        for i, x in todo:
            if done[i]:
                continue
            if not central[x]:  # mark the C-orbit of x, a part of the pool
                done[np.searchsorted(pool, table[table[cent, x], cent_inv])] = True
            if last:
                if len(reps) == LISTING_CAP:
                    raise ListingTooLargeError(too_many)
                reps.append((*path, x))
                continue
            path.append(x)
            if central[x]:
                stack.append(node(cent, cent_inv, pool))
            else:
                child = cent[table[cent, x] == table[x, cent]]
                stack.append(node(child, inv[child], pool[table[pool, x] == table[x, pool]]))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    classes = tuple(TupleClass._canonical(group, rep, p) for rep in reps)
    group._hom_classes[key] = classes
    return classes


def _evaluate(group: FiniteGroup, rep, vec) -> int:
    """prod_i rep_i^{vec_i}: the commuting tuple rep as a map Z^n -> group at vec."""
    acc = group.identity
    for g, e in zip(rep, vec):
        acc = group.mul(acc, group.power(g, int(e)))
    return acc


def fixed_coset_conjugates(group: FiniteGroup, image: set, rep: tuple):
    """(g, g^-1 rep g) for each coset g.image fixed by every entry of rep.

    image is the index set of a subgroup; g is the least index of its coset,
    and the cosets come in ascending order of g.  A coset is fixed exactly
    when conjugating rep by g lands in image.
    """
    reps, inside = _cosets(group, image)
    table = group.table
    conj = np.array([table[table[group.inv[reps], t], reps] for t in rep], dtype=np.intp)
    conj = conj.reshape(len(rep), len(reps)).T  # row i: rep conjugated by reps[i]
    fixed = inside[conj].all(axis=1)
    return [(g, tuple(c)) for g, c in zip(reps[fixed].tolist(), conj[fixed].tolist())]


def _cosets(group: FiniteGroup, image):
    """(least index of each left coset g.image, ascending; membership mask of image).

    Built once per (group, image) from the gathers table[g, image].
    """
    key = frozenset(image)
    if key not in group._cosets:
        inside = np.zeros(group.order, dtype=bool)
        inside[list(key)] = True
        image = np.flatnonzero(inside)
        covered = np.zeros(group.order, dtype=bool)
        reps = []
        for g in range(group.order):
            if not covered[g]:
                covered[group.table[g, image]] = True
                reps.append(g)
        group._cosets[key] = (np.array(reps, dtype=np.intp), inside)
    return group._cosets[key]


def delta_embed(i: int, j: int) -> Homomorphism:
    """Block embedding of S_i x S_j into S_{i+j}."""
    source = product_group(symmetric_group(i), symmetric_group(j))
    target = symmetric_group(i + j)
    mapping = []
    for s, t in source.elements:
        glued = tuple(s) + tuple(x + i for x in t)
        mapping.append(target.index[glued])
    return Homomorphism(source, target, tuple(mapping))


def wreath_delta_embed(g: FiniteGroup, i: int, j: int) -> Homomorphism:
    """Embedding of (G wr S_i) x (G wr S_j) into G wr S_{i+j}."""
    source = product_group(wreath_group(g, i), wreath_group(g, j))
    target = wreath_group(g, i + j)
    mapping = []
    for (v, s), (w, t) in source.elements:
        label = (v + w, tuple(s) + tuple(x + i for x in t))
        mapping.append(target.index[label])
    return Homomorphism(source, target, tuple(mapping))


def diagonal_wreath_hom(g: FiniteGroup, m: int) -> Homomorphism:
    """G x S_m -> G wr S_m sending (g, s) to ((g, ..., g), s)."""
    source = product_group(g, symmetric_group(m))
    target = wreath_group(g, m)
    mapping = [target.index[((lab,) * m, s)] for lab, s in source.elements]
    return Homomorphism(source, target, tuple(mapping))


def include_left_factor(g: FiniteGroup, k: FiniteGroup) -> Homomorphism:
    """G -> G x K sending g to (g, e)."""
    return Homomorphism(
        g, product_group(g, k), tuple(a * k.order + k.identity for a in range(g.order))
    )


def times_hom(left: Homomorphism, right: Homomorphism) -> Homomorphism:
    """Product homomorphism source_l x source_r -> target_l x target_r."""
    source = product_group(left.source, right.source)
    target = product_group(left.target, right.target)
    mapping = tuple(
        left(a) * right.target.order + right(b)
        for a in range(left.source.order)
        for b in range(right.source.order)
    )
    return Homomorphism(source, target, mapping)


def product_delta_homs(g: FiniteGroup, i: int, j: int):
    """The two restrictions comparing P_{i+j} with the external product P_i x P_j.

    Both start from G x (S_i x S_j): the first lands in G x S_{i+j} through
    the block embedding, the second in (G x S_i) x (G x S_j) through the
    diagonal on G.
    """
    into_big = times_hom(identity_hom(g), delta_embed(i, j))
    si, sj = symmetric_group(i), symmetric_group(j)
    into_split = Homomorphism(
        into_big.source,
        product_group(product_group(g, si), product_group(g, sj)),
        tuple(
            (a * si.order + s) * (g.order * sj.order) + a * sj.order + t
            for a in range(g.order)
            for s in range(si.order)
            for t in range(sj.order)
        ),
    )
    return into_big, into_split


def product_components(group: FiniteGroup):
    if not (group.structure and group.structure[0] == "product"):
        raise ValueError(f"{group.name} is not a product group")
    return group.structure[1], group.structure[2]


def split_product_class(alpha: TupleClass):
    """Pair of component classes of a tuple class in a binary product group.

    Index a |K| + b orders pairs (a, b) lexicographically and conjugation acts
    on each factor alone, so both halves of a canonical rep are canonical."""
    g, k = product_components(alpha.group)
    left = tuple(i // k.order for i in alpha.rep)
    right = tuple(i % k.order for i in alpha.rep)
    return TupleClass._canonical(g, left, alpha.p), TupleClass._canonical(k, right, alpha.p)


# ---------------------------------------------------------------------------
# the bijections with (decorated) sums of subgroups


def _reduce_into_box(v, cols):
    """Reduce v in place into the box 0 <= v[i] < cols[i][i]; return the multiples taken off.

    Column i of cols has its pivot cols[i][i] > 0 at entry i and zeros below.
    """
    coords = [0] * len(cols)
    for i in range(len(cols) - 1, -1, -1):
        q = coords[i] = v[i] // cols[i][i]
        for r in range(i + 1):
            v[r] -= q * cols[i][r]
    return coords


def _stabilizer_basis(perms, x0):
    """(column HNF of the stabilizer Lambda of x0, orbit of x0) from one walk.

    Z^n acts through the commuting perms s_j.  Before step j the walk holds
    the orbit of x0 under s_0..s_{j-1}, each point y with its word w_y in
    the box [0, d_0) x ... x [0, d_{j-1}), s^{w_y} x0 = y.  The pivot d_j is
    the least t > 0 with s_j^t x0 in that orbit, at y say, so column j of
    the HNF is (-w_y, d_j) reduced right of the earlier pivots; the orbit
    grows to the points s_j^t z, t < d_j, with words (w_z, t).
    """
    words = {x0: ()}
    cols = []
    for s in perms:
        y, d = s[x0], 1
        while y not in words:
            y, d = s[y], d + 1
        col = [-w for w in words[y]] + [d]
        _reduce_into_box(col, cols)
        cols.append(col)
        grown = {}
        for z, w in words.items():
            for t in range(d):
                grown[z] = w + (t,)
                z = s[z]
        words = grown
    n = len(perms)
    return tuple(zip(*(col + [0] * (n - len(col)) for col in cols))), words


def _orbit_subgroups(perms, p: int, n: int):
    """(base point, annihilator basis, subgroup) for each orbit of a permutation tuple.

    Z^n acts through the commuting perms; the stabilizer Lambda of the
    orbit's least point x0 is the annihilator of H, and by orbit-stabilizer
    |H| = [Z^n : Lambda] is the orbit's size.  The walk in generator order
    gives the column HNF of Lambda; in reverse order it gives the column
    HNF of Lambda with its coordinates reversed, whose anti-transpose is
    A_H = row_hnf(Lambda^T).
    """
    seen = set()
    for x0 in range(len(perms[0])):
        if x0 in seen:
            continue
        basis, orbit = _stabilizer_basis(perms, x0)
        seen.update(orbit)
        h = torsion_subgroup(p, _flip(_stabilizer_basis(perms[::-1], x0)[0]))
        assert h.order == len(orbit)
        yield x0, LatticeBasis(p, basis), h


@lru_cache(maxsize=TRANSLATION_CACHE)
def _coset_translations(lattice: LatticeBasis):
    """Translation by each e_j on Z^n / Lambda, as (j, c, d, coords).

    Cosets are numbered by their canonical residues r in the box
    [0, d_0) x ... x [0, d_{n-1}), in lexicographic order: coset c moves to
    coset d, with r_c + e_j = r_d + B . coords for B the basis of Lambda.
    """
    cols = list(zip(*lattice.matrix))
    reps = list(itertools.product(*[range(col[i]) for i, col in enumerate(cols)]))
    pos = {r: i for i, r in enumerate(reps)}
    out = []
    for j in range(len(cols)):
        for r in reps:
            v = [x + (i == j) for i, x in enumerate(r)]
            coords = tuple(_reduce_into_box(v, cols))
            out.append((j, pos[r], pos[tuple(v)], coords))
    return tuple(out)


def symm_class_to_sum(alpha: TupleClass) -> SumOfSubgroups:
    """Canonical bijection from tuple classes in S_m to sums of subgroups."""
    group = alpha.group
    if not (group.structure and group.structure[0] == "symmetric"):
        raise ValueError("symm_class_to_sum needs a symmetric group class")
    perms = [group.elements[i] for i in alpha.rep]
    return SumOfSubgroups(
        tuple(h for _, _, h in _orbit_subgroups(perms, alpha.p, alpha.n))
    )


def sum_to_symm_class(s: SumOfSubgroups, n: int) -> TupleClass:
    """Inverse bijection: permutation tuple of the translation action on cosets."""
    if not s.summands:
        raise ValueError("empty sum")
    group = symmetric_group(s.total)
    perms = [[None] * s.total for _ in range(n)]
    offset = 0  # cosets are numbered summand by summand
    for h in s.summands:
        for j, c, d, _ in _coset_translations(annihilator_lattice(h)):
            perms[j][offset + c] = offset + d
        offset += h.order
    rep = tuple(group.index[tuple(perm)] for perm in perms)
    return TupleClass(group, rep, s.summands[0].p)


@dataclass(frozen=True)
class DecoratedSum:
    """Multiset of (subgroup H, tuple class over the HNF basis of Lambda_H)."""

    summands: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "summands",
            tuple(sorted(self.summands, key=lambda ha: (ha[0].sort_key(), ha[1].rep))),
        )

    @property
    def total(self) -> int:
        return sum(h.order for h, _ in self.summands)


def wreath_class_to_decorated(beta: TupleClass) -> DecoratedSum:
    """Split a tuple class in G wr S_m into subgroup summands with G-decorations."""
    wreath = beta.group
    if not (wreath.structure and wreath.structure[0] == "wreath"):
        raise ValueError("wreath_class_to_decorated needs a wreath group class")
    g = wreath.structure[1]
    perms = [wreath.elements[i][1] for i in beta.rep]
    subgroups, decorations = [], []
    for x0, basis, h in _orbit_subgroups(perms, beta.p, beta.n):
        decoration = []
        for col in zip(*basis.matrix):
            vec, s = wreath.elements[_evaluate(wreath, beta.rep, col)]
            assert s[x0] == x0
            decoration.append(g.index[vec[x0]])
        subgroups.append(h)
        decorations.append(decoration)
    # the entries are the image of beta's commuting p-power tuple under
    # Stab(x0) -> G, (v, s) -> v[x0], so they pass the constructor's checks
    reps = canonical_tuples(g, decorations).tolist()
    return DecoratedSum(tuple(
        (h, TupleClass._canonical(g, tuple(rep), beta.p)) for h, rep in zip(subgroups, reps)
    ))


def decorated_to_wreath_class(s: DecoratedSum, n: int) -> TupleClass:
    """Inverse of wreath_class_to_decorated, up to class equality."""
    if not s.summands:
        raise ValueError("empty decorated sum")
    g = s.summands[0][1].group
    wreath = wreath_group(g, s.total)
    perms = [[None] * s.total for _ in range(n)]
    vecs = [[None] * s.total for _ in range(n)]
    offset = 0  # cosets are numbered summand by summand; a subgroup may repeat
    for h, alpha in s.summands:
        for j, c, d, coords in _coset_translations(annihilator_lattice(h)):
            perms[j][offset + c] = offset + d
            # cocycle value at coset d: alpha at the translation, in the HNF basis of Lambda_H
            vecs[j][offset + d] = g.elements[_evaluate(g, alpha.rep, coords)]
        offset += h.order
    rep = tuple(
        wreath.index[(tuple(vec), tuple(perm))] for vec, perm in zip(vecs, perms)
    )
    return TupleClass(wreath, rep, s.summands[0][0].p)
