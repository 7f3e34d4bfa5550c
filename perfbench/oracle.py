"""Brute-force reference answers over raw exponent tuples.

The method is the one of the package's test oracles: group arithmetic is
table addition of exponent tuples, multiples come from repeated addition,
and the index of a class is the product of the orders of its
single-component projections, found by repeated addition too.  Nothing here
imports the package under test.  Results are memoized per Oracle object
only to keep the checks cheap; the checks run outside the timed region.
"""

from __future__ import annotations

import itertools
import math


def table_add(orders, a, b):
    return tuple((x + y) % o for x, y, o in zip(a, b, orders))


def table_neg(orders, a):
    return tuple((-x) % o for x, o in zip(a, orders))


def vp(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class Oracle:
    """Reference answers for one run (its memo tables die with it)."""

    def __init__(self):
        self._multiples = {}
        self._index = {}
        self._reduced = {}
        self._closure = {}

    # -- group arithmetic --------------------------------------------------

    def multiple(self, orders, vec, c: int):
        """c * vec for c >= 0, by repeated addition."""
        key = (orders, vec)
        table = self._multiples.setdefault(key, [(0,) * len(orders)])
        while len(table) <= c:
            table.append(table_add(orders, table[-1], vec))
        return table[c]

    def element_order(self, orders, vec) -> int:
        zero = (0,) * len(orders)
        acc, n = vec, 1
        while acc != zero:
            acc = table_add(orders, acc, vec)
            n += 1
        return n

    def index(self, orders, vec) -> int:
        key = (orders, vec)
        got = self._index.get(key)
        if got is None:
            got = 1
            for pos, x in enumerate(vec):
                if x:
                    component = tuple(x if j == pos else 0 for j in range(len(vec)))
                    got *= self.element_order(orders, component)
            self._index[key] = got
        return got

    def exponent(self, orders, vec) -> int:
        return self.element_order(orders, vec)

    def degree_exponent(self, p: int, orders, vec) -> int:
        return vp(self.index(orders, vec), p)

    def closure(self, orders, gens):
        key = (orders, tuple(gens))
        got = self._closure.get(key)
        if got is None:
            zero = (0,) * len(orders)
            seen = {zero}
            frontier = [zero]
            while frontier:
                cur = frontier.pop()
                for g in gens:
                    nxt = table_add(orders, cur, g)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            got = self._closure[key] = frozenset(seen)
        return got

    # -- index reduction and rational maps ---------------------------------

    def reduced_index(self, p: int, orders, target, base):
        """(minimum, lexicographically first minimizer) by full enumeration.

        base is a sequence of (vector, k); all algebras share one degree.
        """
        key = (p, orders, target, tuple(base))
        got = self._reduced.get(key)
        if got is not None:
            return got
        bound = p ** self.degree_exponent(p, orders, target)
        twists = []
        for vec, k in base:
            pk = p**k
            twists.append(
                [
                    (pk // math.gcd(i, pk), table_neg(orders, self.multiple(orders, vec, i)))
                    for i in range(1, bound + 1)
                ]
            )
        # Depth-first over the tuples in lexicographic order, adding one
        # twist per level, so the first strict minimum is the witness.
        best = [None, ()]
        index = self.index
        last = len(base) - 1

        def walk(j, acc, deficiency, prefix):
            if j == last:
                for i, (d, neg) in enumerate(twists[j], 1):
                    value = deficiency * d * index(orders, table_add(orders, acc, neg))
                    if best[0] is None or value < best[0]:
                        best[0], best[1] = value, prefix + (i,)
                return
            for i, (d, neg) in enumerate(twists[j], 1):
                walk(j + 1, table_add(orders, acc, neg), deficiency * d, prefix + (i,))

        walk(0, target, 1, ())
        best = tuple(best)
        self._reduced[key] = best
        return best

    def direction(self, p: int, orders, source, target):
        """Per target factor: (has point, reduced index, witness)."""
        out = []
        for vec, k in target:
            value, witness = self.reduced_index(p, orders, vec, source)
            out.append(((p**k) % value == 0, value, witness))
        return out

    def equivalent(self, p: int, orders, a, b) -> bool:
        return all(w[0] for w in self.direction(p, orders, a, b)) and all(
            w[0] for w in self.direction(p, orders, b, a)
        )

    def balanced_row(self, p: int, orders, d, family, k: int, s: int):
        """Lexicographically first row with gcd valuations summing to
        k(m-1) and [d] = sum_j row_j [family_j], or None."""
        pk = p**k
        budget = k * (len(family) - 1)
        for row in itertools.product(range(1, p**s + 1), repeat=len(family)):
            if sum(vp(math.gcd(a, pk), p) for a in row) != budget:
                continue
            acc = d
            for vec, a in zip(family, row):
                acc = table_add(orders, acc, table_neg(orders, self.multiple(orders, vec, a)))
            if not any(acc):
                return row
        return None

    def mutual_relation(self, p: int, orders, left, right, k: int):
        """Both relation matrices, or None when some row has no relation.
        The families must satisfy the criterion's hypotheses."""
        s = self.degree_exponent(p, orders, left[0])
        rows = ([], [])
        for out, family, other in ((rows[0], left, right), (rows[1], right, left)):
            for d in family:
                row = self.balanced_row(p, orders, d, other, k, s)
                if row is None:
                    return None
                out.append(row)
        return tuple(rows[0]), tuple(rows[1])

    def relation_applicable(self, p: int, orders, left, right) -> bool:
        """The mutual relation criterion's own hypotheses: one common degree
        and one exponent within each family."""
        degrees = {self.index(orders, v) for v in (*left, *right)}
        return len(degrees) == 1 and all(
            len({self.exponent(orders, v) for v in fam}) == 1 for fam in (left, right)
        )

    # -- upper motives -----------------------------------------------------

    def family_descriptors(self, p: int, orders, family):
        """Descriptors of a family of distinct classes: each a tuple of
        (k, s, vector, position) sorted by (k, s, vector), all of them in the
        package's canonical order (by size, then factor keys)."""
        found = []
        n = len(family)
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                ranges = [range(self.degree_exponent(p, orders, family[j])) for j in subset]
                for ks in itertools.product(*ranges):
                    factors = sorted(
                        (
                            (k, self.degree_exponent(p, orders, family[j]), family[j], j)
                            for j, k in zip(subset, ks)
                        ),
                        key=lambda f: f[:3],
                    )
                    found.append(tuple(factors))
        found.sort(key=lambda d: (len(d), tuple(f[:3] for f in d)))
        return found

    def motives_isomorphic(self, p: int, orders, a, b) -> bool:
        if len(a) == 1 and len(b) == 1:
            (ka, _, va, _), (kb, _, vb, _) = a[0], b[0]
            return ka == kb and self.closure(orders, (va,)) == self.closure(orders, (vb,))
        return self.equivalent(
            p, orders, [(f[2], f[0]) for f in a], [(f[2], f[0]) for f in b]
        )

    def compare_families(self, p: int, orders, left, right):
        """(verdict, shared pairs, unmatched left, unmatched right) over
        descriptor tuples as family_descriptors gives them."""
        lds = self.family_descriptors(p, orders, left)
        rds = self.family_descriptors(p, orders, right)
        shared = [(a, b) for a in lds for b in rds if self.motives_isomorphic(p, orders, a, b)]
        got_l = {a for a, _ in shared}
        got_r = {b for _, b in shared}
        un_l = [d for d in lds if d not in got_l]
        un_r = [d for d in rds if d not in got_r]
        if not shared:
            verdict = "TATE_ONLY"
        elif not un_l and not un_r:
            verdict = "EQUAL"
        else:
            verdict = "PARTIAL"
        return verdict, shared, un_l, un_r
