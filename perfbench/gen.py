"""Seeded input generators for the four benchmark workloads.

Everything here is plain data (ints, lists, dicts, strings) built with the
standard library only: the generators never import the package under test,
and the same seed always gives byte-identical inputs.

A workload is an endless sequence of *cycles*.  Cycle ``c`` of a run draws
from its own ``random.Random("<workload>:<seed>:<c>")`` and follows the
workload's fixed template of query shapes, so the seed chooses the classes,
twists and argument spellings while the cost mix of every cycle stays the
same.  Runs always stop at a cycle boundary.
"""

from __future__ import annotations

import itertools
import math
import random

# ---------------------------------------------------------------------------
# raw group helpers (generation side only; the checks use oracle.py)


def index_of(orders, vec) -> int:
    result = 1
    for e, o in zip(vec, orders):
        result *= o // math.gcd(e, o)
    return result


def exponent_of(orders, vec) -> int:
    result = 1
    for e, o in zip(vec, orders):
        result = math.lcm(result, o // math.gcd(e, o))
    return result


def p_log(n: int, p: int) -> int:
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


def nonzero_classes(orders):
    return [
        list(v)
        for v in itertools.product(*(range(o) for o in orders))
        if any(v)
    ]


def degree_classes(p: int, orders, s: int):
    """Every class of index p^s, in lexicographic order."""
    return [v for v in nonzero_classes(orders) if index_of(orders, v) == p**s]


def closure_order(orders, gens) -> int:
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % o for a, b, o in zip(cur, g, orders))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def unit_multiple(p: int, orders, vec, rng: random.Random):
    """u * vec for a unit u mod p: a generator of the same cyclic subgroup.

    Prefers a u that changes the exponent vector; in an elementary abelian
    2-group every unit acts trivially and the vector comes back unchanged.
    """
    top = max(orders)
    units = [u for u in range(2, top) if u % p]
    rng.shuffle(units)
    for u in units:
        out = [(u * e) % o for e, o in zip(vec, orders)]
        if out != list(vec):
            return out
    return list(vec)


def _distinct(rng: random.Random, pool, n: int):
    return [list(v) for v in rng.sample(pool, n)]


# ---------------------------------------------------------------------------
# reduce: index reduction, rational maps, equivalence, balanced relations

# name -> (prime, generator orders, degree exponent s of every algebra used)
REDUCE_MODELS = {
    "z2^5": (2, (2, 2, 2, 2, 2), 3),
    "z4z4z2": (2, (4, 4, 2), 3),
    "z3^3": (3, (3, 3, 3), 2),
    "z2^4": (2, (2, 2, 2, 2), 2),
}

# (kind, model, shape, how the pair is built to be equivalent or None)
#   ri:  reduced_index of a target over an n-factor base      shape (n,)
#   map: exists_rational_map source -> target                 shape (n_src, n_tgt)
#   eqv: equivalent                                           shape (n_a, n_b)
#   mrw: mutual_relation_witness of two one-exponent families shape (m_l, m_r)
# 25 cells, so the median and p90 of a run each fall in the middle of a
# group of cells of about the same cost (cost ~ (p^s)^n tuples per call).
# Six of the 25 pairs are built to be equivalent.
REDUCE_TEMPLATE = (
    # below the median: under 9 ms at the seed
    ("ri", "z2^5", (1,), None),
    ("mrw", "z2^4", (2, 2), "unit"),
    ("mrw", "z2^5", (2, 2), None),
    ("mrw", "z3^3", (2, 2), "unit"),
    ("ri", "z2^4", (3,), None),
    ("ri", "z3^3", (2,), None),
    ("map", "z2^5", (2, 2), None),
    ("map", "z3^3", (2, 3), None),
    ("eqv", "z2^5", (2, 2), "unit"),
    ("eqv", "z2^4", (3, 3), None),
    # around the median: 512-tuple enumerations, about 10 ms
    ("map", "z4z4z2", (3, 1), "subset"),
    ("ri", "z4z4z2", (3,), None),
    ("ri", "z2^5", (3,), None),
    ("map", "z2^5", (3, 1), None),
    ("ri", "z4z4z2", (3,), None),
    # between the median and p90: 15 to 80 ms
    ("ri", "z3^3", (3,), None),
    ("eqv", "z4z4z2", (3, 2), None),
    ("map", "z3^3", (3, 2), None),
    ("eqv", "z2^5", (2, 3), None),
    ("eqv", "z3^3", (2, 2), "dominated"),
    ("eqv", "z2^5", (3, 3), "perm"),
    # the tail: 4096-tuple enumerations, about 100 ms
    ("ri", "z4z4z2", (4,), None),
    ("ri", "z2^5", (4,), None),
    ("map", "z2^5", (4, 1), None),
    ("ri", "z2^5", (4,), None),
)


def _factors(rng, classes, s, n):
    return [[list(rng.choice(classes)), rng.randrange(s)] for _ in range(n)]


def _equivalent_variant(rng, p, orders, s, factors, how):
    """A product built to be equivalent to ``factors``: permuted ("perm"),
    one algebra swapped for another generator of its cyclic subgroup
    ("unit"), or a dominated factor X(p^k';D_j) with k' >= k_j added
    ("dominated")."""
    out = [[list(v), k] for v, k in factors]
    if how == "unit":
        j = rng.randrange(len(out))
        out[j][0] = unit_multiple(p, orders, out[j][0], rng)
    elif how == "dominated":
        v, k = rng.choice(out)
        out.append([list(v), rng.randrange(k, s)])
    rng.shuffle(out)
    return out


def reduce_cycle(seed: int, cycle: int):
    rng = random.Random(f"reduce:{seed}:{cycle}")
    queries = []
    for kind, name, shape, built in REDUCE_TEMPLATE:
        p, orders, s = REDUCE_MODELS[name]
        classes = degree_classes(p, orders, s)
        q = {"kind": kind, "model": name, "prime": p, "orders": list(orders)}
        if kind == "ri":
            q["target"] = list(rng.choice(classes))
            q["base"] = _factors(rng, classes, s, shape[0])
        elif kind == "map":
            q["source"] = _factors(rng, classes, s, shape[0])
            if built:
                picked = rng.sample(q["source"], shape[1])
                q["target"] = [[list(v), rng.randrange(k, s)] for v, k in picked]
            else:
                q["target"] = _factors(rng, classes, s, shape[1])
        elif kind == "eqv":
            q["a"] = _factors(rng, classes, s, shape[0])
            if built:
                q["b"] = _equivalent_variant(rng, p, orders, s, q["a"], built)
            else:
                q["b"] = _factors(rng, classes, s, shape[1])
        else:  # mrw: families of one exponent, the model's most common one
            by_exp = {}
            for v in classes:
                by_exp.setdefault(exponent_of(orders, v), []).append(v)
            pool = max(by_exp.values(), key=len)
            q["left"] = _distinct(rng, pool, shape[0])
            if built:
                right = [unit_multiple(p, orders, v, rng) for v in q["left"]]
                rng.shuffle(right)
                q["right"] = right
            else:
                q["right"] = _distinct(rng, pool, shape[1])
            q["k"] = rng.randrange(s)
        queries.append(q)
    return queries


# ---------------------------------------------------------------------------
# families: compare_families over single-degree families (s = 2)

FAMILY_MODELS = {
    "z2^4": (2, (2, 2, 2, 2), 2),
    "z4z2z2": (2, (4, 2, 2), 2),
    "z3^3": (3, (3, 3, 3), 2),
}

# (model, (|left|, |right|), built to be equivalent); 25 cells ordered by
# cost at the seed, so the median lands among the ~35 ms 2v2/1v3 cells and
# p90 among the ~230 ms 2v3 cells.  A 3v3 (about 1.6 s) is left out: it made
# a cycle last ~2.6 s, too few cycles per run to correct for machine phases.
FAMILY_TEMPLATE = (
    ("z2^4", (1, 1), True),
    ("z4z2z2", (1, 1), False),
    ("z2^4", (1, 2), False),
    ("z4z2z2", (2, 1), False),
    ("z3^3", (1, 1), False),
    ("z3^3", (1, 2), False),
    ("z2^4", (1, 2), False),
    ("z3^3", (2, 1), False),
    ("z2^4", (1, 3), False),
    ("z4z2z2", (1, 3), False),
    ("z2^4", (3, 1), False),
    ("z2^4", (2, 2), True),
    ("z4z2z2", (2, 2), False),
    ("z2^4", (2, 2), False),
    ("z4z2z2", (2, 2), True),
    ("z4z2z2", (3, 1), False),
    ("z2^4", (2, 2), False),
    ("z3^3", (2, 2), False),
    ("z3^3", (2, 2), True),
    ("z3^3", (2, 2), False),
    ("z2^4", (2, 3), False),
    ("z4z2z2", (2, 3), False),
    ("z2^4", (3, 2), False),
    ("z4z2z2", (3, 2), False),
    ("z2^4", (2, 3), False),
)


def families_cycle(seed: int, cycle: int):
    rng = random.Random(f"families:{seed}:{cycle}")
    queries = []
    for name, (nl, nr), built in FAMILY_TEMPLATE:
        p, orders, s = FAMILY_MODELS[name]
        classes = degree_classes(p, orders, s)
        left = _distinct(rng, classes, nl)
        if built:
            right = [unit_multiple(p, orders, v, rng) for v in left]
            rng.shuffle(right)
        else:
            right = _distinct(rng, classes, nr)
        queries.append(
            {
                "kind": "cmp",
                "model": name,
                "prime": p,
                "orders": list(orders),
                "left": left,
                "right": right,
            }
        )
    return queries


# ---------------------------------------------------------------------------
# subgroups: enumerated subgroups of Z/2^a x Z/2^b (x Z/2^c)

# (kind, model orders, |H|, |H'|, built so that H' = H)
#   sub:       H, H' = subgroup_generated of two generator lists; subgroups_equal
#   classical: classical_criterion on two families of division algebras
#              (H, H' are the subgroups the families generate)
#   single:    classify_single on two (algebra, k) pairs of exponent <= 16
# 25 cells ordered by cost at the seed (the closure check costs ~|H|^2): the
# median lands among the order-32 cells, p90 among the order-128 cells, and
# one order-256 cell closes each cycle.
SUBGROUP_TEMPLATE = (
    # below the median
    ("single", (16, 16), 0, 0, False),
    ("single", (8, 8, 4), 0, 0, True),
    ("single", (32, 8), 0, 0, False),
    ("single", (16, 4, 4), 0, 0, False),
    ("sub", (16, 16), 8, 8, True),
    ("sub", (32, 8), 8, 16, False),
    ("classical", (8, 8, 4), 8, 16, False),
    ("sub", (16, 16), 16, 16, True),
    ("sub", (64, 4), 16, 8, False),
    ("classical", (16, 16), 16, 16, True),
    # around the median: order 32 in Z/16 x Z/16
    ("sub", (16, 16), 32, 32, False),
    ("sub", (16, 16), 32, 32, True),
    ("classical", (16, 16), 32, 32, False),
    ("sub", (16, 16), 32, 32, False),
    ("classical", (16, 16), 32, 32, True),
    # between the median and p90
    ("sub", (32, 8), 64, 16, False),
    ("sub", (8, 8, 4), 64, 32, False),
    ("classical", (64, 4), 64, 32, False),
    ("sub", (16, 16), 64, 64, True),
    ("classical", (16, 4, 4), 64, 64, False),
    ("sub", (32, 4, 2), 64, 64, False),
    # the tail: order 128, then one order 256
    ("sub", (16, 16), 128, 32, False),
    ("classical", (16, 16), 128, 32, False),
    ("sub", (16, 16), 128, 32, False),
    ("sub", (16, 16), 256, 32, False),
)


def _random_gens(rng: random.Random, orders):
    """One to rank-many nonzero generators, each a random element, or half
    the time that times a random power of 2, so that small subgroups come up
    about as often as large ones."""
    gens = []
    for _ in range(rng.randint(1, len(orders))):
        shift = 1 if rng.random() < 0.5 else 2 ** rng.randrange(p_log(max(orders), 2))
        g = [(shift * rng.randrange(o)) % o for o in orders]
        if any(g):
            gens.append(g)
    return gens


def _gens_of_order(rng: random.Random, orders, order: int):
    """Generators of ``orders`` whose closure has exactly ``order`` elements."""
    while True:
        gens = _random_gens(rng, orders)
        if gens and closure_order(orders, gens) == order:
            return gens


def _same_span(rng: random.Random, orders, gens):
    """Different generators of the same subgroup: a unit multiple, a sum of
    two generators folded in, and a shuffle."""
    out = [list(g) for g in gens]
    j = rng.randrange(len(out))
    out[j] = [(3 * e) % o for e, o in zip(out[j], orders)]
    if len(out) > 1:
        a, b = rng.sample(range(len(out)), 2)
        out[a] = [(x + y) % o for x, y, o in zip(out[a], out[b], orders)]
        if not any(out[a]):
            out[a] = list(gens[a])
    out.append([(x + y) % o for x, y, o in zip(out[0], out[-1], orders)])
    out = [g for g in out if any(g)]
    rng.shuffle(out)
    return out


def subgroups_cycle(seed: int, cycle: int):
    rng = random.Random(f"subgroups:{seed}:{cycle}")
    queries = []
    for kind, orders, order, order2, built in SUBGROUP_TEMPLATE:
        orders = list(orders)
        if kind == "single":
            pool = [v for v in nonzero_classes(orders) if exponent_of(orders, v) <= 16]
            a = rng.choice(pool)
            b = [(3 * e) % o for e, o in zip(a, orders)] if built else rng.choice(pool)
            k = rng.randrange(p_log(index_of(orders, a), 2))
            s2 = p_log(index_of(orders, b), 2)
            k2 = k if (built or rng.random() < 0.5) and k < s2 else rng.randrange(s2)
            q = {"kind": kind, "orders": orders, "a": a, "k": k, "b": b, "k2": k2}
        else:
            gens = _gens_of_order(rng, orders, order)
            if built:
                other = _same_span(rng, orders, gens)
            else:
                other = _gens_of_order(rng, orders, order2)
            q = {"kind": kind, "orders": orders, "left": gens, "right": other}
        q["prime"] = 2
        queries.append(q)
    return queries


# ---------------------------------------------------------------------------
# cli: generated instance files plus a scripted session of argv lists

CLI_INSTANCE_MODELS = (
    (2, (2, 2, 2)),
    (2, (2, 2, 2, 2)),
    (2, (4, 2, 2)),
    (3, (3, 3)),
    (2, (2, 2, 2, 2, 2)),
    (2, (4, 4)),
)
BUNDLED = ("biquaternion.json", "mixed_exponent.json")

# (command cell, output mode).  The "err:" cells are malformed or violate a
# precondition and must exit with the given code; the rest must exit 0.
CLI_TEMPLATE = (
    ("index", "text"),
    ("index", "json"),
    ("exponent", "text"),
    ("exponent", "json"),
    ("subgroup", "text"),
    ("subgroup", "json"),
    ("subgroup-equals", "text"),
    ("subgroup-equals", "json"),
    ("reduced-index", "text"),
    ("reduced-index", "json"),
    ("reduced-index", "text"),
    ("reduced-index", "json"),
    ("rational-map", "text"),
    ("rational-map", "json"),
    ("rational-map", "text"),
    ("rational-map", "json"),
    ("equivalent", "text"),
    ("equivalent", "json"),
    ("equivalent", "text"),
    ("equivalent", "json"),
    ("motive-iso", "text"),
    ("motive-iso", "json"),
    ("motive-iso", "text"),
    ("compare-families", "text"),
    ("compare-families", "json"),
    ("compare-families", "text"),
    ("compare-families", "json"),
    ("index", "json"),
    ("exponent", "text"),
    ("subgroup", "json"),
    ("rational-map", "text"),
    ("equivalent", "json"),
    ("motive-iso", "json"),
    ("verify-examples", "text"),
    ("verify-examples", "json"),
    ("err:bad-expression", "text"),
    ("err:unknown-algebra", "json"),
    ("err:missing-file", "text"),
    ("err:missing-argument", "text"),
    ("err:mixed-degree-families", "json"),
)
CLI_ERROR_EXIT = {
    "err:bad-expression": 2,
    "err:unknown-algebra": 2,
    "err:missing-file": 2,
    "err:missing-argument": 2,
    "err:mixed-degree-families": 3,
}


def cli_instance_docs(seed: int):
    """Generated instance documents, 15 to 60 algebras, keyed by file name."""
    rng = random.Random(f"cli-instances:{seed}")
    docs = {}
    for j, (p, orders) in enumerate(CLI_INSTANCE_MODELS):
        gen_names = [f"g{i + 1}" for i in range(len(orders))]
        pool = nonzero_classes(orders)
        algebras = {}
        for i in range(15 + 9 * j):
            vec = rng.choice(pool)
            cls = {}
            for g, e, o in zip(gen_names, vec, orders):
                if e or rng.random() < 0.2:
                    # now and then spell an exponent out of range
                    cls[g] = e + (o if rng.random() < 0.1 else 0)
            name = f"Δ{i + 1}" if rng.random() < 0.2 else f"A{i + 1}"
            algebras[name] = {"class": cls, "degree": index_of(orders, vec)}
        names = list(algebras)
        docs[f"instance{j + 1}.json"] = {
            "prime": p,
            "generators": [{"name": g, "order": o} for g, o in zip(gen_names, orders)],
            "algebras": algebras,
            "aliases": {f"alias{i + 1}": rng.choice(names) for i in range(3)},
            "varieties": {
                f"v{i + 1}": _expr(rng, p, algebras, _same_degree(rng, p, algebras, rng.randint(1, 2)))
                for i in range(4)
            },
        }
    return docs


def _degree(doc, name):
    return doc["algebras"][doc.get("aliases", {}).get(name, name)]["degree"]


def _same_degree(rng, p, algebras, n):
    """n algebra names of one degree, at most p^2."""
    grouped = {}
    for name, spec in algebras.items():
        grouped.setdefault(spec["degree"], []).append(name)
    degree = rng.choice(sorted(d for d in grouped if 1 < d <= p * p))
    return [rng.choice(grouped[degree]) for _ in range(n)]


def _expr(rng, p, algebras, names):
    parts = []
    for name in names:
        s = p_log(algebras[name]["degree"], p)
        parts.append(f"X({p ** rng.randrange(s)};{name})")
    return " x ".join(parts)


def cli_cycle(seed: int, cycle: int, docs):
    """One scripted pass over CLI_TEMPLATE against ``docs`` (file name ->
    decoded instance document, generated ones and bundled fixtures alike).

    Each call is ``{"cell", "instance", "argv"}``; ``instance`` names the
    file passed with ``-i`` (None for verify-examples and for the call that
    omits a required argument; a name not in ``docs`` for the missing-file
    call).  Cell i always uses the same instance file (round robin) and its
    own ``random.Random("cli-shape:i")`` for sizes and degrees, whatever the
    seed; the seed and cycle choose names and twists.  So a cell costs about
    the same in every cycle and under every seed.  Products have at most two
    factors of degree at most p^2, so parsing and rendering dominate.
    """
    rng = random.Random(f"cli:{seed}:{cycle}")
    files = sorted(docs)
    generated = [f for f in files if f not in BUNDLED]
    calls = []
    for i, (cell, mode) in enumerate(CLI_TEMPLATE):
        shape = random.Random(f"cli-shape:{i}")
        inst = files[i % len(files)]
        if cell == "err:mixed-degree-families":
            inst = generated[i % len(generated)]
        argv = _cli_args(shape, rng, cell, docs[inst])
        if cell in ("verify-examples", "err:missing-argument"):
            inst = None
        elif cell == "err:missing-file":
            inst = f"absent{rng.randrange(100)}.json"
        if mode == "json":
            argv = ["--json", *argv]
        calls.append({"cell": cell, "instance": inst, "argv": argv})
    return calls


def _cli_args(shape, rng, cell, doc):
    """argv of one call: ``shape`` picks sizes and degrees, ``rng`` names."""
    p = doc["prime"]
    algebras = doc["algebras"]
    names = list(algebras) + list(doc.get("aliases", {}))
    varieties = doc.get("varieties", {})
    grouped = {}
    for name, spec in algebras.items():
        grouped.setdefault(spec["degree"], []).append(name)
    degrees = sorted(d for d in grouped if d > 1)
    small = [d for d in degrees if d <= p * p]

    def product(degree=None):
        named = [v for v, e in varieties.items() if degree in (None, _expr_degree(doc, e))]
        if named and shape.random() < 0.25:
            return shape.choice(named)
        n = shape.randint(1, 2)
        degree = degree or shape.choice(small)
        return _expr(rng, p, algebras, [rng.choice(grouped[degree]) for _ in range(n)])

    if cell in ("index", "exponent"):
        return [cell, "--algebra", rng.choice(names)]
    if cell in ("subgroup", "subgroup-equals"):
        out = ["subgroup", "--generators", ", ".join(rng.sample(names, shape.randint(1, 3)))]
        if cell == "subgroup-equals":
            out += ["--equals", ",".join(rng.sample(names, shape.randint(1, 3)))]
        return out
    if cell == "reduced-index":
        base = product()
        degree = _product_degree(doc, base)
        target = rng.choice([a for a in names if _degree(doc, a) == degree])
        return [cell, "--target", target, "--base", base]
    if cell in ("rational-map", "equivalent", "motive-iso"):
        first = product()
        second = product(_product_degree(doc, first))
        flags = ("--source", "--target") if cell == "rational-map" else ("--left", "--right")
        return [cell, flags[0], first, flags[1], second]
    if cell == "compare-families":
        pools = {}
        for name in _distinct_classes(doc):
            pools.setdefault(algebras[name]["degree"], []).append(name)
        pool = pools[shape.choice(sorted(d for d in pools if 1 < d <= p * p))]
        nl = shape.randint(1, min(2, len(pool)))
        nr = 1 if nl == 2 else shape.randint(1, min(2, len(pool)))
        return [cell, "--left", ",".join(rng.sample(pool, nl)),
                "--right", ",".join(rng.sample(pool, nr))]
    if cell == "verify-examples":
        return [cell]
    if cell == "err:bad-expression":
        return ["reduced-index", "--target", names[0], "--base", f"X(2;{names[0]}"]
    if cell == "err:unknown-algebra":
        return ["index", "--algebra", f"Nope{rng.randrange(1000)}"]
    if cell == "err:missing-file":
        return ["exponent", "--algebra", names[0]]
    if cell == "err:missing-argument":
        return ["reduced-index", "--target", names[0]]
    # err:mixed-degree-families, ROADMAP item 5: two degrees in one family
    hi, lo = shape.sample(degrees, 2)
    a, b = rng.choice(grouped[hi]), rng.choice(grouped[lo])
    return ["compare-families", "--left", f"{a},{b}", "--right", a]


def _expr_degree(doc, expr: str) -> int:
    return _degree(doc, expr.split(";", 1)[1].split(")", 1)[0].strip())


def _product_degree(doc, text: str) -> int:
    return _expr_degree(doc, doc.get("varieties", {}).get(text, text))


def _distinct_classes(doc):
    """Algebra names with pairwise different classes (the first of each)."""
    gens = [(g["name"], g["order"]) for g in doc["generators"]]
    seen = {}
    for name, spec in doc["algebras"].items():
        key = tuple(spec["class"].get(g, 0) % o for g, o in gens)
        seen.setdefault(key, name)
    return list(seen.values())
