"""A kept parity corpus: one sha256 per layer over the reprs of seeded results.

Each layer draws its inputs from a fixed seed, computes the library's
results and hashes their reprs, one per line.  A refactor that keeps every
value, type and record repr keeps every hash; a change that moves one shows
the layer it moved.  Families are hashed by their member lists, since their
repr shows only the first six members.  A pinned hash changes only together
with a CHANGES.md line that says which values moved and why.
"""

import hashlib
import random
from fractions import Fraction

from schreierkit import (
    Family,
    GaugeProblem,
    NormingSpec,
    SparseVector,
    baernstein_norm,
    barrier_member,
    block_p_norm_power,
    best_set_sum,
    bounded_cardinality_family,
    check_inclusion,
    dfjp_gauge,
    dfjp_norm,
    eps_support_family,
    f_norm,
    hereditary_closure,
    inner_distance,
    interval,
    parse_ordinal,
    schreier_enumerate,
    schreier_family,
    schreier_member,
    solve_lp,
    spreading_constant,
    uniform_weak_bound,
)
from schreierkit import tfamily as tf

ORDINALS = [parse_ordinal(t) for t in ("0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2+w")]


def digest(lines):
    return hashlib.sha256("\n".join(map(repr, lines)).encode()).hexdigest()


def rand_vector(rng, window, max_support):
    ks = rng.sample(list(window), rng.randint(1, max_support))
    return SparseVector({k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 8))
                         for k in ks})


def rand_family(rng, window, count, hereditary):
    w = list(window)
    sets = [tuple(sorted(rng.sample(w, rng.randint(1, 4)))) for _ in range(count)]
    fam = Family(sets)
    return hereditary_closure(fam) if hereditary else fam


def families(rng, window):
    """S_1, [window]^{<=2}, S_2 and two random families, closed and not."""
    yield schreier_family(window)
    yield bounded_cardinality_family(window, 2)
    yield schreier_enumerate(parse_ordinal("2"), window)
    yield rand_family(rng, window, 5, True)
    yield rand_family(rng, window, 5, False)


def test_schreier_layer():
    rng = random.Random(601)
    out = []
    for alpha in ORDINALS:
        for _ in range(200):
            s = tuple(sorted(rng.sample(range(1, 30), rng.randint(0, 8))))
            out.append((str(alpha), s, schreier_member(alpha, s), s and barrier_member(s)))
    windows = [interval(lo, hi) for lo in (1, 2, 3) for hi in range(lo - 1, 12)]
    windows += [tuple(sorted(rng.sample(range(1, 30), rng.randint(1, 10)))) for _ in range(12)]
    for i, alpha in enumerate(ORDINALS):
        for beta in ORDINALS[i + 1 :]:
            for w in windows:
                out.append((str(alpha), str(beta), check_inclusion(alpha, beta, w)))
    # the windows above give shifts 1 and 3 only; 2 < w on 1..24 has shift 4
    out.append(check_inclusion(ORDINALS[2], ORDINALS[4], interval(1, 24)))
    assert digest(out) == "88e40616dbc288babf13f76ada7b8d5d3cdae290f4693a57f2dc994be8f02b32"


def test_norm_layer():
    rng = random.Random(602)
    out = []
    w = interval(1, 12)
    for fam in families(rng, w):
        for _ in range(30):
            x = rand_vector(rng, w, 7)
            out.append((x, f_norm(x, fam), block_p_norm_power(x, fam, rng.randint(1, 3))))
            out.append(baernstein_norm(x, fam, rng.choice([1, 2, 3, Fraction(3, 2), float("inf")])))
            out.append(best_set_sum(fam, dict(x.items())))
    # one dominant early pair in a family that is not hereditary: the best
    # member sum of a run often ends before the run's last position
    for _ in range(30):
        fam = Family([(1, 2)] + [tuple(sorted(rng.sample(w, rng.randint(1, 4)))) for _ in range(4)])
        x = rand_vector(rng, w, 7) + SparseVector({1: rng.randint(4, 9), 2: rng.randint(4, 9)})
        out.append((x, f_norm(x, fam), block_p_norm_power(x, fam, rng.randint(2, 3))))
        out.append((baernstein_norm(x, fam, Fraction(3, 2)), best_set_sum(fam, dict(x.items()))))
    assert digest(out) == "926fd555adca1144b0c6bfc081c118dbc0186cfbb1d7dd2272c93beb2c7fc28f"


def test_eps_support_layer():
    rng = random.Random(603)
    out = []
    w = interval(1, 8)
    for fam in families(rng, w):
        spec = NormingSpec(fam)
        for _ in range(20):
            xs = [rand_vector(rng, w, 4) for _ in range(rng.randint(1, 4))]
            eps = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            out.append((xs, eps, eps_support_family(xs, spec, eps).members()))
            out.append(uniform_weak_bound(xs, spec, eps))
    assert digest(out) == "02883a9ca05a96325144a310ce6cca9fa7d7509a9123370c80cd77ccb262fece"


def test_weak_bound_layer():
    # 4-16 vectors, positive and signed, on S_1, S_2 and S_w windows up to
    # 1..12: answers below the number of vectors exercise the pruned walk
    rng = random.Random(606)
    out = []
    for alpha in ("1", "2", "w"):
        for hi in (8, 10, 12):
            w = interval(1, hi)
            spec = NormingSpec(schreier_enumerate(parse_ordinal(alpha), w))
            for _ in range(6):
                xs = [rand_vector(rng, w, 3) for _ in range(rng.randint(4, 16))]
                if rng.random() < 0.5:
                    xs = [x.abs() for x in xs]
                eps = Fraction(rng.randint(1, 8), rng.randint(1, 4))
                out.append((alpha, hi, xs, eps, uniform_weak_bound(xs, spec, eps)))
    assert digest(out) == "f63d693214ef66bf54d0050771c8a8298daa092cc41cdda0a2ae2a8f36b5b0bf"


def direct_lps(rng):
    """Small LPs that reach every branch of ``solve_lp``.

    Ub rows with a negative rhs are flipped and get an artificial; an
    equality row with a scaled copy leaves an artificial basic at zero after
    phase 1, to be pivoted out on a negative or positive entry, or left in an
    inert row.  Some problems are infeasible, and without the bounding sum
    row some are unbounded.  Mixed denominators give the artificials
    different phase-1 costs.
    """

    def entry(lo, hi, den):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    for _ in range(60):
        n = rng.randint(1, 4)
        c = [entry(-3, 6, 4) for _ in range(n)]
        a_ub = [[entry(-3, 5, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        b_ub = [entry(-3, 6, 3) for _ in a_ub]
        a_eq = [[entry(-3, 3, 2) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        b_eq = [entry(-2, 3, 2) * rng.randint(0, 1) for _ in a_eq]
        if a_eq and rng.randint(0, 1):
            i = rng.randrange(len(a_eq))
            k = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
            a_eq.append([k * v for v in a_eq[i]])
            b_eq.append(k * b_eq[i])
        if rng.random() < 0.7:
            a_ub.append([Fraction(1)] * n)
            b_ub.append(entry(0, 6, 3))
        yield c, a_ub, b_ub, a_eq, b_eq


def test_lp_layer():
    rng = random.Random(604)
    out = []
    w = interval(1, 7)
    for fam in families(rng, w):
        for _ in range(8):
            ys = [rand_vector(rng, w, 4) for _ in range(rng.randint(1, 3))]
            out.append((ys, spreading_constant(ys, fam)))
            x = rand_vector(rng, w, 5)
            level = rng.randint(0, 3)
            out.append((x, dfjp_gauge(GaugeProblem(x, level, fam))))
            lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            out.append(inner_distance(x, fam, lam, level))
            out.append(dfjp_norm(x, fam, rng.randint(2, 3), n_max=3))
    for c, a_ub, b_ub, a_eq, b_eq in direct_lps(rng):
        out.append(solve_lp(c, a_ub, b_ub, a_eq, b_eq))
    assert digest(out) == "73ec699e7e0de8c2258663d743e4a85d8fbb0df5e5c6e2179c10377cd42c3b63"


def test_tfamily_layer():
    rng = random.Random(605)
    out = []
    params = tf.TParams.build(Fraction(2, 3), 12)
    us = tf.barrier_window_members(12)
    for u in rng.sample(us, 60):
        sym = tf.f_of_u(u, params)
        out.append((sym, [tf.measure_ratio(u, n, params) for n in u]))
        n = rng.choice(u)
        if n >= 4:
            pt = tf.sample_in(sym, n, params, rng)
            out.append((sorted(pt.digits.items()), tf.point_to_integer(pt, params)))
    for _ in range(20):
        a = rand_vector(rng, interval(1, 12), 8)
        out.append((a, tf.averages_norm(a, params)))
    a_sets = [(4, l1, l2, 8) for l1, l2 in ((5, 6), (5, 7), (6, 7))]
    p8 = tf.TParams.build(Fraction(1, 2), 8)
    out.append(tf.pigeonhole_intersection_empty(a_sets, (5, 6, 7, 8), p8))
    for _ in range(6):
        k = rng.randint(4, 5)
        sets = [tuple(sorted([4] + rng.sample(range(5, 9), 3))) for _ in range(k)]
        out.append(tf.pigeonhole_intersection_empty(sets, (5, 6, 7, 8), p8))
    for _ in range(3):
        pieces = sorted(rng.sample(range(1, 13), rng.randint(4, 7)))
        pts = [tf.sample_point(n, params, rng) for n in pieces]
        out.append(tf.transversal_trace_report(pts, params, bound=rng.randint(2, 3)))
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in pts]
        out.append(tf.transversal_norm(pts, coeffs, params))
    assert digest(out) == "f0165d0ce69ac45b70439ee8342e127fc6c59ad03e91e0e214bca062dfa52dd7"
