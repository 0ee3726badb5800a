"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; all comparisons
are exact unless a runtime budget is stated.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from qirank import verifier
from qirank.gaussian import GaussInt, I, ONE_PLUS_I, primary_associate
from qirank.certify import (
    Certificate,
    certify,
    verify_certificate,
)
from qirank.curves import (
    CurvePoint,
    ORIGIN,
    cm_apply,
    is_torsion,
    torsion_subgroup,
    two_torsion_points,
)
from qirank.primes import factor_primary, is_gaussian_prime
from qirank.residues import euler_symbol, mn_invariants
from qirank.search import (
    Box,
    TARGET_CLASS,
    constellation_primes,
    find_first_hit,
    prime_density_stats,
    search_region,
)
from qirank.selmer import F2Matrix, selmer_candidate_set

from oracles import (
    add,
    brute_force_symbol,
    family_point,
    mn_sum,
    mod4_consistency,
    phi_dual,
    phi_forward,
    primary_primes_up_to_norm,
    residue_prefilter,
    scalar_mul,
    symbol_i,
    symbol_one_plus_i,
    twist_iso,
    twist_iso_inv,
)

FROZEN_BETA = GaussInt(15, 10)
FROZEN_K = 16


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} [{description}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:02d} [{description}]: PASS ({elapsed:.1f}s)")


def gi(re, im=0):
    return GaussInt(re, im)


def random_primary_prime(rng, norm_bound):
    side = int(norm_bound ** 0.5)
    while True:
        a = GaussInt(rng.randint(-side, side), rng.randint(-side, side))
        if 0 < a.norm() < norm_bound and a.is_odd() and is_gaussian_prime(a):
            return primary_associate(a)[0]


def random_primary(rng, bound=10**4):
    while True:
        a = GaussInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if a and a.is_odd():
            return primary_associate(a)[0]


def test_criterion_1_symbol_oracle_equivalence():
    with criterion(1, "residue-symbol oracle equivalence, norms < 5000"):
        start = time.monotonic()
        rng = random.Random(101)
        primes = primary_primes_up_to_norm(5000)
        assert primes
        for p in primes:
            tested = 0
            while tested < 20:
                a = GaussInt(rng.randint(-60, 60), rng.randint(-60, 60))
                try:
                    fast = euler_symbol(a, p)
                except ValueError:
                    continue
                assert fast == brute_force_symbol(a, p), (a, p)
                tested += 1
        assert time.monotonic() - start < 60


def test_criterion_2_quartic_reciprocity():
    with criterion(2, "quartic reciprocity symmetry, 200 pairs, norms < 1e5"):
        rng = random.Random(102)
        seen = 0
        while seen < 200:
            p = random_primary_prime(rng, 10**5)
            q = random_primary_prime(rng, 10**5)
            if p == q:
                continue
            assert euler_symbol(p, q) == euler_symbol(q, p), (p, q)
            seen += 1


def test_criterion_3_class_invariant_suite():
    with criterion(3, "(m,n) additivity, mod-4 consistency, formula agreement"):
        rng = random.Random(103)
        for _ in range(500):
            a, b = random_primary(rng), random_primary(rng)
            assert mn_invariants(a * b) == mn_sum(mn_invariants(a), mn_invariants(b))
            assert mod4_consistency(a) and mod4_consistency(b)
        for p in primary_primes_up_to_norm(10**4):
            assert symbol_i(p) == euler_symbol(I, p)
            assert symbol_one_plus_i(p) == euler_symbol(ONE_PLUS_I, p)


def test_criterion_4_selmer_reproduction():
    with criterion(4, "Selmer candidate set reproduction on constellations"):
        hits = search_region(Box.centered(48), (-48, 48))
        assert hits
        matrices = [F2Matrix.from_rows(rows) for rows in verifier.CONSTELLATION_ROWS]
        expected = (("1", ()), ("1", (1, 2, 3, 4)), ("i", (1, 3)), ("i", (2, 4)))
        for hit in hits:
            report = selmer_candidate_set(hit.primes)
            assert any(report.matrix == m for m in matrices)
            assert report.candidates == expected
            assert report.dim == 2
            assert report.rank_upper == 2


def test_criterion_5_torsion_reproduction():
    with criterion(5, "torsion classification, gamma = i and 10 random square-free"):
        start = time.monotonic()
        group_i = torsion_subgroup(I)
        assert group_i.label == "Z2xZ4"
        order4_points = [
            p for p in group_i.points if not p.is_infinity and bool(p.y)
        ]
        assert len(order4_points) == 4
        for p in order4_points:
            assert scalar_mul(gi(-1), 2, p) == ORIGIN
        rng = random.Random(105)
        found = 0
        while found < 10:
            g = GaussInt(rng.randint(-40, 40), rng.randint(-40, 40))
            if not g or g in (I, -I) or not factor_primary(g).is_square_free():
                continue
            group = torsion_subgroup(g)
            assert group.label == "Z2xZ2"
            assert set(group.points) == set(two_torsion_points(g))
            found += 1
        assert time.monotonic() - start < 10


def test_criterion_6_isogeny_suite():
    with criterion(6, "phi_dual . phi_forward = [2] and twist round-trips"):
        rng = random.Random(106)
        curves = 0
        while curves < 5:
            x = GaussInt(rng.randint(-6, 6), rng.randint(-6, 6))
            t = GaussInt(rng.randint(-6, 6), rng.randint(-6, 6))
            if not x:
                continue
            alpha = x * (t * t - x)
            if not alpha:
                continue
            seed = CurvePoint.affine(x, x * t)
            points = _point_family(alpha, seed)
            assert len(points) == 100
            for p in points:
                assert phi_dual(alpha, phi_forward(alpha, p)) == scalar_mul(alpha, 2, p)
                q = twist_iso_inv(alpha, p)
                assert twist_iso(q) == p
            curves += 1


def _point_family(alpha, seed):
    """100 distinct points a*P + b*[i]P with small (a, b), exactly computed."""
    seed_cm = cm_apply(seed)
    mult_p = {a: scalar_mul(alpha, a, seed) for a in range(-5, 6)}
    mult_q = {b: scalar_mul(alpha, b, seed_cm) for b in range(-5, 6)}
    combos = sorted(
        (pair for pair in product(range(-5, 6), repeat=2) if pair != (0, 0)),
        key=lambda ab: (ab[0] ** 2 + ab[1] ** 2, ab),
    )
    points = []
    for a, b in combos:
        points.append(add(alpha, mult_p[a], mult_q[b]))
        if len(points) == 100:
            break
    return points


def test_criterion_7_prefilter_soundness():
    with criterion(7, "pre-filter = four-congruence test on all 4096 combos"):
        for br, bi, k0 in product(range(16), range(16), range(16)):
            beta = GaussInt(br, bi)
            k = k0 if k0 != 0 else 16
            direct = all(
                (p.re - TARGET_CLASS.re) % 16 == 0
                and (p.im - TARGET_CLASS.im) % 16 == 0
                for p in constellation_primes(beta, k)
            )
            assert residue_prefilter(beta, k) == direct, (br, bi, k0)


def test_criterion_8_end_to_end():
    with criterion(8, "expanding search -> certify -> independent verify"):
        events = []
        hit = find_first_hit(initial_radius=2, progress=events.append)
        rounds = [e for e in events if e["event"] == "round_done"]
        assert len(rounds) >= 2  # expanded and reported progress before success
        assert all("radius" in r for r in rounds)
        assert (hit.beta, hit.k) == (FROZEN_BETA, FROZEN_K)  # frozen regression
        cert = certify(hit.beta, hit.k)
        assert isinstance(cert, Certificate)
        obj = json.loads(cert.to_json_bytes())
        point = family_point(hit.beta, hit.k)
        gamma_torsion = I * (hit.beta ** 4 + gi(4 * hit.k ** 4))
        assert obj["point"] == point.to_json()
        assert obj["torsion"]["gamma"] == gamma_torsion.to_json()
        assert not is_torsion(gamma_torsion, point)
        assert obj["genuine"]["value"] is True
        assert verify_certificate(cert)
        assert verify_certificate(cert.to_json_bytes())


def test_criterion_9_density():
    with criterion(9, "density of the target class in |re|,|im| <= 1000"):
        start = time.monotonic()
        stats = prime_density_stats(Box.centered(1000))
        ratio = stats.target_ratio
        assert Fraction(7, 10) / 128 <= ratio <= Fraction(13, 10) / 128, ratio
        assert time.monotonic() - start < 300


def test_criterion_10_symbol_pattern():
    with criterion(10, "residue-symbol pattern on every certified constellation"):
        hits = search_region(Box.centered(64), (-64, 64))
        assert hits
        for hit in hits:
            cert = certify(hit.beta, hit.k)
            assert isinstance(cert, Certificate)
            obj = json.loads(cert.to_json_bytes())
            assert obj["torsion"]["group"] == "Z2xZ2"
            p = [GaussInt(int(q["re"]), int(q["im"])) for q in obj["primes"]]
            assert p == list(hit.primes)
            same = {
                euler_symbol(p[0], p[3]),
                euler_symbol(p[1], p[2]),
                euler_symbol(p[1], p[3]),
            }
            other = {
                euler_symbol(p[0], p[1]),
                euler_symbol(p[0], p[2]),
                euler_symbol(p[2], p[3]),
            }
            assert len(same) == 1 and len(other) == 1
            assert same != other
