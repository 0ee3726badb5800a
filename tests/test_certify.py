import collections
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import isprime

import qirank
from qirank import verifier
from qirank.gaussian import GaussInt, GaussRat, I, I_POWERS, ONE
from qirank.certify import (
    Certificate,
    FailureReport,
    certify,
    verify_certificate,
)
from qirank.curves import CurvePoint, cm_apply, is_torsion, on_curve, torsion_subgroup
from qirank.residues import euler_symbol, mn_invariants
from qirank.primes import prime_above
from qirank.search import Box, constellation_primes, search_region
from qirank.selmer import rank_upper_bound, selmer_candidate_set
from qirank.verifier import parse_certificate

from oracles import (
    class_mask,
    family_point,
    genuine_witness,
    is_base_change,
    is_f2_subgroup,
    scale,
)

FROZEN_BETA = GaussInt(15, 10)
FROZEN_K = 16


def gi(re, im=0):
    return GaussInt(re, im)


@pytest.fixture(scope="module")
def frozen_cert():
    cert = certify(FROZEN_BETA, FROZEN_K)
    assert isinstance(cert, Certificate)
    return cert


@pytest.fixture(scope="module")
def frozen_obj(frozen_cert):
    return json.loads(frozen_cert.to_json_bytes())


def json_primes(obj):
    return [GaussInt(int(p["re"]), int(p["im"])) for p in obj["primes"]]


class TestIsGenuine:
    def test_rational_beta_not_genuine(self):
        assert genuine_witness(gi(3), 8) == 0

    def test_one_plus_i_not_genuine(self):
        # (1+i)^4 = -4 makes beta^4 + 4k^4 rational
        assert genuine_witness(gi(1, 1), 5) == 0

    def test_frozen_hit_genuine(self):
        gamma = FROZEN_BETA ** 4 + gi(4 * FROZEN_K ** 4)
        assert genuine_witness(FROZEN_BETA, FROZEN_K) == (gamma * gamma).im != 0

    def test_certificate_witness_matches_the_oracle(self):
        # certify reads the witness off the gamma^2 it builds alpha from;
        # the oracle derives it again from (beta, k).  Nothing checks that it
        # is nonzero, which the class proves: here on box = k = 64 and on
        # norms near 2^41, the far workload's seed-0 window
        assert not hasattr(sys.modules["qirank.certify"], "genuine_witness")
        far = 1 << 20
        for region in [(Box.centered(64), (-64, 64)),
                       (Box(far - 96, far + 96, far - 96, far + 96),
                        (1 << 18, (1 << 18) + 8192))]:
            hits = search_region(*region)
            assert hits
            for hit in hits:
                obj = json.loads(certify(hit.beta, hit.k).to_json_bytes())
                witness = genuine_witness(hit.beta, hit.k)
                assert obj["genuine"] == {"im_gamma_squared": str(witness),
                                          "value": True}, hit
                assert witness != 0, hit

    def test_witness_is_only_necessary(self):
        # gamma = -9+12i = 3(1+2i)^2 has Im(gamma^2) != 0, yet -gamma^2 =
        # -9 (1+2i)^4, so scaling by 1+2i maps y^2 = x^3 - 9x onto the curve
        gamma, u = gi(-9, 12), gi(1, 2)
        assert gamma == gi(3) * u * u
        assert (gamma * gamma).im == -216
        assert -(gamma * gamma) == gi(-9) * u ** 4
        for x in (0, 3, -3):
            point = scale(CurvePoint.affine(gi(x), gi(0)), GaussRat(u, ONE))
            assert on_curve(-(gamma * gamma), point)
        assert is_base_change(gamma)
        # -1-6i is prime and its conjugate is not an associate; 2 = -i(1+i)^2
        assert not is_base_change(gi(-1, -6)) and not is_base_change(gi(1, 1))
        assert is_base_change(gi(2)) and is_base_change(gi(3) * gi(-1, -6) * gi(-1, 6))

    def test_constellation_class_proves_genuine(self):
        # no conj(p_j) is associate to any p_i, so the odd-exponent primes of
        # gamma = p_1 p_2 p_3 p_4 are not closed under conjugation
        hits = search_region(Box.centered(256), (-256, 256))
        assert len(hits) == 178
        for hit in hits:
            associates = {u * p for u in I_POWERS for p in hit.primes}
            assert not any(p.conj() in associates for p in hit.primes), hit
            assert not is_base_change(hit.beta ** 4 + gi(4 * hit.k ** 4)), hit


class TestFamilyPoint:
    def test_always_on_curve(self):
        import random

        rng = random.Random(80)
        for _ in range(100):
            b = GaussInt(rng.randint(-20, 20), rng.randint(-20, 20))
            k = rng.randint(-20, 20)
            gamma = b ** 4 + gi(4 * k ** 4)
            alpha = -(gamma * gamma)
            if not gamma:
                continue
            assert on_curve(alpha, family_point(b, k))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(1 << 60), 1 << 60), st.integers(-(1 << 60), 1 << 60),
           st.integers(-(1 << 60), 1 << 60).filter(bool))
    @example(1, 1, 1)  # (1+i)^4 = -4: beta^4 + 4k^4 = 0 and y = 2ik beta(-8)
    def test_on_curve_with_y_nonzero(self, re, im, k):
        # the verifier checks neither: the equation is an identity in (beta, k),
        # and beta^4 = 4k^4 would put sqrt(2) in Q(i)
        b = GaussInt(re, im)
        if not b:
            return
        point = family_point(b, k)
        assert point.y, (re, im, k)
        gamma = b ** 4 + gi(4 * k ** 4)
        assert on_curve(-(gamma * gamma), point)

    def test_certify_builds_the_oracle_point(self):
        # certify builds the point from the b^2, b^4 and 4k^4 of gamma
        hits = search_region(Box.centered(64), (-64, 64))
        assert hits
        for hit in hits:
            obj = json.loads(certify(hit.beta, hit.k).to_json_bytes())
            point = family_point(hit.beta, hit.k)
            assert obj["point"] == point.to_json(), hit
            assert obj["point_cm"] == cm_apply(point).to_json(), hit


class TestExpectedCandidates:
    def test_klein_four_group_of_dimension_two(self):
        # certify does not check the candidates: the class fixes them to
        # SELMER_CANDIDATES (test_verifier.py::TestConstants); the group
        # property, the dimension and the rank bound follow from this constant:
        # a subgroup of four distinct elements has dimension 2
        masks = [class_mask(c, 4) for c in verifier.SELMER_CANDIDATES]
        assert len(set(masks)) == 4
        assert is_f2_subgroup(masks)
        assert rank_upper_bound(2) == 2


BOUND_REASON = "norm above the deterministic primality bound"


def old_bound_refusal(beta, k):
    """The bound check certify made on the four GaussInt values it built."""
    return any(v.norm() >= verifier.MR_DETERMINISTIC_BOUND
               for v in constellation_primes(beta, k))


class TestBoundCheck:
    """certify reads the largest of the four norms off the ints.

    It refuses exactly when one of the four ``GaussInt`` norms reaches the
    bound: on k = 0, where the four values coincide, on the bound itself,
    and where only the largest norm crosses it.
    """

    @staticmethod
    def refused(beta, k):
        result = certify(beta, k)
        return isinstance(result, FailureReport) and result.reason == BOUND_REASON

    def test_at_the_bound(self):
        # the bound is a norm (test_primes): x^2 + y^2 = bound, so (x - k) +
        # (y - k)i meets it with its largest norm, and one step less misses it
        at_bound = prime_above(1287836182261) * prime_above(2575672364521)
        x, y = abs(at_bound.re), abs(at_bound.im)
        assert x * x + y * y == verifier.MR_DETERMINISTIC_BOUND
        for k in (0, 1, 16, 12345, 10**9):
            for sa, sb, sk in ((1, 1, 1), (-1, 1, -1), (1, -1, 1), (-1, -1, -1)):
                for da, refused in ((0, True), (1, False)):
                    beta, kk = gi(sa * (x - k - da), sb * (y - k)), sk * k
                    assert old_bound_refusal(beta, kk) is refused
                    assert self.refused(beta, kk) is refused, (beta, kk)

    def test_straddling_the_bound(self):
        bound = verifier.MR_DETERMINISTIC_BOUND
        rng = random.Random(82)
        crossings = collections.Counter()
        for _ in range(200):
            k = rng.choice((0, rng.randint(1, 1000), rng.randint(1, 10**9)))
            b = rng.randint(0, math.isqrt(bound // 2))
            # put the largest norm, (|a| + |k|)^2 + (|b| + |k|)^2, next to the bound
            a0 = math.isqrt(bound - (b + k) ** 2) - k
            for a in range(max(a0 - 1, 0), a0 + 3):
                beta = gi(rng.choice((1, -1)) * a, rng.choice((1, -1)) * b)
                kk = rng.choice((1, -1)) * k
                crossings[k == 0, sum(v.norm() >= bound for v in constellation_primes(beta, kk))] += 1
                assert self.refused(beta, kk) == old_bound_refusal(beta, kk), (beta, kk)
        # both sides with k = 0, and only one norm across with k != 0
        assert crossings[True, 0] and crossings[True, 4]
        assert crossings[False, 0] and crossings[False, 1]


class TestCertify:
    def test_frozen_certificate_contents(self, frozen_obj):
        obj = frozen_obj
        gamma = FROZEN_BETA ** 4 + gi(4 * FROZEN_K ** 4)
        assert obj["conclusion"] == verifier.CONCLUSION
        # the descent, torsion and point of the same (beta, k), run again
        report = selmer_candidate_set(constellation_primes(FROZEN_BETA, FROZEN_K))
        assert (obj["selmer_dim"], report.dim) == ("2", 2)
        assert (obj["rank_upper"], report.rank_upper) == ("2", 2)
        assert [(c["unit"], tuple(map(int, c["primes"])))
                for c in obj["selmer_candidates"]] == list(verifier.SELMER_CANDIDATES)
        assert report.candidates == verifier.SELMER_CANDIDATES
        assert obj["L"] == report.matrix.row_strings()
        assert tuple(obj["L"]) in verifier.CONSTELLATION_ROWS
        assert obj["torsion"]["group"] == torsion_subgroup(I * gamma).label == "Z2xZ2"
        assert obj["torsion"]["gamma"] == (I * gamma).to_json()
        assert obj["alpha"] == (-(gamma * gamma)).to_json()
        point = family_point(FROZEN_BETA, FROZEN_K)
        assert obj["point"] == point.to_json()
        assert not point.is_infinity and not is_torsion(I * gamma, point)
        assert obj["point_cm"] == cm_apply(point).to_json()
        assert cm_apply(point).x == -point.x

    def test_k_zero_failure(self):
        failure = certify(gi(7, 2), 0)
        assert isinstance(failure, FailureReport)
        assert failure.reason == "primes not distinct"

    def test_non_prime_failure(self):
        failure = certify(gi(-1, -6), 16)
        assert isinstance(failure, FailureReport)
        assert "not a Gaussian prime" in failure.reason

    def test_wrong_congruence_failure(self):
        failure = certify(gi(1), 16)
        assert isinstance(failure, FailureReport)
        assert "not congruent" in failure.reason

    def test_mn_values_on_certified_primes(self, frozen_obj):
        for p in json_primes(frozen_obj):
            inv = mn_invariants(p)
            assert (inv.m, inv.n) == (0, 1)

    def test_symbol_pattern_on_certified_primes(self, frozen_obj):
        p = json_primes(frozen_obj)
        same = [
            euler_symbol(p[0], p[3]),
            euler_symbol(p[1], p[2]),
            euler_symbol(p[1], p[3]),
        ]
        other = [
            euler_symbol(p[0], p[1]),
            euler_symbol(p[0], p[2]),
            euler_symbol(p[2], p[3]),
        ]
        assert len(set(same)) == 1
        assert len(set(other)) == 1
        assert same[0] != other[0]


class TestSerialization:
    def test_byte_stable(self, frozen_cert):
        assert frozen_cert.to_json_bytes() == frozen_cert.to_json_bytes()
        obj = json.loads(frozen_cert.to_json_bytes())
        assert obj["beta"] == {"re": "15", "im": "10"}
        assert obj["k"] == "16"
        assert obj["selmer_dim"] == "2"
        assert obj["rank_upper"] == "2"
        assert obj["L"] == ["1001", "0011", "0110", "1100"]
        assert obj["torsion"]["group"] == "Z2xZ2"
        assert obj["genuine"]["value"] is True

    def test_no_floats_anywhere(self, frozen_cert):
        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(json.loads(frozen_cert.to_json_bytes()))

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_certificate("[]")
        with pytest.raises(ValueError):
            parse_certificate('{"beta": {"re": "1", "im": "0"}}')


class TestByteStability:
    def test_hash_reproducible_across_processes(self):
        # the child does not inherit pytest's sys.path, so name src explicitly
        src = str(Path(qirank.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        script = (
            "from qirank.certify import certify\n"
            "from qirank.gaussian import GaussInt\n"
            "import hashlib, sys\n"
            "cert = certify(GaussInt(15, 10), 16)\n"
            "sys.stdout.write(hashlib.sha256(cert.to_json_bytes()).hexdigest())\n"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            ).stdout
            for _ in range(2)
        }
        assert len(digests) == 1
        local = hashlib.sha256(certify(FROZEN_BETA, FROZEN_K).to_json_bytes())
        assert digests == {local.hexdigest()}


class TestVerifyCertificate:
    def test_round_trip(self, frozen_cert):
        assert verify_certificate(frozen_cert)
        assert verify_certificate(frozen_cert.to_json_bytes())

    def test_tampered_matrix_detected(self, frozen_cert):
        obj = json.loads(frozen_cert.to_json_bytes())
        row = list(obj["L"][0])
        row[1] = "1" if row[1] == "0" else "0"
        obj["L"][0] = "".join(row)
        assert not verify_certificate(json.dumps(obj))

    def test_torsion_point_substitution_detected(self, frozen_cert):
        obj = json.loads(frozen_cert.to_json_bytes())
        origin = {
            "x": {"num": {"re": "0", "im": "0"}, "den": {"re": "1", "im": "0"}},
            "y": {"num": {"re": "0", "im": "0"}, "den": {"re": "1", "im": "0"}},
        }
        obj["point"] = origin
        assert not verify_certificate(json.dumps(obj))

    def test_wrong_version_rejected(self, frozen_cert):
        obj = json.loads(frozen_cert.to_json_bytes())
        obj["version"] = "999"
        assert not verify_certificate(json.dumps(obj))

    def test_failure_beta_k_rejected(self):
        obj = {
            "beta": {"re": "1", "im": "0"},
            "k": "16",
            "version": "1",
        }
        assert not verify_certificate(json.dumps(obj))

    def test_toolchain_field_ignored(self, frozen_cert):
        obj = json.loads(frozen_cert.to_json_bytes())
        obj["toolchain"] = "someone else's build"
        assert verify_certificate(json.dumps(obj))


class TestRegionCertification:
    def test_every_hit_in_small_region_certifies(self):
        hits = search_region(Box.centered(48), (-48, 48))
        assert hits
        for hit in hits:
            cert = certify(hit.beta, hit.k)
            assert isinstance(cert, Certificate)
            assert verify_certificate(cert)


# The first hit of each decade 10^d from 10^8 to 10^24, with the proof tier t
# of its four norms (Miller-Rabin with MR_BASES[:t]).  beta runs over the
# square of radius 64 about c(1+i), c = isqrt(10^d / 2), and k over
# [1, 256], the top quadrupled until the region holds a hit.
LADDER = [
    (8, gi(7007, 7098), 80, 4),
    (9, gi(22375, 22402), 120, 4),
    (10, gi(70695, 70690), 152, 5),
    (11, gi(223551, 223546), 2480, 5),
    (12, gi(707087, 707082), 11440, 5),
    (13, gi(2236023, 2236050), 1960, 7),
    (14, gi(7071055, 7071034), 720, 7),
    (15, gi(22360639, 22360634), 13920, 9),
    (16, gi(70710703, 70710618), 3360, 9),
    (17, gi(223606799, 223606794), 8080, 9),
    (18, gi(707106775, 707106786), 9720, 9),
    (19, gi(2236067975, 2236067922), 2680, 12),
    (20, gi(7071067815, 7071067762), 15880, 12),
    (21, gi(22360679759, 22360679754), 6480, 12),
    (22, gi(70710678103, 70710678162), 53320, 12),
    (23, gi(223606797751, 223606797714), 13160, 12),
    (24, gi(707106781175, 707106781170), 60856, 13),
]


class TestLadder:
    """A certified hit per decade, through every proof tier up to the bound.

    Each decade searches its window, certifies and verifies its first hit,
    and checks every norm against sympy and against the psi_t interval of
    its tier.  A kernel change that loses a hit changes a first hit here.
    """

    @pytest.mark.parametrize("d, beta, k, tier", LADDER, ids=[f"1e{row[0]}" for row in LADDER])
    def test_first_hit_of_the_decade(self, d, beta, k, tier):
        c = math.isqrt(10 ** d // 2)
        window = Box(c - 64, c + 64, c - 64, c + 64)
        top = 256
        while not (hits := search_region(window, (1, top))):
            top *= 4
        assert (hits[0].beta, hits[0].k) == (beta, k)
        cert = certify(beta, k)
        assert isinstance(cert, Certificate)
        assert verify_certificate(cert)
        for p in hits[0].primes:
            n = p.norm()
            assert isprime(n)
            bases = verifier.proof_bases(n)
            assert len(bases) == tier
            assert verifier.MR_PSI[tier - 2] <= n < verifier.MR_PSI[tier - 1]
            assert verifier.is_strong_probable_prime(n, bases)

    def test_tiers_reach_the_bound(self):
        assert {row[-1] for row in LADDER} == {4, 5, 7, 9, 12, len(verifier.MR_BASES)}
