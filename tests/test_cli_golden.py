"""Golden bytes of the CLI's small commands over a fixed input grid.

Each group runs ``cli.run`` in-process on every argument list of its grid
and hashes, per call, the argument list, the exit code, stdout and stderr.
The digests were recorded on a tree whose normal forms (canonical and
primary associates) were found by search, whose ``stats`` census tested
every lattice point of the box one by one, and whose ``certify`` built each
certificate from typed Selmer, torsion and point objects, so a change to how
those forms, counts or certificates are computed that alters a single byte
of output fails here.  The ``certify`` group writes each certificate to a
file in a scratch directory and runs ``verify`` on it.  The ``search`` group
hashes the hits on stdout and the ``shard_done``/``round_done`` records on
stderr; it was recorded on a tree whose library functions each converted an
int argument to a ``GaussInt`` themselves, and whose ``--expand`` stopped at
a ``--max-radius`` cap.  Its ``--box 1 --expand`` case runs the longest
expansion schedule, radii 1 to 16.  The ``inert`` group was recorded on a
tree whose symbol at an inert prime q raised the numerator to (q^2-1)/2 by
square and multiply in Z[i]/(q).
"""

import hashlib

import pytest

from qirank.cli import run
from qirank.gaussian import GaussInt

from oracles import primary_primes_up_to_norm

PRIMES = [str(p) for p in primary_primes_up_to_norm(200)]

# the 10 hits of ``search --box 64``, k in -64..64
BOX_64_HITS = [
    ("15+10i", 16), ("15+10i", -16), ("39-14i", 40), ("39+34i", 40),
    ("39-14i", -40), ("39+34i", -40), ("55-30i", 24), ("55-30i", -24),
    ("-57+2i", 40), ("-57+2i", -40),
]

# one pair per failure kind: primes not distinct, not congruent, not a
# Gaussian prime, a norm above the Miller-Rabin bound
CERTIFY_FAILURES = [
    ("7+2i", 0), ("1", 16), ("-1-6i", 16), ("10000000000015+10000000000010i", 16),
]

GRIDS = {
    "factor": [
        ["factor", str(GaussInt(a, b))]
        for a in range(-12, 13) for b in range(-12, 13)
    ],
    "torsion": [
        ["torsion", g] for g in (
            # square-free: units, ramified, split, inert, products
            "1", "-1", "i", "-i", "1+i", "2+i", "-1+2i", "-1-6i", "3", "-3i",
            "5", "6", "5-7i", "2+3i", "-21",
            # not square-free, and zero
            "0", "2", "-4", "4+2i", "9", "2i", "-12+5i", "25", "-1-6i*",
        )
    ],
    "invariants": [["invariants", p] for p in PRIMES]
    + [["invariants", a] for a in ("1", "3+2i", "2+i", "1+i", "i", "0")],
    "symbol": [
        ["symbol", a, p]
        for p in PRIMES
        for a in PRIMES[:12] + ["1", "i", "-1", "1+i", "2"]
        if a != p
    ],
    "selmer": [["selmer", "-1+26i", "-1-6i", "31-6i", "31+26i"]],
    # inert primes in every associate, primary or not, with multiples of
    # the prime (exit 1), non-primes and 1+i among the moduli
    "inert": [
        ["symbol", a, p]
        for p in ("3", "3i", "-3", "-3i", "7", "7i", "-7i", "11", "-11i", "19i",
                  "-23", "43", "9", "21i", "1+i")
        for a in ("1", "i", "-1", "1+i", "2", "2+i", "-1-6i", "5", "4+3i",
                  "10-7i", "123456789+987654321i", "6", "3i", "6+3i", "21-14i",
                  "33+77i")
    ] + [
        ["selmer", *primes] for primes in (
            ("-3", "-7"), ("-3", "-7", "-11"), ("-19", "-23", "-31", "-43"),
            ("-3", "-1-6i"), ("-3", "-7", "-1-6i", "31-6i"), ("-11", "-1+26i", "-19"),
            ("3", "-7"), ("-3", "-7i"), ("-3", "-3"),
        )
    ],
    "stats": [["stats", "--box", str(b)] for b in (0, 1, 2, 3, 15, 16, 17, 64, 200)],
    "search": [
        ["search", "--box", "64", "--kmax", "64", "--shards", "1"],
        ["search", "--box", "64", "--kmax", "64", "--shards", "3"],
        ["search", "--box", "256", "--kmax", "256"],
        ["search", "--re-min", "-64", "--re-max", "0", "--im-min", "-64",
         "--im-max", "64", "--kmax", "64"],
        ["search", "--box", "8", "--expand"],
        ["search", "--box", "1", "--expand"],
        # usage errors
        ["search", "--box", "64", "--shards", "0"],
        ["search", "--box", "64", "--kmax", "-1"],
        ["search", "--re-min", "3", "--re-max", "2", "--im-min", "0",
         "--im-max", "0", "--kmax", "0"],
    ],
    "certify": [
        argv
        for n, (beta, k) in enumerate(BOX_64_HITS)
        for argv in (["certify", beta, str(k), "--output", f"cert-{n}.json"],
                     ["verify", f"cert-{n}.json"])
    ] + [["certify", beta, str(k)] for beta, k in CERTIFY_FAILURES],
}

DIGESTS = {
    "factor": "e622da0f026033e8b2aab71f71b7daed8d7eaf75702a1ce7d25beef16687536c",
    "torsion": "01b2008ce142f77bd467024cfb9d12a1958ecfafd883185fe90901c2c228fb7d",
    "invariants": "352f932cb79ae81855b777ec57695d64e792db9a84b7e317561465e11cbd279e",
    "symbol": "53c21f60ed3c643ce93371ce2b4fc716cb3ee35f545846efa85ca0f09ef0d1c3",
    "selmer": "00ba6254b587a6d0fbc826506c2d92db365f250cfe5f9e0b40406bbf77aa6a08",
    "inert": "09bbe8dd9daae7f06e4b977a12b8879ed4eff680bec0241c037a915e59ddabeb",
    "stats": "a69dcb2785d420c6bc7943d8b9b8e12edb2c160d406da14e129035c59ba64d88",
    "search": "6a492492a1796cf2af30cf6fcdbf1afcffb55286fe61b145b79cd2c0970124c8",
    "certify": "016ee6aa31c198c9059dbadd95fee53096901d01d00840fe9c4da84f7b953b44",
}


def grid_digest(capsys, grid):
    h = hashlib.sha256()
    for argv in grid:
        code = run(argv)
        captured = capsys.readouterr()
        h.update(f"{argv!r}\n{code}\n{captured.out}\n{captured.err}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(GRIDS))
def test_cli_bytes_unchanged(capsys, monkeypatch, tmp_path, group):
    monkeypatch.chdir(tmp_path)
    assert grid_digest(capsys, GRIDS[group]) == DIGESTS[group]
