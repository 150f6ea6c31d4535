"""Golden outputs: pinned digests of the factors and the operation counts.

Each case decomposes a seeded input and compares the sha256 of ``P``'s and
``Q``'s index maps and of the packed storage (as int64), plus
``OpCounts.as_dict()``, with values recorded from the implementation before
permutation validation moved to the API boundary and ``mm_acc`` switched to a
single reduction per output entry.  It also compares the sha256 of the factor
file text, ``f.to_text()``, recorded from the one-``str()``-per-entry writer
before the vectorised text writer replaced it.  A speed-up that changes any
output bit, any count or any byte of the file fails here.
"""

import hashlib

import numpy as np
import pytest

from pluq import DenseMatrix, OpCounts, PrimeField, pluq, pluq_iterative


def _leu_input(m, n, r, p, seed):
    """L E U with L, U nonsingular triangular and E a rank-r partial permutation,
    multiplied exactly in Python integers (independent of the package)."""
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.integers(0, p, (m, m)), -1) + np.diag(rng.integers(1, p, m))
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.diag(rng.integers(1, p, n))
    rows = rng.choice(m, r, replace=False)
    cols = rng.choice(n, r, replace=False)
    prod = (lower[:, rows].astype(object) @ upper[cols, :].astype(object)) % p
    return prod.astype(np.int64)


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


# (name, p, m, n, rank, seed, route): route is a threshold for the recursive
# algorithm or "iterative"
CASES = [
    ("p1009-deficient-t1", 1009, 192, 160, 97, 11, 1),
    ("p1009-deficient-t30", 1009, 192, 160, 97, 11, 30),
    ("p1009-deficient-iterative", 1009, 192, 160, 97, 11, "iterative"),
    ("p2^26-full-t30", 67108859, 96, 96, 96, 12, 30),
    ("p2^31-large-t8", 2**31 - 1, 64, 48, 40, 13, 8),
]


def _outputs(p, m, n, rank, seed, route):
    field = PrimeField(p)
    a = DenseMatrix(field, _leu_input(m, n, rank, p, seed))
    counts = OpCounts()
    if route == "iterative":
        f = pluq_iterative(a, counts)
    else:
        f = pluq(a, threshold=route, counts=counts)
    assert f.rank == rank
    return {
        "p": _sha(f.p_perm.sigma),
        "q": _sha(f.q_perm.sigma),
        "packed": _sha(f.packed.data),
        "counts": counts.as_dict(),
        "text": hashlib.sha256(f.to_text().encode("ascii")).hexdigest(),
    }


GOLDEN = {
    "p1009-deficient-t1": {
        "p": "1542ba01839f98b0843f0d751ce0366eb6bfcc12f4c63cb034aba6411b6d0341",
        "q": "0462289e1e1402a3ecaf259c82dc5486621d07e8b2f85309a85246b3e135f3e7",
        "packed": "5396c09935df9db9c393efee72301ef2a67b9fd59a120b5067f162327bb80b36",
        "counts": {"field_mul": 1036812, "field_add": 1028096, "field_inv": 486,
                   "modular_reductions": 101414},
        "text": "55b6803a7a85278f4b1b240559dd844ec7f7b304f4da9259819ab5034d1a3572",
    },
    "p1009-deficient-t30": {
        "p": "d838a3a76f509f3791b1b464a43d4d659808fb5ed89a80d949abf9b13ca386bf",
        "q": "e0d68beb63b61eb2eed597c37968d426fd903cf11a8f5b55bbad59df7258c10a",
        "packed": "9e8363915826947c87c3f6d663ac89464387441262905bef34ff9cd7dc428464",
        "counts": {"field_mul": 1026651, "field_add": 1017933, "field_inv": 271,
                   "modular_reductions": 96386},
        "text": "6db814c3cf53ec59bb8c22090af6f5e28365f6cafdc37271f70dd4032c5073d6",
    },
    "p1009-deficient-iterative": {
        "p": "e7acd3fba0bd19d49c519d43ea03d9995a69842ba52513f1ebe57e9c32442dfe",
        "q": "522ba261d007ae13c9763aa2d05dc614a8842dda9e49ead12300bb9be66ec538",
        "packed": "f29e6fc763c6adb1a421ba657fdb6b23069089dd77a54c65ff4e4c774b9d60b7",
        "counts": {"field_mul": 682747, "field_add": 673922, "field_inv": 96,
                   "modular_reductions": 682747},
        "text": "a3bfe69593784f0ccc91d542fc60b048c02b65932c45063647d160e1f5dc4fe1",
    },
    "p2^26-full-t30": {
        "p": "89090ae845e656cc2d78a9cbe95651f5c3d56ce897951e3bc635647dbe769dd6",
        "q": "e8f84d88ed2c2ca8b57c4efeb37071b3948444f79163a36c448313e63d783c7b",
        "packed": "6b05364feaf95304984a13c597d0880fefea06e21eea995f5a86b8878f41fd5d",
        "counts": {"field_mul": 229934, "field_add": 226154, "field_inv": 179,
                   "modular_reductions": 35132},
        "text": "d8c758b2b1307cc40cae353daced68de9f6a373cdbeacebe17ff182e181218d8",
    },
    "p2^31-large-t8": {
        "p": "b500425da4628420f59955948eaa4dba716162634b51fbe5e544ea4c8db25894",
        "q": "924083674b6b9745b7ee48bcee11d605ab4cca49bf5f884c149f3bb96be289aa",
        "packed": "7b1741810dcf4405325083e8d9ffbacc18309f0fb5cc3897483c013946e950af",
        "counts": {"field_mul": 33815, "field_add": 32762, "field_inv": 105,
                   "modular_reductions": 8549},
        "text": "9685214e1911df8297514ad6ab45467b9f47a7dc95202f032330dfecc540b35f",
    },
}


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_outputs(case):
    name, *args = case
    assert _outputs(*args) == GOLDEN[name]
