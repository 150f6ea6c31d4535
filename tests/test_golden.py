"""Golden outputs: pinned digests of the factors and the operation counts.

Each case decomposes a seeded input and compares the sha256 of ``P``'s and
``Q``'s index maps and of the packed storage (as int64), plus
``OpCounts.as_dict()``, with values recorded from the implementation before
permutation validation moved to the API boundary and ``mm_acc`` switched to a
single reduction per output entry.  It also compares the sha256 of the factor
file text, ``f.to_text()``, recorded from the one-``str()``-per-entry writer
before the vectorised text writer replaced it.  A speed-up that changes any
output bit, any count or any byte of the file fails here.

The generator cases pin the seeded matrices of ``gen_rank_deficient_rect``
and ``gen_full_rank_generic`` and the factors and counts of ``ple_row_major``
on each of them, recorded from the generator that multiplied a dense E and
from the per-pivot assembly of the row-major factors.
"""

import hashlib

import numpy as np
import pytest

from pluq import (
    DenseMatrix,
    OpCounts,
    PrimeField,
    gen_full_rank_generic,
    gen_rank_deficient_rect,
    ple_row_major,
    pluq,
    pluq_iterative,
)
from conftest import leu_product


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
    a = DenseMatrix(field, leu_product(np.random.default_rng(seed), m, n, p, rank)[0])
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


# (name, m, n, rank, p, seed); the generic input is max(m, n) square
GENERATOR_CASES = [
    ("rank0", 12, 9, 0, 1009, 3),
    ("empty-0x5", 0, 5, 0, 7, 1),
    ("p2", 17, 23, 6, 2, 4),
    ("p2^31", 20, 14, 9, 2**31 - 1, 5),
    ("p2^26-tall", 41, 28, 17, 67108859, 6),
]


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(repr(arr.shape).encode("ascii"))
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def _generator_outputs(m, n, rank, p, seed):
    out = {}
    for kind, a in [("deficient", gen_rank_deficient_rect(m, n, rank, p, seed)),
                    ("generic", gen_full_rank_generic(max(m, n), p, seed))]:
        counts = OpCounts()
        f = ple_row_major(a, counts)
        out[kind] = {
            "matrix": _digest(a.data),
            "ple": _digest(f.p_perm.sigma, f.lower, f.echelon, np.array(f.pivot_cols, dtype=np.int64)),
            "counts": counts.as_dict(),
        }
    return out


GENERATOR_GOLDEN = {
    "rank0": {
        "deficient": {
            "matrix": "b69b7a6454fffec1bff8c80214154b17456fdbaae60d75b95fc3ddec4841b2e8",
            "ple": "1cca6a6d039579a833f440fb4d3c09a9c91d5f71a1a8b5858477119d79dd8804",
            "counts": {"field_mul": 0, "field_add": 0, "field_inv": 0,
                       "modular_reductions": 0},
        },
        "generic": {
            "matrix": "23c5df4742df82b612f5ef429ee1b79d112231b11264772ba64a2519b974ab60",
            "ple": "eec2ea24efef952181b2e94c310854d897bb3e0ae300ce80f2f81fbf4ac0b5c6",
            "counts": {"field_mul": 572, "field_add": 506, "field_inv": 20,
                       "modular_reductions": 278},
        },
    },
    "empty-0x5": {
        "deficient": {
            "matrix": "989eb3393a13ff7ebbf036091a2cc26314528f8acddcd8b35ce2e30ff1b30b41",
            "ple": "465c07c0515d51d8ce8b1590abb14469da6f06ab9acdc58d11a690182c8cdbf1",
            "counts": {"field_mul": 0, "field_add": 0, "field_inv": 0,
                       "modular_reductions": 0},
        },
        "generic": {
            "matrix": "f9e1942c3459c6ae90041b2e085b9bbc5d5482aa03ee91d3ece32a49b90c03e3",
            "ple": "27023b2abc8c50fa8d4bfc1507c807344b6f85f7e385924d59e93b5a605f8ddf",
            "counts": {"field_mul": 40, "field_add": 30, "field_inv": 5,
                       "modular_reductions": 38},
        },
    },
    "p2": {
        "deficient": {
            "matrix": "d94f2097f6590a54ee98c3e6fd06009a66147701cf949ef35346f08d3a8e5f6e",
            "ple": "b5d2fbed24b0db8135811c89ab90408608e259527c1487d66ca95b3090d8e2d6",
            "counts": {"field_mul": 898, "field_add": 857, "field_inv": 12,
                       "modular_reductions": 549},
        },
        "generic": {
            "matrix": "6b945d94fe517ca4c53238f57debd8f3b9b2c3150080b2648009c5efd43c54d1",
            "ple": "9a7b745af63bd54a46c62d403f6b22082c2abc1764a6532d793f473f26489893",
            "counts": {"field_mul": 4048, "field_add": 3795, "field_inv": 48,
                       "modular_reductions": 1184},
        },
    },
    "p2^31": {
        "deficient": {
            "matrix": "987e10d271a2d8e1f71077081ff1491211debff7e949532ac238cbe1ff85a573",
            "ple": "17f12f691858fc927604f6e112242d6cbaf7479132998d64f888bfa29bb71e7c",
            "counts": {"field_mul": 1069, "field_add": 976, "field_inv": 19,
                       "modular_reductions": 537},
        },
        "generic": {
            "matrix": "e296fcf2ade88e299b2b8ddf8328352fe078bedf94da1df72c3dedfbcf4554d5",
            "ple": "526428beda6dcc8535dcef44cc084817c66684bf3645c0398b616cce7bec90ac",
            "counts": {"field_mul": 2660, "field_add": 2470, "field_inv": 40,
                       "modular_reductions": 862},
        },
    },
    "p2^26-tall": {
        "deficient": {
            "matrix": "c66725486eac2196854fe5f3d7c4d0b6610cb302ec6da620de9adda4a65b4b89",
            "ple": "6d829c84e8e7505c0bc308e9c1281bb6463dee031e964146ab7dfdf304291ea6",
            "counts": {"field_mul": 8020, "field_add": 7663, "field_inv": 44,
                       "modular_reductions": 2452},
        },
        "generic": {
            "matrix": "3883cb6a487fc113ed72a657b1eb356a5c719ad5f6fce0bcc988e3cd4ce914ab",
            "ple": "ebd9df2b3ed48eb7ca2b15eeb794690dda7a88bebf78032896250129c682c41a",
            "counts": {"field_mul": 22960, "field_add": 22140, "field_inv": 102,
                       "modular_reductions": 4121},
        },
    },
}


@pytest.mark.parametrize("case", GENERATOR_CASES, ids=[c[0] for c in GENERATOR_CASES])
def test_golden_generators_and_row_major_reference(case):
    name, *args = case
    assert _generator_outputs(*args) == GENERATOR_GOLDEN[name]
