import pathlib
import re

import pluq

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

DOCUMENTED_API = {
    # decomposition
    "pluq",
    "pluq_iterative",
    "DEFAULT_THRESHOLD",
    "OpCounts",
    "TrackingWorkspace",
    # fields, matrices, permutations, factors
    "PrimeField",
    "inverse_mod",
    "is_prime",
    "DenseMatrix",
    "Permutation",
    "PluqFactors",
    # rank profiles and LEU
    "row_rank_profile",
    "col_rank_profile",
    "leading_rank_profiles",
    "to_leu",
    "LeuFactors",
    "check_triangular_extension",
    # generators
    "gen_full_rank_generic",
    "gen_rank_deficient_rect",
    # oracles, reference elimination and cost models
    "LeadingProfileTable",
    "ple_row_major",
    "PleFactors",
    "r_pluq_closed_form",
    "r_ple_recurrence",
}


def test_all_is_the_documented_api():
    assert len(pluq.__all__) == len(set(pluq.__all__))
    assert set(pluq.__all__) == DOCUMENTED_API
    for name in pluq.__all__:
        assert getattr(pluq, name) is not None, name


def test_readme_api_table_names_the_documented_api():
    section = README.read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and "`" in line]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[2])]
    assert len(names) == len(set(names))
    assert set(names) == DOCUMENTED_API


def test_reprs_name_the_type_and_its_parameters():
    field = pluq.PrimeField(5)
    assert repr(field) == "PrimeField(5)"
    assert repr(pluq.DenseMatrix(field, [[1, 2, 3], [4, 0, 1]])) == "DenseMatrix(2x3 mod 5)"
    assert repr(pluq.Permutation([1, 0])) == "Permutation([1, 0])"
