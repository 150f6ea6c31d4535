import pluq

DOCUMENTED_API = {
    # decomposition
    "pluq",
    "pluq_iterative",
    "DEFAULT_THRESHOLD",
    "ClassicalKernels",
    "OpCounts",
    "Workspace",
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
    "rank_naive",
    "row_rank_profile_naive",
    "col_rank_profile_naive",
    "all_leading_rank_profiles_naive",
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
