"""Statement-to-test traceability.

Each entry ties one mathematical statement the engine relies on to the
operation implementing it and the tests that verify it.  The manifest is
the authoritative list of in-scope statements; a test checks the table
against it mechanically, so a statement cannot silently lose coverage.

reached says whether an audit checks the statement: True when run_audit,
gr_report or check_algebra_report calls each of its operations, False
when none of them calls any, so that only the cited tests verify it.  A
test runs the three reports and checks the flag both ways.
"""

from collections import namedtuple

__all__ = ["TraceEntry", "MANIFEST", "trace_table"]

TraceEntry = namedtuple("TraceEntry", ["label", "statement", "operation",
                                       "tests", "reached"], defaults=(True,))

_TABLE = (
    TraceEntry(
        "tensor-strictly-associative",
        "iterated tensor products of objects and morphisms agree on the "
        "nose, with no associator bookkeeping",
        "gvec.tensor_obj / gvec.tensor_mor",
        ("tests/test_gvec.py::test_tensor_associative_on_objects_and_morphisms",
         "tests/test_gvec.py::test_tensor_interchange",
         "tests/test_gvec.py::test_sparse_tensor_mor_matches_dense_reference",
         "tests/test_gvec.py::"
         "test_sparse_tensor_mor_matches_dense_on_random_groupoids")),
    TraceEntry(
        "unit-laws-literal",
        "tensoring with the unit object is the identity on objects and "
        "morphisms, not merely isomorphic to it",
        "gvec.unit_object",
        ("tests/test_gvec.py::test_unit_laws_are_identities",)),
    TraceEntry(
        "grading-follows-composition",
        "the tensor product of graded pieces lands in the grade of the "
        "composed groupoid morphism and vanishes on non-composable pairs",
        "gvec.tensor_obj",
        ("tests/test_gvec.py::test_tensor_grading_follows_composition",
         "tests/test_gvec.py::test_tensor_multiplicities_z2")),
    TraceEntry(
        "duals-satisfy-zigzag",
        "evaluation and coevaluation of the left dual satisfy both "
        "triangle identities exactly",
        "gvec.left_dual",
        ("tests/test_gvec.py::test_zigzag_identities",
         "tests/test_gvec.py::test_dual_simple_pair_groupoid")),
    TraceEntry(
        "dualization-contravariant-involutive",
        "taking duals reverses composition and tensor order and is "
        "involutive on objects and morphisms",
        "gvec.dual_morphism",
        ("tests/test_gvec.py::test_dual_morphism_contravariant_functor",
         "tests/test_gvec.py::test_dual_strictness_on_objects",
         "tests/test_gvec.py::test_dual_morphism_matches_dense_reference"),
        reached=False),
    TraceEntry(
        "every-morphism-regular",
        "every morphism f admits a weak inverse g with f g f = f",
        "morphcalc.weak_inverse",
        ("tests/test_morphcalc.py::test_every_morphism_is_regular",
         "tests/test_morphcalc.py::test_weak_inverse_frozen_column"),
        reached=False),
    TraceEntry(
        "mono-iff-split-mono",
        "a morphism is mono exactly when it is split mono, and epi exactly "
        "when split epi",
        "morphcalc.find_retraction / morphcalc.find_section / gvec.mono_epi",
        ("tests/test_morphcalc.py::test_split_witnesses_random",
         "tests/test_morphcalc.py::test_split_mono_epi_flags",
         "tests/test_morphcalc.py::"
         "test_rank_verdicts_match_witness_finders")),
    TraceEntry(
        "algebra-axioms-decidable",
        "associativity and both unit laws of an internal algebra are "
        "decidable blockwise and mutations are rejected with the failing "
        "grade",
        "internal.validate_algebra",
        ("tests/test_internal.py::test_corpus_algebras_validate",
         "tests/test_internal.py::test_mutations_rejected",
         "tests/test_internal.py::test_mutations_rejected_across_corpus")),
    TraceEntry(
        "unit-summands-are-algebras",
        "each summand 1_i of the unit carries a unique algebra and "
        "coalgebra structure with identity multiplication",
        "internal.unit_summand_algebra",
        ("tests/test_internal.py::test_unit_summand_algebra_pair2",
         "tests/test_internal.py::test_unit_summand_in_one_object_category")),
    TraceEntry(
        "support-theorem",
        "the carrier of an algebra vanishes outside J x J where J is the "
        "set of diagonal objects it touches",
        "internal.support",
        ("tests/test_internal.py::test_support_theorem_examples",)),
    TraceEntry(
        "corner-inclusion-algebra-morphism",
        "the corner A_J is an algebra and its carrier inclusion satisfies "
        "both algebra-morphism equations exactly",
        "internal.restriction_data",
        ("tests/test_internal.py::test_restriction_inclusion_is_algebra_morphism",
         "tests/test_internal.py::test_restriction_to_full_support_is_identity")),
    TraceEntry(
        "restricted-unit-mono",
        "over its support the corner algebra has a monomorphic unit",
        "internal.restriction_data",
        ("tests/test_internal.py::test_restricted_unit_is_mono_on_support",)),
    TraceEntry(
        "restricted-separability",
        "over its support the unit of the corner algebra is split mono",
        "internal.restriction_data / morphcalc.find_retraction",
        ("tests/test_functors.py::test_restricted_separability_corpus",)),
    TraceEntry(
        "separable-iff-unit-split-mono",
        "tensoring by an algebra is separable exactly when its unit has a "
        "retraction",
        "functors.separability_verdict",
        ("tests/test_functors.py::test_separability_unit_summand_not_separable",
         "tests/test_functors.py::test_separability_group_algebra")),
    TraceEntry(
        "naturally-full-iff-unit-split-epi",
        "tensoring by an algebra is naturally full exactly when its unit "
        "has a section",
        "functors.separability_verdict",
        ("tests/test_functors.py::test_separability_unit_summand_not_separable",)),
    TraceEntry(
        "always-semiseparable",
        "tensoring by any algebra is semiseparable because every unit "
        "morphism is regular",
        "functors.separability_verdict",
        ("tests/test_functors.py::test_verdicts_run_clean_on_corpus",
         "tests/test_morphcalc.py::test_every_morphism_is_regular")),
    TraceEntry(
        "section-identity-is-natural-retraction",
        "a retraction r of the unit induces the natural section "
        "P(g) = (id (x) r) g (id (x) u) of the induction hom-map",
        "functors.check_section_identity",
        ("tests/test_functors.py::test_section_identity_group_algebra",
         "tests/test_functors.py::test_cosection_identity_dual_group_algebra"),
        reached=False),
    TraceEntry(
        "idempotent-trivial-iff-separable",
        "the canonical idempotent e_M = id_M (x) (psi' psi) is natural, "
        "squares to itself, and is the identity exactly for separable "
        "algebras",
        "functors.idempotent_e",
        ("tests/test_functors.py::test_idempotent_matches_coordinate_projection",
         "tests/test_functors.py::test_idempotent_trivial_iff_separable_on_corpus",
         "tests/test_functors.py::"
         "test_separable_unit_idempotent_is_the_interned_identity")),
    TraceEntry(
        "dead-simple-kills-faithfulness",
        "a simple supported outside the algebra support tensors to zero, "
        "so the tensor functor is not faithful",
        "functors.is_faithful_tensor",
        ("tests/test_functors.py::test_faithful_dead_simple",
         "tests/test_functors.py::test_faithful_group_algebra",
         "tests/test_functors.py::"
         "test_dead_simple_grade_matches_tensor_products")),
    TraceEntry(
        "reflection-properties-with-witnesses",
        "the tensor functor reflects split monos, split epis, and "
        "isomorphisms exactly when no simple dies, with explicit "
        "counterexamples otherwise",
        "functors.reflection_checks",
        ("tests/test_functors.py::test_reflection_dead_simple_witnesses",
         "tests/test_functors.py::test_reflection_holds_group_algebra",
         "tests/test_functors.py::"
         "test_dead_simple_grade_matches_tensor_products",
         "tests/test_functors.py::test_reflection_loop_catches_forged_tensor",
         "tests/test_morphcalc.py::"
         "test_rank_verdicts_match_witness_finders")),
    TraceEntry(
        "dual-swaps-split-sides",
        "dualizing an algebra gives a coalgebra whose counit splits on the "
        "mirror side, with identical verdicts",
        "internal.dualize_algebra",
        ("tests/test_internal.py::test_dualize",
         "tests/test_functors.py::test_dual_verdicts_agree_on_corpus")),
    TraceEntry(
        "inclusion-separable-frobenius",
        "the inclusion of a full unit-supported subcategory is separable "
        "Frobenius monoidal via the coordinate maps of the unit",
        "functors.check_inclusion_frobenius",
        ("tests/test_functors.py::test_inclusion_frobenius",)),
    TraceEntry(
        "projection-lax-colax",
        "the two-sided corner projection carries lax and colax monoidal "
        "structures satisfying associativity, unitality, and naturality "
        "exactly",
        "functors.check_projection_lax_colax",
        ("tests/test_functors.py::test_projection_lax_colax",
         "tests/test_functors.py::test_projection_functor_is_corner_restriction",
         "tests/test_functors.py::test_projection_functor_matches_tensor_constructions",
         "tests/test_functors.py::test_projection_functor_matches_tensor_constructions_on_random_groupoids")),
    TraceEntry(
        "frobenius-pair-adjunctions",
        "inclusion and projection form a two-sided adjunction with "
        "hom-space bijections given by restriction",
        "functors.frobenius_pair_check",
        ("tests/test_functors.py::test_frobenius_pair",)),
    TraceEntry(
        "lax-image-matches-corner",
        "the lax monoidal image of an algebra under the projection equals "
        "the corner restriction computed directly",
        "functors.check_rj_algebra",
        ("tests/test_functors.py::test_rj_algebra_matches_direct_restriction",
         "tests/test_functors.py::"
         "test_rj_algebra_compares_multiplications_on_a_proper_subset")),
    TraceEntry(
        "ring-is-based-with-dual-involution",
        "the ring of classes of simples is a based ring whose involution "
        "is induced by left duals: the dual of the simple at g is the "
        "simple at g^-1, and the class of 1 is the sum over the identity "
        "grades",
        "grothendieck.ring_report",
        ("tests/test_grothendieck.py::test_involution_antiautomorphism_everywhere",
         "tests/test_grothendieck.py::test_pair2_ring_is_matrix_units_not_fusion",
         "tests/test_audit.py::test_ring_unit_and_duals_are_checked")),
    TraceEntry(
        "ring-constants-match-composition",
        "the Grothendieck ring of a groupoid's graded vector spaces is its "
        "groupoid ring: the tensor product of the simples at g and h is "
        "the simple at gh when they compose and zero otherwise, read off "
        "one tensor square of the regular object and checked against the "
        "composition table",
        "grothendieck.ring_report",
        ("tests/test_audit.py::test_misgraded_ring_constant_raises",
         "tests/test_audit.py::test_audit_counts_the_constants_gr_lists",
         "tests/test_grothendieck.py::test_ring_constant_at_two_grades_raises",
         "tests/test_grothendieck.py::test_sparse_ring_expands_to_the_dense_loop")),
    TraceEntry(
        "groupoid-axioms-are-ring-axioms",
        "on the groupoid ring the based-ring axioms are groupoid axioms the "
        "groupoid constructor checks: every structure constant is 0 or 1, "
        "associativity is the composition table's, the unit laws are the "
        "identity laws, (gh)^-1 = h^-1 g^-1 makes the involution an "
        "anti-automorphism, and gh is an identity exactly when h = g^-1, "
        "which is the pairing; so the report states these verdicts "
        "without checking them on the ring",
        "groupoid.groupoid_from_spec / grothendieck.ring_report",
        ("tests/test_grothendieck.py::"
         "test_ring_report_verdicts_match_the_general_checks",
         "tests/test_grothendieck.py::"
         "test_ring_report_verdicts_match_the_general_checks_on_random_"
         "groupoids",
         "tests/test_grothendieck.py::test_ring_report_runs_each_check_once",
         "tests/test_groupoid.py::test_group_validation_messages",
         "tests/test_groupoid.py::test_explicit_validation")),
    TraceEntry(
        "fusion-ring-iff-one-object",
        "the ring is a fusion ring exactly when the category has a single "
        "object, i.e. the unit is simple",
        "grothendieck.ring_report",
        ("tests/test_audit.py::test_gr_report_fixtures",
         "tests/test_grothendieck.py::test_z2_ring_is_fusion_with_square_identity",
         "tests/test_grothendieck.py::test_union_ring_two_identity_components",
         "tests/test_grothendieck.py::"
         "test_ring_report_verdicts_match_the_general_checks")),
    TraceEntry(
        "fusion-iff-separable",
        "the ring is fusion exactly when tensoring by every non-zero "
        "corpus algebra is separable",
        "grothendieck.fusion_iff_separable_check",
        ("tests/test_grothendieck.py::test_fusion_iff_separable",
         "tests/test_acceptance.py::test_criterion_7_ring_suite",
         "tests/test_audit.py::test_gr_report_fixtures")),
    TraceEntry(
        "unit-morphisms-detect-simplicity",
        "non-zero morphisms between 1 and an algebra or coalgebra are "
        "mono resp. epi exactly when the unit object is simple: out of a "
        "simple 1 every non-zero map is mono, and with more objects a "
        "non-zero u e_i, e_i the idempotent of End(1) on object i, is "
        "multiplicative and not mono, so u and the u e_i decide it",
        "audit.run_audit",
        ("tests/test_audit.py::test_witnesses_reverify_pair2",
         "tests/test_audit.py::test_unit_morphism_conditions_are_exact",
         "tests/test_audit.py::test_reverify_witness_rejects_a_"
         "non_multiplicative_morphism_from_one",
         "tests/test_audit.py::test_reverify_witness_rejects_a_"
         "non_comultiplicative_morphism_to_one")),
    TraceEntry(
        "fifteen-way-equivalence",
        "conditions (2) through (15) each hold exactly when the unit "
        "object is simple, over every fixture and corpus",
        "audit.run_audit",
        ("tests/test_audit.py::test_audit_simple_unit",
         "tests/test_audit.py::test_audit_multi_unit",
         "tests/test_audit.py::test_report_structural_section")),
)

MANIFEST = tuple(e.label for e in _TABLE)


def trace_table():
    return list(_TABLE)

