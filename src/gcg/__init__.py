"""Generalized Cayley graphs: construction, analysis, and mechanical
verification of their structure theory at desk scale.

A generalized Cayley graph GC(G, S, alpha) has vertex set a finite group G
and an edge between x and y whenever alpha(x^-1) y lands in the connection
set S; alpha is an automorphism squaring to the identity, and S is
constrained so the graph is simple and undirected.  The identity alpha
recovers ordinary Cayley graphs.
"""
from __future__ import annotations

from .automorphisms import (
    AutomorphismMap,
    automorphism_from_perm,
    classify_dihedral_involutions,
    decompose_cyclic_sylow,
    decompose_odd_abelian,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    fix_set,
    identity_automorphism,
    inversion_map,
    omega_set,
)
from .canon import CanonicalForm, automorphism_group, canonical_form, is_isomorphic
from .caps import Caps, PROFILES, caps_from_env, with_overrides
from .catalog import BUILTIN_DESCRIPTORS, builtin_descriptors, builtin_groups
from .cayley import detect_cayley, is_vertex_transitive, stability_check, twisted_translation
from .census import RunConfig, compute_record, refuting_records, run_census
from .construct import (
    GCSpec,
    ValidationReport,
    build_gc_graph,
    connection_orbits,
    enumerate_connection_sets,
    kernel_subgroup,
    make_spec,
    quotient_by_kernel,
    validate_connection_set,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    DescriptorError,
    ShapeError,
    SpecError,
)
from .formats import from_graph6, graph_from_dict, graph_to_dict, to_dot, to_graph6
from .graphs import (
    Graph,
    IsomorphismWitness,
    bipartite_double_cover,
    check_witness,
    complete_graph,
    cycle_graph,
    direct_product,
    disjoint_union,
    empty_graph,
    from_edges,
    lexicographic_product,
    path_graph,
    petersen_graph,
    relabel,
)
from .groups import (
    ElementSet,
    FiniteGroup,
    SubgroupHandle,
    bits,
    descriptor_order,
    format_descriptor,
    make_generalized_dihedral,
    make_group,
    mask_of,
    parse_descriptor,
    product_group,
    subgroup_closure,
    subgroup_handle,
)
from .theorems import (
    THEOREM_IDS,
    CayleyWitness,
    OddAbelianNormalForm,
    TheoremReport,
    build_counterexample,
    check_inversion_dichotomy,
    dihedralize_inversion,
    normal_form_odd_abelian,
    order_2p_witness,
    run_theorem,
    verify_conjugation_isomorphism,
    verify_product_lemma,
    verify_unworthy_theory,
)

__version__ = "0.1.0"
