"""Satisfiability engine for sentences exists z. forall x. exists y1...yn. psi.

The fragment is purely relational with equality.  The package parses
sentences, decides satisfiability by three deterministic methods built
on a shared witness search (1-type fixpoint, counter-bounded game, and a
z-relative extended-type fixpoint), emits independently checkable SAT
certificates and staged model constructions, and ships a brute-force
finite-model oracle for differential testing.
"""

from .onetypes import (
    ExtendedType,
    OneType,
    enumerate_extended_types,
    enumerate_one_types,
    initial_extended_type,
    render_one_type,
    type_of_element,
)
from .solver import (
    Certificate,
    SolveOutcome,
    bounded_game_solve,
    check_certificate,
    extended_solve,
    gfp_solve,
    solve,
)
from .structures import (
    ConstructionConflict,
    FiniteStructure,
    StagedModel,
    brute_force_search,
    build_model_sequence,
    descriptor_to_structure,
    eval_qf,
    eval_sentence,
    verify_construction,
)
from .syntax import (
    FragmentError,
    ParseError,
    PrenexSentence,
    Signature,
    extract_signature,
    format_sentence,
    parse,
    validate_prefix,
)
from .witness import (
    SearchPlan,
    WitnessDescriptor,
    check_descriptor,
    find_witness,
)

__version__ = "0.1.0"
