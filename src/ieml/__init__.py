"""Workbench for intuitionistic multi-agent epistemic logics with
distributed knowledge: parsing, finite birelational model checking, frame
classification, model constructions, Hilbert derivation checking, and
countermodel search."""

from .errors import BudgetError, PreconditionError
from .syntax import (
    AgentSet, And, Atom, BOT, Bot, Box, Dia, Formula, Group, Implies,
    Match, MonoBox, Or, ParseError, Program, Schema, TOP, Top, agents_of,
    atoms_of, depth_of, groups_of, instantiate, is_diamond_free,
    match_instance, parse, render, sf, substitute, tau,
)
from .semantics import (
    Evaluator, Frame, FrameReport, Model, MonoStructure, Rel,
    check_frame, compose, evaluator, falsify_on_frame, is_closed,
    is_forward_confluent, satisfies, up_sets, valid_in_frame,
)
from .frame_classes import FrameClass, classify, has_class, is_iel_structure
from .modelio import (
    ModelDoc, ModelFormatError, load_model, load_mono, model_to_doc, save_model,
)
from .constructions import (
    ConstructionResult, collapse_mono, equivalence_mismatches, expand_mono,
    mono_equivalence_mismatches, partition_lift, partition_lift_witnesses,
    rs_collapse, standardize, transitive_lift, witness_h,
)
from .proofs import (
    AxiomStep, CheckResult, Derivation, LogicId, MPStep, RuleStep, SubStep,
    check_derivation, load_derivation, parse_derivation, schema_catalog,
    soundness_probe,
)
from .search import (
    CountermodelResult, SizeBudget, SuiteReport, all_formulas, budget_from_env,
    countermodel, diamond_free_formulas, enumerate_frames, mono_structures,
    preorders, proposition_suite, random_model, sample_formulas,
)

__version__ = "0.1.0"
