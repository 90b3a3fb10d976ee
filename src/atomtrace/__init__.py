"""atomtrace: network-wide packet behavior identification.

Compiles forwarding tables and ACLs into canonical predicates, computes the
atomic partition of the header space, classifies packets with a pruned
decision tree, traces full forwarding behavior, and emulates a label-only
outsourced processing plane equivalent to header-based processing.
"""

from .bdd import (
    Engine,
    FieldConstraint,
    Header,
    HeaderLayout,
    Predicate,
)
from .atoms import AtomSet, atom_of_header, compute_atoms
from .model import NetworkSnapshot, compile_network, parse_snapshot
from .aptree import APTree, PublishedClassifier, build, classify
from .behavior import BehaviorReport, compile_behavior_map, identify, trace
from .label_plane import LabelPlane, build_label_plane, equivalence_check, simulate_cloud
from .pipeline import Pipeline, build_pipeline

__all__ = [
    "Engine",
    "FieldConstraint",
    "Header",
    "HeaderLayout",
    "Predicate",
    "AtomSet",
    "atom_of_header",
    "compute_atoms",
    "NetworkSnapshot",
    "compile_network",
    "parse_snapshot",
    "APTree",
    "PublishedClassifier",
    "build",
    "classify",
    "BehaviorReport",
    "compile_behavior_map",
    "identify",
    "trace",
    "LabelPlane",
    "build_label_plane",
    "equivalence_check",
    "simulate_cloud",
    "Pipeline",
    "build_pipeline",
]
