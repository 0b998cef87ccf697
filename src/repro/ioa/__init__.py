"""The I/O automaton model (paper, Section 2), as an executable library.

This subpackage is a general-purpose implementation of the Lynch-Tuttle
input/output automaton model: actions and signatures, automata with
input-enabled transition relations and task partitions, executions /
schedules / behaviors, fairness (with an executable form of Lemma 2.1),
composition (Lemmas 2.2-2.4), output hiding, and schedule modules with
the ``solves`` relation.
"""

from .actions import Action, Direction, action_family, directed
from .automaton import Automaton, State, TransitionError
from .composition import Composition
from .execution import (
    ExecutionFragment,
    Schedule,
    external_of,
    inputs_of,
    project_schedule,
    replay_schedule,
)
from .explorer import (
    ExplorationResult,
    InputEnablednessError,
    explore,
    reachable_states,
)
from .fairness import (
    FairnessTimeout,
    apply_inputs,
    fair_extension,
    is_fair_finite,
    run_to_quiescence,
)
from .hiding import Hidden, hide
from .patching import PatchError, patch_executions, patch_schedules
from .refinement import RefinementResult, check_refinement
from .schedule_module import (
    ModuleVerdict,
    PropertyResult,
    ScheduleModule,
    check_solves_on,
)
from .signature import (
    ActionSignature,
    FamilyKey,
    SignatureError,
    compatibility_conflicts,
    compose_signatures,
    strongly_compatible,
)

__all__ = [
    "Action",
    "ActionSignature",
    "Automaton",
    "Composition",
    "Direction",
    "ExecutionFragment",
    "ExplorationResult",
    "FairnessTimeout",
    "FamilyKey",
    "Hidden",
    "InputEnablednessError",
    "ModuleVerdict",
    "PatchError",
    "RefinementResult",
    "PropertyResult",
    "Schedule",
    "ScheduleModule",
    "SignatureError",
    "State",
    "TransitionError",
    "action_family",
    "apply_inputs",
    "check_refinement",
    "check_solves_on",
    "compatibility_conflicts",
    "compose_signatures",
    "directed",
    "explore",
    "external_of",
    "fair_extension",
    "hide",
    "inputs_of",
    "patch_executions",
    "patch_schedules",
    "is_fair_finite",
    "project_schedule",
    "reachable_states",
    "replay_schedule",
    "run_to_quiescence",
    "strongly_compatible",
]
