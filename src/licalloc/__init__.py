"""License allocation engine with depletion-aware selection and verification tools."""

from .allocate import (
    AllocationDecision,
    Chooser,
    Chosen,
    NoMatch,
    PromptRequired,
    allocate_and_execute,
    min_loss_chooser,
    oma_allocate,
    proposed_allocate,
)
from .corpus import CorpusDocument, load_corpus, parse_corpus, serialize_corpus
from .engine import (
    AgentState,
    ConstraintState,
    Depletion,
    consume,
    constraint_holds,
    constraints_hold,
    cp_valid,
    initial_state,
    is_depleting,
)
from .errors import (
    AssumptionViolation,
    ChooserContractError,
    InvalidTargetError,
    LicallocError,
    NotFoundError,
)
from .labels import (
    Complexity,
    ConstraintName,
    Label,
    Times,
    cp_label,
    state_labels,
    sublicense_label,
)
from .model import (
    CP,
    Action,
    Constraint,
    ConstraintPermissionSet,
    Count,
    DateTime,
    Interval,
    License,
    LicenseSet,
    Permission,
    Request,
    SubLicense,
    TimedCount,
    Unconstrained,
    matches,
    sat_cp,
)
from .rights import (
    candidates,
    loss,
    remnants,
    select_target,
)

__version__ = "0.1.0"
