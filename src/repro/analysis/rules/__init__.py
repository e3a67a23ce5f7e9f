"""The project-specific invariant rules, in stable reporting order."""

from repro.analysis.rules.deadline import DeadlineLoopRule
from repro.analysis.rules.dual_path import DualPathRule
from repro.analysis.rules.error_taxonomy import ErrorTaxonomyRule
from repro.analysis.rules.fault_points import FaultPointRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.one_index import OneIndexRule
from repro.analysis.rules.one_schedule import OneScheduleRule
from repro.analysis.rules.order_contract import OrderContractRule

#: Every rule the driver runs by default.
ALL_RULES = (
    LockDisciplineRule,
    ErrorTaxonomyRule,
    FaultPointRule,
    OrderContractRule,
    DeadlineLoopRule,
    DualPathRule,
    OneScheduleRule,
    OneIndexRule,
)
