"""Timer priority queue with grouped sorting and in-queue updates.

Two fidelity levels of the same queue: `BehavioralQueue` is the sorted
reference model, `SystolicQueue` the cycle-accurate array simulator.
`harness` drives either against packet traces for flow-timeout studies,
`oracle` checks both against an unbounded-arithmetic model.
"""

from .core import (
    BehavioralQueue,
    CapacityError,
    Element,
    PushReport,
    QueueConfig,
    expiry_tick,
    is_expired,
    make_expiration,
    msb,
    sort_key,
)
from .systolic import (
    CYCLES_PER_OP,
    SimulationHazard,
    SystolicQueue,
    pop_op,
    push_op,
    remove_op,
)

__all__ = [
    "BehavioralQueue",
    "CapacityError",
    "CYCLES_PER_OP",
    "Element",
    "PushReport",
    "QueueConfig",
    "SimulationHazard",
    "SystolicQueue",
    "expiry_tick",
    "is_expired",
    "make_expiration",
    "msb",
    "pop_op",
    "push_op",
    "remove_op",
    "sort_key",
]

__version__ = "0.1.0"
