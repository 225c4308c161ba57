"""The unified join engine: declarative specs, a cost-model planner, one result.

This package is the single front door to every joining algorithm in the
reproduction.  A :class:`JoinSpec` declares *what* to join, the
:class:`Planner` decides *how* (``algorithm="auto"`` picks the cheapest
pipeline by predicted simulated cost, the way a query optimizer picks a
plan), the :class:`SimilarityEngine` session executes plans on its cluster
and backend, and every path returns the same :class:`JoinResult`.
"""

from repro.engine.calibration import CalibrationProfile
from repro.engine.engine import SimilarityEngine, join
from repro.engine.planner import (
    CorpusProfile,
    JoinPlan,
    PlanCandidate,
    Planner,
)
from repro.engine.result import JoinResult
from repro.engine.spec import (
    AUTO,
    ENGINE_ALGORITHMS,
    PLANNABLE_ALGORITHMS,
    SEQUENTIAL_ALGORITHMS,
    JoinSpec,
    available_algorithms,
)

__all__ = [
    "AUTO",
    "CalibrationProfile",
    "CorpusProfile",
    "ENGINE_ALGORITHMS",
    "JoinPlan",
    "JoinResult",
    "JoinSpec",
    "PLANNABLE_ALGORITHMS",
    "PlanCandidate",
    "Planner",
    "SEQUENTIAL_ALGORITHMS",
    "SimilarityEngine",
    "available_algorithms",
    "join",
]
