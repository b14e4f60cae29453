"""Former home of the runnable split pipeline (moved to ``repro.serve``).

Declare a deployment with the declarative API::

    repro.deploy(repro.DeploymentSpec(...))   # full lifecycle
    Deployment.infer / .stream / .submit      # the three serving surfaces

Code that really needs the execution layer directly imports it from its
real home, :mod:`repro.serve.runtime`.  The pure data types
(:class:`InferenceTrace`, :class:`ThroughputReport`,
:class:`SimulatedLink`) are still re-exported here: they carry no
resources — only their implementation moved.
"""

from __future__ import annotations

from ..serve.runtime import InferenceTrace, SimulatedLink, ThroughputReport

__all__ = [
    "InferenceTrace",
    "SimulatedLink",
    "ThroughputReport",
]
