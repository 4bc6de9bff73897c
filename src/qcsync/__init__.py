"""Entangled-photon clock synchronization: simulation and estimation toolkit.

Femtosecond-integer timestamps end to end: clock models and correction
bookkeeping (timebase), photon-pair generation and detection (photonics),
free-space link geometry and relativistic delays (linkmodel), the
coarse-to-fine correlation estimator and two-way combination (estimator),
CHSH-based link authentication (bellauth), multi-node network sync
(netsync), a timetag file format plus CLI (tagfiles, cli), and the
declarations that bound every config field (fields).

The package re-exports each module's __all__, and its own __all__ is their
union.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import bellauth, estimator, fields, linkmodel, netsync, photonics, scenario, seeding, session, tagfiles, timebase
from .bellauth import *  # noqa: F403
from .estimator import *  # noqa: F403
from .fields import *  # noqa: F403
from .linkmodel import *  # noqa: F403
from .netsync import *  # noqa: F403
from .photonics import *  # noqa: F403
from .scenario import *  # noqa: F403
from .seeding import *  # noqa: F403
from .session import *  # noqa: F403
from .tagfiles import *  # noqa: F403
from .timebase import *  # noqa: F403

_MODULES = (bellauth, estimator, fields, linkmodel, netsync, photonics, scenario, seeding, session, tagfiles, timebase)
__all__ = sorted({name for module in _MODULES for name in module.__all__})
