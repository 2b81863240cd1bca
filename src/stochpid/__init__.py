"""Extended PID/PD design, certification and Monte Carlo validation
for uncertain nonlinear stochastic systems of arbitrary relative degree."""

from . import design, lyapunov, model, plants, simulate, stability
from .design import *  # noqa: F401,F403
from .lyapunov import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .plants import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .stability import *  # noqa: F401,F403

__all__ = [name for module in (design, lyapunov, model, plants, simulate, stability)
           for name in module.__all__]
__version__ = "0.1.0"
