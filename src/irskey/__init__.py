"""Secret key rate toolkit for surface-assisted multi-antenna probing.

Submodules
----------
channel     spatially correlated channel statistics and sampling
probing     probing designs and the two-way observation model
skr         closed-form, approximate and Monte Carlo key-rate evaluation
baseline    equal-phase water-filling design
neural      location-conditioned probing network and its trainer
experiments sweeps, CSV/plot emission, INI configuration
errors      the exception types behind the CLI's exit codes
cli         command-line interface (not imported here)

The package re-exports each submodule's ``__all__``, the one list of its
public names.
"""

from . import baseline, channel, errors, experiments, neural, probing, skr
from .baseline import *
from .channel import *
from .errors import *
from .experiments import *
from .neural import *
from .probing import *
from .skr import *

__version__ = "0.1.0"

__all__ = [
    *baseline.__all__,
    *channel.__all__,
    *errors.__all__,
    *experiments.__all__,
    *neural.__all__,
    *probing.__all__,
    *skr.__all__,
]
