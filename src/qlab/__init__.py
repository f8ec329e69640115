"""qlab: exact q-series laboratory for filtration characters of minimal models.

The package re-exports the names the demos and the README use; everything
else is imported from its module (``qlab.qcore``, ``qlab.supernomial``,
``qlab.pathweights``, ``qlab.vircharacters``, ``qlab.fusionchar``,
``qlab.report``).
"""

from .supernomial import verify_S_recurrences
from .pathweights import (
    ModelParams,
    brute_config_sum_X,
    config_sum_X,
    count_paths,
    delta,
    enumerate_paths,
    make_tau_table,
    verify_Xandf,
)
from .vircharacters import rocha_caridi, verify_rocha2
from .fusionchar import (
    graded_13_char,
    unitary_params,
    verify_pi2pi3,
    verify_pmn,
)

__version__ = "0.1.0"

__all__ = [
    "verify_S_recurrences",
    "ModelParams", "brute_config_sum_X", "config_sum_X", "count_paths",
    "delta", "enumerate_paths", "make_tau_table", "verify_Xandf",
    "rocha_caridi", "verify_rocha2",
    "graded_13_char", "unitary_params", "verify_pi2pi3", "verify_pmn",
]
