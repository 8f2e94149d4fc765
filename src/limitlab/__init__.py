"""limitlab: exact moments, multiple-sum asymptotics and Monte Carlo
cross-checks for sums of Markov-dependent Bernoulli indicators."""

from .kernels import (
    OffspringSchedule,
    RhoKernel,
    ScaleSpec,
    kernel_branching,
    kernel_power,
    kernel_scale,
)
from .moments import (
    MomentTable,
    composition_coefficient,
    count_moment_curve,
)
from .multisum import (
    WeightSequence,
    phi,
    phi_curve,
    psi_curve,
    u_sum,
    u_sum_curve,
)
from .simulate import ReplicateBatch, sim_bpve, sim_gw, sim_levelwalk
from .special import (
    TailSum,
    iterated_log,
    lambda_weight,
    script_O,
    zeta_tail,
)
from .stats import LimitLaw, tv_distance_integer

__version__ = "0.1.0"
