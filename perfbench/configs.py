"""The acceptance configurations the workloads run (tests/test_acceptance.py).

The cohort seed comes from ``--seed``; the training seed stays 0, so the
decision times each batch draws, and with them the work per epoch, are the
same for every workload seed.
"""

from obsnode.model import ObsNodeConfig
from obsnode.odeint import IntegrationConfig
from obsnode.simulate import CancerSimConfig, SemiSynthConfig
from obsnode.train import TrainConfig

CANCER_SIM = dict(n_patients=300, n_cycles=12, dt=0.25, gamma=4.0, obs_every=6.0)
SEMI_SIM = dict(n_patients=300)

CANCER_MODEL = ObsNodeConfig(d_y=2, m=2, d_a=2, phi_hidden_dim=48, phi_layers=2,
                             encoder_hidden_dim=48, treatment_scale=(14.0, 3.0))
CANCER_TRAIN = TrainConfig(batch_size=25, learning_rate=1e-3, epochs=1,
                           decision_time_grid=[30.0 * k for k in range(1, 12)],
                           t_f=360.0, seed=0, int_step=3.0, max_grad_norm=1.0,
                           val_decision_times=[90.0, 150.0, 240.0])
CANCER_INT = IntegrationConfig(step_size=3.0)
CANCER_TC_GRID = [30.0 * k for k in range(1, 12)]
CANCER_HORIZONS = [30.0 * k for k in range(1, 7)]

SEMI_MODEL = ObsNodeConfig(d_y=2, m=2, d_a=2, phi_hidden_dim=64, phi_layers=2,
                           encoder_hidden_dim=64)
SEMI_TRAIN = TrainConfig(batch_size=25, learning_rate=1e-3, epochs=5,
                         decision_time_grid=[1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0,
                                             5.0, 6.0, 8.0, 12.0, 20.0, 32.0],
                         t_f=72.0, seed=0, int_step=0.5, max_grad_norm=1.0,
                         max_horizon=3.0, val_decision_times=[1.0])

SIM_UNITS = {"cancer": CANCER_SIM["n_patients"], "semi": SEMI_SIM["n_patients"]}
N_IDENTIFY = 200


def cancer_sim(seed):
    return CancerSimConfig(**CANCER_SIM, seed=seed)


def semi_sim(seed):
    return SemiSynthConfig(**SEMI_SIM, seed=seed)
