"""Golden fingerprints of the step hot path in all 8 setup x variant cells.

Each cell's digest covers the exported trace bytes of rule-agent episodes on
a few seeds, the ``repr`` of a Q-table (values and visits) trained 4 x 250
steps, and the exported trace of that table's greedy policy.  Any change to a
draw, its order, a formula or the trace format moves a digest.
"""

import hashlib

import pytest

from sortline.agents import QLearningAgent, RuleBasedAgent
from sortline.bench import export_trace, run_episode, standard_setups
from sortline.types import EnvVariant

SEEDS = (1, 2, 3)
TRAIN_EPISODES = 4
TRAIN_STEPS = 250
AGENT_SEED = 7

DIGESTS = {
    "basic-A": "d32d267771ebb94e",
    "basic-B": "4846dddb85a7e7be",
    "basic-C": "1c0fa04a2d4308ce",
    "basic-D": "bfccf059d83f9c36",
    "advanced-A": "0109744e9a1642e8",
    "advanced-B": "8078b7043b3002a7",
    "advanced-C": "5e9ed0ad5c4d22b9",
    "advanced-D": "0ebe5b8d7c13d055",
}

CELLS = [
    (f"{variant.value}-{name}", config)
    for variant in EnvVariant
    for name, config in standard_setups(variant).items()
]


def cell_digest(config, tmp_path) -> str:
    path = tmp_path / "trace.csv"
    h = hashlib.sha256()

    def add_trace(agent, seed):
        trace, _ = run_episode(config, agent, seed=seed)
        export_trace(trace, path)
        h.update(path.read_bytes())

    rba = RuleBasedAgent(config)
    for seed in SEEDS:
        add_trace(rba, seed)
    qtable = QLearningAgent(config.variant, seed=AGENT_SEED).train(config, TRAIN_EPISODES, TRAIN_STEPS)
    h.update(repr(qtable.values.tolist()).encode())
    h.update(repr(qtable.visits.tolist()).encode())
    add_trace(qtable, SEEDS[0])
    return h.hexdigest()[:16]


@pytest.mark.parametrize("label,config", CELLS, ids=[label for label, _ in CELLS])
def test_cell_matches_its_golden_digest(label, config, tmp_path):
    assert cell_digest(config, tmp_path) == DIGESTS[label]
