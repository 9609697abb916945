"""The training and stepping paths make no star-call (``CALL_FUNCTION_EX``), which CPython 3.11+ cannot run inline."""

import dis
import types

import pytest

from sortline import agents, bench, env, inputs, server, sorting
from sortline.agents import QLearningAgent, RuleBasedAgent
from sortline.types import MaterialMix, validate_action

HOT_PATH = [
    sorting.base_accuracy,
    sorting.apply_mode,
    sorting.deterministic_accuracy,
    sorting.step_reward,
    sorting.clamp01,
    sorting.sort_transfer,
    sorting.purity,
    sorting.classify_ratio,
    sorting.occupancy,
    validate_action,
    MaterialMix.__new__,
    env.open_episode,
    env.price_step,
    env.draw_tape,
    env.SortingLineEnv.step,
    inputs.RandomInputGenerator.draw,
    inputs.SeasonalInputGenerator.draw,
    agents.bin_index,
    agents.epsilon,
    agents.first_max,
    RuleBasedAgent.act,
    QLearningAgent.act,
    QLearningAgent.state_index,
    QLearningAgent.train,
    bench.run_episode,
    server.Session._step,
]


def code_objects(code):
    """``code`` and the code of every function, comprehension and generator nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


@pytest.mark.parametrize("function", HOT_PATH, ids=lambda f: f.__qualname__)
def test_no_star_calls(function):
    star_calls = [
        (code.co_name, instruction.offset)
        for code in code_objects(function.__code__)
        for instruction in dis.get_instructions(code)
        if instruction.opname == "CALL_FUNCTION_EX"
    ]
    assert star_calls == []
