"""Wire protocol: session state machine, TCP transport, client equivalence."""

import json
import math
import socket
import threading

import pytest

from sortline.agents import RuleBasedAgent
from sortline.bench import run_episode
from sortline.config import EnvConfig
from sortline.env import SortingLineEnv, StepResult
from sortline.server import MAX_LINE_BYTES, EnvClient, EnvServer, Session, _encode
from sortline.types import Action, EnvVariant, Observation, SortingMode


class TestSession:
    def test_hello_describes_the_basic_action_space(self):
        spec, close = Session(EnvConfig()).handle({"type": "hello"})
        assert close is False
        assert spec["type"] == "spec"
        assert spec["protocol"] == 1
        assert spec["variant"] == "basic"
        assert spec["action_count"] == 10
        assert spec["speeds"] == list(range(1, 11))
        assert spec["modes"] is None
        assert spec["observation_fields"] == ["input_total"]

    def test_hello_describes_the_advanced_action_space(self):
        spec, _ = Session(EnvConfig(variant=EnvVariant.ADVANCED)).handle({"type": "hello"})
        assert spec["action_count"] == 30
        assert spec["modes"] == ["basic", "positive", "negative"]
        assert spec["observation_fields"] == ["input_total", "ratio_category"]

    def test_reset_opens_an_episode(self):
        session = Session(EnvConfig())
        response, close = session.handle({"type": "reset", "seed": 42})
        assert close is False
        assert response["type"] == "state"
        assert response["reward"] is None
        assert response["done"] is False
        assert response["info"] == {}
        assert 0.0 <= response["observation"]["input_total"] <= 1.0

    def test_reset_accepts_config_overrides(self):
        session = Session(EnvConfig())
        session.handle({"type": "reset", "seed": 1, "config": {"episode_length": 7}})
        spec, _ = session.handle({"type": "hello"})
        assert spec["episode_length"] == 7

    @pytest.mark.parametrize(
        "request_payload",
        [
            {"type": "reset", "seed": 250},
            {"type": "reset", "seed": 250.0},
            {"type": "reset", "seed": "250"},
            {"type": "reset", "seed": 250, "config": {"seed": 7}},
        ],
    )
    def test_top_level_seed_is_a_config_override(self, request_payload):
        def replies(request):
            session = Session(EnvConfig())
            return [session.handle(request)[0], session.handle({"type": "step", "action": {"speed": 3}})[0]]

        assert replies(request_payload) == replies({"type": "reset", "config": {"seed": 250}})

    def test_an_integral_float_sets_an_integer_field(self):
        session = Session(EnvConfig())
        response, _ = session.handle({"type": "reset", "config": {"episode_length": 250.0}})
        assert response["type"] == "state"
        assert session.handle({"type": "hello"})[0]["episode_length"] == 250

    def test_config_keys_are_matched_verbatim(self):
        response, _ = Session(EnvConfig()).handle({"type": "reset", "config": {"seed": 1, " seed": 2}})
        assert response["code"] == "BAD_CONFIG"
        assert "' seed'" in response["message"]

    def test_null_config_means_no_overrides(self):
        response, _ = Session(EnvConfig()).handle({"type": "reset", "seed": 42, "config": None})
        assert response == Session(EnvConfig()).handle({"type": "reset", "seed": 42})[0]

    def test_step_matches_a_direct_environment(self):
        session = Session(EnvConfig())
        session.handle({"type": "reset", "seed": 42})
        config = EnvConfig()
        trace, _ = run_episode(config, RuleBasedAgent(config), steps=50, seed=42)
        agent = RuleBasedAgent(config)
        obs_payload = session.handle({"type": "reset", "seed": 42})[0]["observation"]
        for row in trace.rows:
            action = agent.act(Observation(obs_payload["input_total"]))
            response, _ = session.handle(
                {"type": "step", "action": {"speed": action.speed_index}}
            )
            assert response["reward"] == row.reward
            assert response["info"]["accuracy"] == row.accuracy
            assert response["info"]["purity"] == row.purity
            obs_payload = response["observation"]
        assert response["done"] is True

    def test_step_before_reset(self):
        response, _ = Session(EnvConfig()).handle({"type": "step", "action": {"speed": 1}})
        assert response == {
            "type": "error",
            "code": "NO_EPISODE",
            "message": "reset before stepping",
        }

    def test_finished_episode_reports_done(self):
        session = Session(EnvConfig())
        session.handle({"type": "reset", "seed": 1, "config": {"episode_length": 2}})
        assert session.handle({"type": "step", "action": {"speed": 1}})[0]["done"] is False
        assert session.handle({"type": "step", "action": {"speed": 1}})[0]["done"] is True
        response, _ = session.handle({"type": "step", "action": {"speed": 1}})
        assert response["code"] == "EPISODE_DONE"

    def test_a_bad_speed_is_refused_before_the_end_check(self):
        """Every bad action is BAD_ACTION, before or after the episode's end:
        a bad speed, a bad mode name and a mode the variant does not take.
        Only a valid action after the last step is EPISODE_DONE."""
        session = Session(EnvConfig())
        session.handle({"type": "reset", "seed": 1, "config": {"episode_length": 2}})
        bad_speed = {"type": "step", "action": {"speed": True}}
        refused = {"type": "error", "code": "BAD_ACTION", "message": "speed index must be an int in 1..10, got True"}
        assert session.handle(bad_speed) == (refused, False)
        for _ in range(2):
            assert session.handle({"type": "step", "action": {"speed": 1}})[0]["type"] == "state"
        assert session.handle(bad_speed) == (refused, False)
        for action in ({"speed": 5, "mode": "sideways"}, {"speed": 5, "mode": "positive"}):
            response, _ = session.handle({"type": "step", "action": action})
            assert response["code"] == "BAD_ACTION"
        response, _ = session.handle({"type": "step", "action": {"speed": 1}})
        assert response["code"] == "EPISODE_DONE"

    @pytest.mark.parametrize(
        "variant, action, message",
        [
            (EnvVariant.BASIC, {"speed": 5, "mode": "positive"}, "basic variant takes mode none, got positive"),
            (EnvVariant.ADVANCED, {"speed": 5}, "advanced variant takes mode basic|positive|negative, got none"),
        ],
    )
    def test_a_refused_mode_is_named_as_the_protocol_spells_it(self, variant, action, message):
        session = Session(EnvConfig(variant=variant))
        session.handle({"type": "reset", "seed": 1})
        response, _ = session.handle({"type": "step", "action": action})
        assert response == {"type": "error", "code": "BAD_ACTION", "message": message}

    @pytest.mark.parametrize(
        "action",
        [
            {"speed": 11},
            {"speed": 0},
            {"speed": "5"},
            {"speed": True},
            {"mode": "positive"},
            {"speed": 5, "mode": "positive"},  # basic variant takes no mode
            {"speed": 5, "mode": "sideways"},
            "run",
            None,
            {"speed": 5, "mode": 5},
            {"speed": 5.0},
        ],
    )
    def test_bad_actions(self, action):
        session = Session(EnvConfig())
        session.handle({"type": "reset", "seed": 1})
        response, _ = session.handle({"type": "step", "action": action})
        assert response["code"] == "BAD_ACTION"

    def test_advanced_step_requires_a_mode(self):
        session = Session(EnvConfig(variant=EnvVariant.ADVANCED))
        session.handle({"type": "reset", "seed": 1})
        response, _ = session.handle({"type": "step", "action": {"speed": 5}})
        assert response["code"] == "BAD_ACTION"
        response, _ = session.handle(
            {"type": "step", "action": {"speed": 5, "mode": "negative"}}
        )
        assert response["type"] == "state"

    @pytest.mark.parametrize(
        "request_payload",
        [
            {"type": "reset", "config": {"threshold": 2.0}},
            {"type": "reset", "config": {"no_such_field": 1}},
            {"type": "reset", "config": "fast"},
            {"type": "reset", "seed": "forty-two"},
            {"type": "reset", "seed": True},
            {"type": "reset", "config": []},
            {"type": "reset", "config": {"episode_length": float("inf")}},
            {"type": "reset", "config": {"r_acc": float("nan")}},
            {"type": "reset", "config": {"r_acc": 1.7e308, "r_speed": 1.7e308}},
            {"type": "reset", "config": {"action_penalty": 1e308}},
            {"type": "reset", "config": {"r_acc": 1e200, "r_speed": 1e200}},
            {"type": "reset", "config": {"episode_length": 1.5}},
            {"type": "reset", "config": {"seed": True}},
            {"type": "reset", "config": {"action_penalty": False}},
            {"type": "reset", "seed": 1.5},
            {"type": "reset", "config": {"obs_noise_level": 1e308}},
        ],
    )
    def test_bad_configs(self, request_payload):
        response, _ = Session(EnvConfig()).handle(request_payload)
        assert response["code"] == "BAD_CONFIG"

    def test_bad_requests(self):
        session = Session(EnvConfig())
        for request in (42, ["reset"], {}, {"type": 7}, {"type": "dance"}):
            response, close = session.handle(request)
            assert response["code"] == "BAD_REQUEST"
            assert close is False

    def test_errors_leave_the_session_usable(self):
        session = Session(EnvConfig())
        session.handle({"type": "reset", "seed": 3})
        session.handle({"type": "step", "action": {"speed": 99}})
        response, _ = session.handle({"type": "step", "action": {"speed": 4}})
        assert response["type"] == "state"

    def test_failed_reset_preserves_the_running_episode(self):
        session = Session(EnvConfig())
        session.handle({"type": "reset", "seed": 3, "config": {"episode_length": 9}})
        session.handle({"type": "reset", "config": {"threshold": 9.0}})
        spec, _ = session.handle({"type": "hello"})
        assert spec["episode_length"] == 9
        assert session.handle({"type": "step", "action": {"speed": 2}})[0]["type"] == "state"

    def test_close(self):
        response, close = Session(EnvConfig()).handle({"type": "close"})
        assert response == {"type": "bye"}
        assert close is True


def test_encode_gives_the_bytes_of_json_dumps_and_refuses_nan():
    session = Session(EnvConfig(variant=EnvVariant.ADVANCED))
    session.handle({"type": "reset", "seed": 5})
    state, _ = session.handle({"type": "step", "action": {"speed": 6, "mode": "negative"}})
    error, _ = session.handle({"type": "step", "action": {"speed": 99, "mode": "basic"}})
    assert state["type"] == "state" and error["code"] == "BAD_ACTION"
    for response in (state, error):
        assert _encode(response) == (json.dumps(response, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")
    with pytest.raises(ValueError):
        _encode({**state, "reward": math.nan})


@pytest.fixture(scope="module")
def server():
    srv = EnvServer(("127.0.0.1", 0), EnvConfig())
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def raw_exchange(port, lines):
    """Send raw bytes lines and collect one response line per payload line."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        stream = sock.makefile("rwb")
        responses = []
        for line in lines:
            stream.write(line + b"\n")
            stream.flush()
            responses.append(stream.readline())
        return responses


class TestWireTransport:
    def test_hello_over_tcp(self, server):
        with EnvClient("127.0.0.1", server.port) as client:
            spec = client.hello()
        assert spec["type"] == "spec"
        assert spec["action_count"] == 10

    def test_full_episode_matches_a_direct_run(self, server):
        config = EnvConfig()
        trace, _ = run_episode(config, RuleBasedAgent(config), steps=50, seed=42)
        agent = RuleBasedAgent(config)
        with EnvClient("127.0.0.1", server.port) as client:
            obs = client.reset(seed=42)["observation"]
            for row in trace.rows:
                action = agent.act(Observation(obs["input_total"]))
                response = client.step(action)
                assert response["reward"] == row.reward
                assert response["info"]["accuracy"] == row.accuracy
                assert response["info"]["occupancy"] == row.occupancy
                assert response["info"]["purity"] == row.purity
                obs = response["observation"]
            assert response["done"] is True

    def test_advanced_actions_serialize_modes(self, server):
        with EnvClient("127.0.0.1", server.port) as client:
            client.reset(seed=5, config={"variant": "advanced"})
            response = client.step(Action(5, SortingMode.POSITIVE))
            assert response["type"] == "state"
            assert response["observation"]["ratio_category"] in ("basic", "positive", "negative")

    def test_sessions_are_isolated(self, server):
        with EnvClient("127.0.0.1", server.port) as left, EnvClient(
            "127.0.0.1", server.port
        ) as right:
            assert left.reset(seed=9) == right.reset(seed=9)
            for _ in range(10):
                assert left.step(Action(4)) == right.step(Action(4))
            left.step(Action(9))  # desynchronize one session
            assert left.step(Action(4)) != right.step(Action(4))

    def test_garbage_lines_do_not_kill_the_session(self, server):
        replies = raw_exchange(
            server.port, [b"this is not json", b'{"type": "hello"}']
        )
        first, second = (json.loads(r) for r in replies)
        assert first["code"] == "BAD_REQUEST"
        assert second["type"] == "spec"

    @pytest.mark.parametrize(
        "line",
        [b"\xff", b"[" * 100_000, b'{"type": ' + b" " * MAX_LINE_BYTES + b'"hello"}', b"[" * 10_000],
        ids=["non-utf8", "deep-nesting", "over-long", "deep-nesting-under-the-bound"],
    )
    def test_undecodable_lines_get_a_bad_request(self, server, line):
        replies = raw_exchange(server.port, [line, b'{"type": "hello"}'])
        first, second = (json.loads(r) for r in replies)
        assert first["code"] == "BAD_REQUEST"
        assert second["type"] == "spec"

    @pytest.mark.parametrize("fault", ["raises", "nan-reward"])
    def test_server_faults_get_an_internal_error(self, server, monkeypatch, fault):
        def faulty_step(env, action):
            if fault == "raises":
                raise RuntimeError("injected fault")
            return StepResult(env.observe(), math.nan, False, {})

        monkeypatch.setattr(SortingLineEnv, "step", faulty_step)
        replies = raw_exchange(
            server.port,
            [b'{"type": "reset", "seed": 1}', b'{"type": "step", "action": {"speed": 3}}', b'{"type": "hello"}'],
        )
        reset, step, hello = (json.loads(r) for r in replies)
        assert reset["type"] == "state"
        assert step["type"] == "error" and step["code"] == "INTERNAL"
        assert hello["type"] == "spec"

    def test_blank_lines_get_no_reply(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'\n \t\r\n{"type": "hello"}\n{"type": "close"}\n')
            stream.flush()
            assert json.loads(stream.readline())["type"] == "spec"
            assert json.loads(stream.readline()) == {"type": "bye"}
            assert stream.readline() == b""

    def test_close_ends_the_connection(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"type": "close"}\n')
            stream.flush()
            assert json.loads(stream.readline()) == {"type": "bye"}
            assert stream.readline() == b""
