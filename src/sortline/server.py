"""Line-protocol TCP server for driving environments from other processes.

Each connection is an isolated session holding at most one environment.
Messages are JSON objects, one per line, and every request gets exactly one
response.

Requests:
    {"type": "hello"}
    {"type": "reset", "seed": 42, "config": {"obs_noise_level": 0.3}}
    {"type": "step", "action": {"speed": 5, "mode": "positive"}}
    {"type": "close"}

``seed`` and ``config`` are optional on reset; config keys are EnvConfig field
names, matched verbatim, and ``seed`` is one more override that wins over
``config.seed``.  ``mode`` is required exactly when the variant is advanced.

Responses:
    {"type": "spec", ...}    for hello: variant, action space, observation
                             fields, episode length
    {"type": "state", ...}   for reset/step: observation, reward (null on
                             reset), done flag, info record
    {"type": "error", "code": ..., "message": ...}
    {"type": "bye"}          acknowledges close; the server then drops the
                             connection

Error codes: BAD_REQUEST (malformed, non-UTF-8 or too deeply nested line, a
line longer than 64 KiB, or unknown type), BAD_CONFIG (``config`` not an
object or null, unknown key, a value that is malformed, non-finite or out of
range, an integer field such as ``seed`` given a non-integral number, or a
noise level, change penalty or reward weight above 1e6), BAD_ACTION (a bad
speed or ``mode``, even after the episode's end), NO_EPISODE (step before any
reset), EPISODE_DONE, INTERNAL (a server fault or a non-finite response; the
traceback goes to stderr).  Errors leave the session usable.
"""

from __future__ import annotations

import json
import signal
import socket
import socketserver
import threading
from typing import Any

from .config import ConfigError, EnvConfig, config_from_mapping
from .env import EpisodeDoneError, SortingLineEnv
from .types import MODES, SPEED_INDICES, Action, Observation, SortingMode, action_count

PROTOCOL_VERSION = 1
# Longest request line read, newline included; a longer one gets BAD_REQUEST.
MAX_LINE_BYTES = 64 * 1024
# json.dumps with these keywords builds an encoder per call; threads share this one: encode keeps no state.
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _spec_payload(config: EnvConfig) -> dict[str, Any]:
    # A variant whose actions carry a mode also shows the ratio category.
    modes = [m.value for m in MODES[config.variant] if m is not None]
    return {
        "type": "spec",
        "protocol": PROTOCOL_VERSION,
        "variant": config.variant.value,
        "action_count": action_count(config.variant),
        "speeds": list(SPEED_INDICES),
        "modes": modes or None,
        "observation_fields": ["input_total", "ratio_category"] if modes else ["input_total"],
        "episode_length": config.episode_length,
    }


def _obs_payload(obs: Observation) -> dict[str, Any]:
    payload: dict[str, Any] = {"input_total": obs.input_total}
    if obs.ratio_category is not None:
        payload["ratio_category"] = obs.ratio_category.value
    return payload


def _state_payload(obs: Observation, reward: float | None, done: bool, info: dict[str, Any]) -> dict[str, Any]:
    """The reply to reset or step; the arguments are a ``StepResult``'s fields."""
    return {"type": "state", "observation": _obs_payload(obs), "reward": reward, "done": done, "info": info}


def _error(code: str, message: str) -> dict[str, Any]:
    return {"type": "error", "code": code, "message": message}


def _action_from_payload(payload: Any) -> Action:
    if not isinstance(payload, dict) or "speed" not in payload:
        raise ValueError("action must be an object with a 'speed' key")
    mode = payload.get("mode")
    return Action(payload["speed"], SortingMode.from_name(mode) if mode is not None else None)


class Session:
    """Protocol state machine for one connection; socket-free for testability."""

    def __init__(self, base_config: EnvConfig):
        self.base_config = base_config
        self.env: SortingLineEnv | None = None

    def handle(self, request: Any) -> tuple[dict[str, Any], bool]:
        """Map one decoded request to (response, close-connection flag)."""
        if not isinstance(request, dict) or not isinstance(request.get("type"), str):
            return _error("BAD_REQUEST", "request must be an object with a 'type' field"), False
        kind = request["type"]
        if kind == "hello":
            return _spec_payload(self.env.config if self.env else self.base_config), False
        if kind == "close":
            return {"type": "bye"}, True
        if kind == "reset":
            return self._reset(request), False
        if kind == "step":
            return self._step(request), False
        return _error("BAD_REQUEST", f"unknown request type {kind!r}"), False

    def _reset(self, request: dict[str, Any]) -> dict[str, Any]:
        overrides = request.get("config")
        if overrides is not None and not isinstance(overrides, dict):
            return _error("BAD_CONFIG", "config must be an object")
        if request.get("seed") is not None:
            overrides = {**(overrides or {}), "seed": request["seed"]}
        try:
            config = config_from_mapping(overrides or {}, base=self.base_config)
            env = SortingLineEnv(config)
            obs = env.reset()
        except ConfigError as exc:
            return _error("BAD_CONFIG", str(exc))
        self.env = env
        return _state_payload(obs, None, False, {})

    def _step(self, request: dict[str, Any]) -> dict[str, Any]:
        if self.env is None:
            return _error("NO_EPISODE", "reset before stepping")
        try:
            action = _action_from_payload(request.get("action"))
            obs, reward, done, info = self.env.step(action)
        except EpisodeDoneError as exc:
            return _error("EPISODE_DONE", str(exc))
        except ValueError as exc:
            return _error("BAD_ACTION", str(exc))
        return _state_payload(obs, reward, done, info)


def _encode(response: dict[str, Any]) -> bytes:
    """One response line of strict JSON: a NaN or infinity raises ValueError."""
    return (_ENCODER.encode(response) + "\n").encode("utf-8")


class _SessionHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        session = Session(self.server.base_config)
        while raw := self.rfile.readline(MAX_LINE_BYTES):
            if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
                while raw and not raw.endswith(b"\n"):  # discard the rest of the line
                    raw = self.rfile.readline(MAX_LINE_BYTES)
                self.wfile.write(_encode(_error("BAD_REQUEST", f"line longer than {MAX_LINE_BYTES} bytes")))
                continue
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            # ValueError covers JSONDecodeError and UnicodeDecodeError.
            except (ValueError, RecursionError) as exc:
                self.wfile.write(_encode(_error("BAD_REQUEST", f"bad JSON: {exc}")))
                continue
            try:
                response, close = session.handle(request)
                reply = _encode(response)
            except Exception:  # a fault of the server, not of the request
                self.server.handle_error(self.request, self.client_address)  # prints the traceback
                reply, close = _encode(_error("INTERNAL", "the server failed on this request")), False
            self.wfile.write(reply)
            if close:
                break


class EnvServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server; pass port 0 to bind an ephemeral port."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], config: EnvConfig):
        self.base_config = config
        super().__init__(address, _SessionHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve(config: EnvConfig, host: str, port: int) -> None:
    """Run a server until SIGINT/SIGTERM, then shut down cleanly."""
    with EnvServer((host, port), config) as server:
        def stop(_signum, _frame):
            threading.Thread(target=server.shutdown).start()

        signal.signal(signal.SIGINT, stop)
        signal.signal(signal.SIGTERM, stop)
        print(f"serving {config.variant.value} environment on {host}:{server.port}")
        server.serve_forever()


class EnvClient:
    """Small blocking client, used by the tests and handy for scripting.
    ``step`` takes an ``Action``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        self._file.write((json.dumps(payload) + "\n").encode("utf-8"))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def hello(self) -> dict[str, Any]:
        return self.request({"type": "hello"})

    def reset(self, seed: int | None = None, config: dict[str, Any] | None = None) -> dict[str, Any]:
        payload: dict[str, Any] = {"type": "reset"}
        if seed is not None:
            payload["seed"] = seed
        if config:
            payload["config"] = config
        return self.request(payload)

    def step(self, action: Action) -> dict[str, Any]:
        encoded: dict[str, Any] = {"speed": action.speed_index}
        if action.mode is not None:
            encoded["mode"] = action.mode.value
        return self.request({"type": "step", "action": encoded})

    def close(self) -> None:
        try:
            self.request({"type": "close"})
        except (ConnectionError, OSError):
            pass
        finally:
            self._file.close()
            self._sock.close()

    def __enter__(self) -> "EnvClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
