"""Helpers shared by the test modules."""

from sortline import env
from sortline.rng import make_stream


def record_streams(monkeypatch):
    """Patch ``env.make_stream`` to append each stream it makes, with its label, to the returned list."""
    opened = []

    def recording_make_stream(root, label):
        opened.append((label, make_stream(root, label)))
        return opened[-1][1]

    monkeypatch.setattr(env, "make_stream", recording_make_stream)
    return opened
