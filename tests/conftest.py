"""Shared test helpers."""

import os

import fusionaudit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fusionaudit.__file__)))


def cli_env():
    """Environment for a ``python -m fusionaudit`` child process: PYTHONPATH
    starts with the absolute src directory, so the child imports this
    checkout's package from any working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env
