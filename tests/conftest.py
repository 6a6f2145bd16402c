"""Helpers that the test modules share."""

import os
import subprocess

# this checkout's package directory, which tier-1 puts on PYTHONPATH
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_fresh(argv, src=True, cpu=None, **overrides):
    """Run argv in a fresh process and return its CompletedProcess (text).

    The child has this checkout's src first on PYTHONPATH, or kept off it
    where src is False, and the environment variables in overrides set (or
    unset where None).  Where cpu is given, the child alone is pinned to that
    CPU, as `taskset -c` pins a command."""
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and os.path.abspath(p) != SRC]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, *path] if src else path) or None)
    env.update(overrides)
    env = {k: v for k, v in env.items() if v is not None}
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env, preexec_fn=pin)
