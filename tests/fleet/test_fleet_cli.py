"""``repro fleet`` as a process: its flags, and SIGTERM while it boots.

Workers run in sessions of their own, so they outlive a front-end that
dies without stopping them. A SIGTERM that reaches ``repro fleet``
while its workers are still booting must stop every one of them.
"""

#: Put on the workers' ``PYTHONPATH``, this stalls every ``repro serve``
#: process before it imports anything, so the fleet is still booting
#: (no worker healthy) whenever the test's SIGTERM lands.
STALL_SERVE = """\
import sys, time
if "serve" in sys.orig_argv:
    time.sleep(120)
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser
from repro.fleet.supervisor import _worker_env


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestFleetFlags:
    @pytest.mark.parametrize("flag", ["--replication", "--vnodes"])
    def test_ring_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", flag, "2"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBootSigterm:
    def test_sigterm_while_booting_stops_every_worker(self, tmp_path):
        stall = tmp_path / "stall"
        stall.mkdir()
        (stall / "sitecustomize.py").write_text(STALL_SERVE)
        env = _worker_env()
        env["PYTHONPATH"] += os.pathsep + str(stall)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--log-level", "INFO",
             "fleet", "--workers", "2", "--port", "0",
             "--cache-dir", str(tmp_path / "zoo")],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        pids = []
        try:
            for line in proc.stderr:
                match = re.search(r"spawned worker w\d+ \(pid (\d+)\)", line)
                if match:
                    pids.append(int(match.group(1)))
                if len(pids) == 2:
                    break
            assert len(pids) == 2, "the fleet never spawned its workers"
            # The workers are stalled: nothing is healthy yet.
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=60)
            assert "boot cancelled; stopping workers" in err, err
            deadline = time.monotonic() + 5.0
            while any(map(alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if alive(pid)], err
            assert proc.returncode == 0, err
        finally:
            for pid in pids:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
