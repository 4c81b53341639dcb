"""The set-up-time and peak-memory readers, against a dummy child."""

import os

import common

DUMMY = """
import json, sys, time
time.sleep(0.3)
print(json.dumps({"event": "ready"}), flush=True)
ballast = bytearray(64 * 1024 * 1024)
ballast[::4096] = b"x" * len(ballast[::4096])
print(json.dumps({"event": "grown"}), flush=True)
sys.stdin.readline()
"""


def test_setup_time_and_peak_rss_of_a_child():
    child = common.Child(["-c", DUMMY])
    try:
        message, setup_s = child.read_ready(timeout=60)
        assert message == {"event": "ready"}
        assert 0.3 <= setup_s < 30
        assert child.read_message(timeout=60) == {"event": "grown"}
        assert child.peak_rss_mb() >= 64
    finally:
        code = child.release()
    assert code == 0


def test_children_get_pinned_thread_pools():
    child = common.Child(["-c", "import json, os; print(json.dumps(dict(os.environ)))"])
    try:
        environment = child.read_message(timeout=60)
    finally:
        child.release()
    for name, value in common.PINNED_THREAD_ENV.items():
        assert environment[name] == value


def test_vm_hwm_of_this_process_is_positive():
    assert common.read_vm_hwm_mb(os.getpid()) > 0
