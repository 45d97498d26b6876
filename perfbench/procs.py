"""Processes under test: spawn, find their port, read their memory and CPU
from /proc, and stop every one of them. Also the host's speed and CPU
steal, recorded with every round."""
import os
import re
import signal
import subprocess
import time

import wire

CLK_TCK = os.sysconf("SC_CLK_TCK")
START_TIMEOUT_S = 30.0  # a process under test must answer within this
STOP_TIMEOUT_S = 20.0   # graceful drain before SIGKILL


class Procs:
    """Owns every process a workload starts; stops all of them on exit."""

    def __init__(self, log_dir):
        self.log_dir = log_dir
        self.procs = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc in reversed(self.procs):
            stop(proc)
        self.procs.clear()

    def spawn(self, name, argv, env=None):
        log = open(os.path.join(self.log_dir, name + ".log"), "w")
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env)
        log.close()
        proc.log_path = os.path.join(self.log_dir, name + ".log")
        proc.name = name
        self.procs.append(proc)
        return proc


def wait_port(proc):
    """The TCP port a psaflowd/psaflow-router banner announces."""
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        with open(proc.log_path) as log:
            match = re.search(r"tcp port (\d+)", log.read())
        if match:
            return int(match.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    with open(proc.log_path) as log:
        raise RuntimeError(f"{proc.name} did not start: {log.read()[-2000:]}")


def wait_ping(endpoint):
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        try:
            response, _ = wire.call(endpoint, {"type": "ping"}, timeout=5.0)
            if response.get("ok"):
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"no pong from {endpoint}")
        time.sleep(0.005)


def stop(proc):
    """SIGTERM (graceful drain), then SIGKILL; always reaps the process."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def vm_hwm_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid):
    """User + system CPU a live process has used, all threads included."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def cpu_ticks():
    """(steal, total) jiffies of every CPU of this host, from /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:9]]
    return fields[7], sum(fields)


def host_calibration_ms():
    """Median of five timings of a fixed single-threaded CPU loop, in ms.

    The same loop takes the same time on a steady host, so a round whose
    figure is higher than its neighbours' ran on a slowed host.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return sorted(samples)[2]
