"""Set-up time of the in-process workloads, measured in fresh processes.

``measure_setup`` spawns this file ``REPEATS`` times; each child imports
what its workload needs, opens its store and resolves its configs, then
prints ``ready``.  The parent times spawn to ``ready`` -- interpreter
start, imports, store open and config resolution -- and reports every
sample; the workload reports their median.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/setup_probe.py campaign|flowsim-churn SEED WORK_PREFIX
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import List

REPEATS = 5


def measure_setup(ctx, workload: str, repeats: int = REPEATS) -> List[float]:
    samples = []
    for attempt in range(repeats):
        command = [sys.executable, str(ctx.bench / "setup_probe.py"), workload,
                   str(ctx.seed), str(ctx.work / f"setup-{attempt}")]
        started = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ctx.root, env=ctx.env,
                                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"{workload} set-up probe failed (exit {proc.returncode})")
    return samples


def _get_ready(workload: str, seed: int, prefix: str) -> None:
    if workload == "campaign":
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.store import ResultStore

        import wl_campaign

        specs = wl_campaign.round_specs(seed, 0, wl_campaign.FULL_PLAN)
        ExperimentRunner(store=ResultStore(prefix + ".jsonl"))
        for spec in specs.values():
            spec.expand()
    elif workload == "flowsim-churn":
        from repro.flowsim.run import FlowSimConfig, FlowSimulation

        import wl_flowsim

        configs = wl_flowsim.round_configs(seed, 0, wl_flowsim.FULL_PLAN)
        FlowSimulation(FlowSimConfig(**configs["churn"]))
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")


if __name__ == "__main__":
    _get_ready(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", flush=True)
