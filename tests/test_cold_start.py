"""What a fresh ``repro`` process imports.

scipy (for one function, the normal cdf) and networkx (to list FK edges)
were most of a cold start's time and memory.  No scipy module and no
networkx may be imported by ``import repro.cli``, nor by a generate run
that samples join paths and runs Bayesian optimization.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

SCRIPT = r"""
import json, sys
def heavy():
    return sorted(
        name for name in sys.modules
        if name in ("scipy", "networkx") or name.startswith(("scipy.", "networkx."))
    )
loaded = {}
import repro.cli
loaded["import"] = heavy()
from collections import Counter
import repro.bo.optimizer as optimizer
import repro.core.template_generator as generator
from repro.core import BarberConfig, SQLBarber
from repro.fuzz import build_fuzz_database
from repro.workload import CostDistribution, TemplateSpec
calls = Counter()
def counted(module, name):
    original = getattr(module, name)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    setattr(module, name, wrapper)
counted(optimizer, "expected_improvement")
counted(generator, "sample_join_path")
barber = SQLBarber(build_fuzz_database(0), config=BarberConfig(seed=0))
result = barber.generate_workload(
    [TemplateSpec(spec_id="join", num_joins=1)],
    CostDistribution.uniform(0.0, 2000.0, 6, 2),
)
loaded["generate"] = heavy()
loaded["queries"] = len(result.workload.queries)
loaded["calls"] = calls
print(json.dumps(loaded))
"""


def test_no_scipy_stats_or_networkx_in_a_fresh_process():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, check=True, timeout=300,
    ).stdout
    loaded = json.loads(out)
    assert loaded["import"] == [] and loaded["generate"] == []
    assert loaded["queries"] > 0
    assert loaded["calls"]["expected_improvement"] > 0
    assert loaded["calls"]["sample_join_path"] > 0
