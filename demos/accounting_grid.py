"""Parameter and operation accounting, analytically and by instrumentation."""

import json

import numpy as np

from crmn.analysis import config_for, cost_report, default_grid, render_table
from crmn.model import build_crmn
from crmn.tensor import Tensor, count_ops

# The reference grid. Same table as `crmn analyze --table`.
print(render_table(default_grid()))
print()

# One cell in detail, as the CLI would emit it.
report = cost_report("crmn", config_for(32, 4))
print(json.dumps(report.as_json(), indent=2))
print()

# The memory path costs the same number of parameters at any depth: grow
# the trunk and the difference to a plain residual network stays put.
for layers in (20, 32, 50):
    crmn = cost_report("crmn", config_for(layers, 1)).params_total
    plain = cost_report("resnet", config_for(layers, 1)).params_total
    print(f"{layers:3d} layers: memory path adds {crmn - plain:,} parameters")
print()

# The closed-form operation counts match an instrumented forward pass
# exactly; the tests pin this on every component.
cfg = config_for(8, 0.25, hidden=5, classes=3)
model = build_crmn(cfg, seed=0)
x = Tensor(np.random.default_rng(0).random((1, 3, 32, 32), dtype=np.float32))
with count_ops() as measured:
    model.forward(x, training=False)
estimate = cost_report("crmn", cfg, batch=1)
print("measured:", measured.total, " estimated:", estimate.flops["total"])
