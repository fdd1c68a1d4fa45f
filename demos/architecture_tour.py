"""
Anatomy of one model
====================

Where the taps come from, what the depth-wise LSTM actually sees, and why
the trunk cannot tell whether the memory path is attached.
"""

import numpy as np

from crmn.analysis import config_for
from crmn.model import adapt_tap, build_crmn, build_resnet, max_lstm_width
from crmn.resnet import block_plan
from crmn.tensor import Tensor

cfg = config_for(layers=14, fm_mult=0.5, hidden=16, classes=10)
print("14 layers -> n =", cfg.n, "blocks per stage, base maps =", cfg.base_maps)
print("block variant:", cfg.resolved_variant, "(auto flips at 64 maps)")

# The plan lists every residual block: stage, stride, map count, extent.
for block in block_plan(cfg):
    print("  ", block)

# Forward pass, keeping the intermediate pieces.
model = build_crmn(cfg, seed=0)
x = Tensor(np.random.default_rng(0).random((2, 3, 32, 32), dtype=np.float32))
logits, parts = model.forward(x, return_parts=True)
print("taps:", len(parts["taps"]), "tensors,",
      [tuple(t.shape) for t in parts["taps"][:3]], "...")
print("pool_out:", parts["pool_out"].shape, " hidden:", parts["hidden"].shape)
print("logits:", logits.shape)

# Each tap is pooled 2x2 and flattened; stages 2 and 3 come up short. The
# LSTM step multiplies only those values' rows of its input weights, and
# the op count charges every step the full stage-1 width.
width = max_lstm_width(cfg)
print("LSTM input width:", width, "=", cfg.base_maps, "maps x 16x16")
for block, tap in zip(block_plan(cfg), parts["taps"]):
    print(f"   block {block.index}: stage {block.stage} "
          f"adapted {adapt_tap(tap).shape[1]}, charged {width}")

# The memory path only reads. Build the same trunk without it and the
# activations match bit for bit.
plain = build_resnet(cfg, seed=0)
_, plain_parts = plain.forward(x, return_parts=True)
same = all(a.data.tobytes() == b.data.tobytes()
           for a, b in zip(parts["taps"], plain_parts["taps"]))
print("taps identical without the LSTM attached:", same)
