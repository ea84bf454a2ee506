#!/usr/bin/env python3
"""Walk a pair of images through the fusion architecture and show the
shape contract plus the structural reductions that pin down its wiring.

Channel plan: encoder 1 -> 16 -> 64 (dense chain 16/32/48 -> 16, then a
1x1 conv to 64, residual skips tiled 4x), decoder 64 -> 64 -> 32 -> 16
-> 1 with a 1 -> 64 feedback projection unrolled four times.
"""

import numpy as np

from ivfuse.network import (FeedbackConfig, decode, encode, fuse_add,
                            fuse_images, init_params)
from ivfuse.tensor import Tensor, conv2d

rng = np.random.default_rng(1)
params = init_params(seed=1, dtype=np.float64)

img = Tensor(rng.uniform(0, 1, (1, 1, 32, 32)))
features = encode(img, params)
print("encode:", img.shape, "->", features.shape)

other = Tensor(rng.uniform(0, 1, (1, 1, 32, 32)))
fused_features = fuse_add(features, encode(other, params))
print("fuse_add:", fused_features.shape)

out = decode(fused_features, params, FeedbackConfig(4))
print("decode (4 feedback iterations):", out.shape)

# Reduction 1: one iteration is the plain four-conv decoder.
one = decode(fused_features, params, FeedbackConfig(1))
print("n_iterations=1 equals a plain pass:", one.shape == out.shape)

# Reduction 2: zeroing the feedback conv makes the iterations a no-op.
params.tensors["decoder.c6.weight"].data[...] = 0.0
params.tensors["decoder.c6.bias"].data[...] = 0.0
no_fb = decode(fused_features, params, FeedbackConfig(4))
one_fb = decode(fused_features, params, FeedbackConfig(1))
print("zeroed feedback conv is a no-op (bitwise):",
      np.array_equal(no_fb.data, one_fb.data))

# Reduction 3: zeroing the dense block leaves only the skips, local and
# global: twice the rough features, tiled over the four channel groups.
zeroed = init_params(seed=2, dtype=np.float64)
for name, t in zeroed.tensors.items():
    if "rdb" in name:
        t.data[...] = 0.0
rough = conv2d(img, zeroed.weight("encoder.c1"), zeroed.bias("encoder.c1"),
               relu=True)
print("zeroed dense block reduces to the tiled skips (bitwise):",
      np.array_equal(encode(img, zeroed).data,
                     np.tile(2 * rough.data, (1, 4, 1, 1))))

# Tied weights + addition fusion make the whole pipeline symmetric.
params = init_params(seed=3)
a = rng.uniform(0, 1, (16, 16))
b = rng.uniform(0, 1, (16, 16))
print("fuse_images(A, B) == fuse_images(B, A) bitwise:",
      np.array_equal(fuse_images(a, b, params), fuse_images(b, a, params)))
