"""Tour of the autograd core: build a taped computation, run backward,
verify a gradient against central finite differences."""

import numpy as np

import engagekit.tensor as T
from engagekit.tensor import Tensor, backward, grad_check

rng = np.random.default_rng(0)

# Tensors wrap numpy arrays; requires_grad marks trainable leaves.
w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
x = T.constant(rng.standard_normal((5, 3)))

# Ops tape themselves as they run: y = gelu(x @ w), loss = sum(y^2).
# T.linear is the one affine op: x @ w (+ bias) over any leading dims.
y = T.gelu(T.linear(x, w))
loss = T.tensor_sum(T.mul(y, y))
print(f"loss = {loss.item():.6f}")

# backward walks the tape once in reverse and fills leaf gradients.
backward(loss)
print("dloss/dw =")
print(w.grad)

# The same gradient, checked against (f(w+h) - f(w-h)) / 2h per coordinate.
err = grad_check(lambda: T.tensor_sum(T.mul(T.gelu(T.linear(x, w)), T.gelu(T.linear(x, w)))),
                 [("w", w)], h=1e-5)
print(f"max relative error vs finite differences: {err:.2e}")

# Gradients accumulate across reuse: d(x^2 + 3x)/dx = 2x + 3.
z = Tensor(np.array([2.0]), requires_grad=True)
backward(T.tensor_sum(T.add(T.mul(z, z), T.scale(z, 3.0))))
print(f"d(z^2 + 3z)/dz at z=2: {z.grad[0]} (expected 7.0)")
