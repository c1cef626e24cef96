"""A tour of the numeric core: tensors, reverse-mode gradients, the optimizer.

Everything the models do reduces to the handful of operations shown here.
Run it directly; it prints what it computes and checks itself as it goes.
"""

import numpy as np

from seq2label.numerics import (
    RngStream,
    ParameterStore,
    Tensor,
    adam_step,
    clip_gradients,
    finite_difference_check,
    lstm_cell_step,
    add_lstm_params,
    masked_softmax,
    sigmoid,
    tanh,
)

print("== scalars and the tape ==")
# y = tanh(a * b) + a, a scalar graph small enough to differentiate by hand
a = Tensor(0.7, requires_grad=True)
b = Tensor(-1.2, requires_grad=True)
y = tanh(a * b) + a
y.backward()
# dy/da = (1 - tanh(ab)^2) * b + 1
t = np.tanh(0.7 * -1.2)
print(f"y = {y.item():.6f}")
print(f"dy/da = {a.grad.item():.6f}   by hand: {(1 - t * t) * -1.2 + 1:.6f}")
print(f"dy/db = {b.grad.item():.6f}   by hand: {(1 - t * t) * 0.7:.6f}")

print()
print("== the masked softmax that drives decoding ==")
logits = np.array([2.0, 0.5, 1.0, 0.0])
mask = np.array([0.0, -np.inf, 0.0, 0.0])  # class 1 already emitted
probs = masked_softmax(logits, mask)
print(f"probabilities: {np.round(probs, 4)}  (masked entry is exactly {probs[1]})")
# training scores a target in log space: logsumexp of the masked logits minus
# the target's logit, finite even where the probability underflows to 0.0
z = logits + mask
loss = np.log(np.exp(z - z.max()).sum()) + z.max() - z[2]
print(f"cross-entropy on class 2: {loss:.6f} = -log p[2] = {-np.log(probs[2]):.6f}")
assert np.isclose(loss, -np.log(probs[2]), rtol=1e-12)

print()
print("== an LSTM cell stepped by hand ==")
store = ParameterStore()
rng = RngStream(0)
add_lstm_params(store, "cell", input_dim=3, hidden=4, rng=rng)
h = Tensor(np.zeros(4))
c = Tensor(np.zeros(4))
for step, x in enumerate([Tensor(np.ones(3)), Tensor(-np.ones(3))]):
    h, c = lstm_cell_step(x, (h, c), store["cell.wx"], store["cell.wh"], store["cell.b"])
    print(f"step {step}: h = {np.round(h.data, 4)}")

print()
print("== gradients verified against central differences ==")
store2 = ParameterStore()
rng2 = RngStream(1)
w = store2.add("w", (4, 3), rng2)
v = store2.add("v", (4,), rng2)


def small_loss():
    # sum of sigmoid(W x) weighted by v, a smooth nonlinear composite
    x = Tensor(np.array([0.3, -0.7, 1.1]))
    return (sigmoid(w @ x) * v).sum()


err = finite_difference_check(small_loss, store2, eps=1e-5, samples_per_param=6)
print(f"max relative error over probed coordinates: {err:.2e}")
assert err < 1e-6

print()
print("== clipping and Adam on a toy objective ==")
store3 = ParameterStore()
p = store3.add("p", (2,), RngStream(2), scale=2.0)
target = np.array([0.5, -1.5])
for it in range(200):
    store3.zero_grads()
    diff = p - Tensor(target)
    (diff * diff).sum().backward()
    factor = clip_gradients(store3, max_norm=1.0)
    adam_step(store3, lr=0.05)
print(f"after 200 steps: p = {np.round(p.data, 4)}, target {target}, last clip factor {factor:.3f}")
assert np.allclose(p.data, target, atol=1e-3)
print("converged.")
