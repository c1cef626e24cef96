"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in plain Python loops over lists,
sharing no code with the package, so agreement between the two is evidence
rather than tautology.
"""

from __future__ import annotations

import math


def sig(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softmax_masked_oracle(logits: list[float], mask: list[float]) -> list[float]:
    allowed = [i for i, m in enumerate(mask) if m == 0.0]
    top = max(logits[i] for i in allowed)
    exps = [math.exp(logits[i] - top) if i in set(allowed) else 0.0 for i in range(len(logits))]
    total = sum(exps)
    return [e / total for e in exps]


def lstm_step_oracle(x, h, c, wx, wh, b):
    """One cell step, gate order input/forget/cell/output."""
    hidden = len(h)
    pre = []
    for j in range(4 * hidden):
        acc = b[j]
        for i, xv in enumerate(x):
            acc += xv * wx[i][j]
        for i, hv in enumerate(h):
            acc += hv * wh[i][j]
        pre.append(acc)
    i_gate = [sig(pre[j]) for j in range(hidden)]
    f_gate = [sig(pre[hidden + j]) for j in range(hidden)]
    g_gate = [math.tanh(pre[2 * hidden + j]) for j in range(hidden)]
    o_gate = [sig(pre[3 * hidden + j]) for j in range(hidden)]
    c_new = [f_gate[j] * c[j] + i_gate[j] * g_gate[j] for j in range(hidden)]
    h_new = [o_gate[j] * math.tanh(c_new[j]) for j in range(hidden)]
    return h_new, c_new


def attention_oracle(enc_states, s, w_enc, w_state, v):
    """Additive attention: weights and context for one query vector."""
    m = len(enc_states)
    attn_dim = len(v)
    proj_s = [sum(s[y] * w_state[y][a] for y in range(len(s))) for a in range(attn_dim)]
    scores = []
    for j in range(m):
        row = enc_states[j]
        acc = 0.0
        for a in range(attn_dim):
            pre = proj_s[a]
            for x in range(len(row)):
                pre += row[x] * w_enc[x][a]
            acc += v[a] * math.tanh(pre)
        scores.append(acc)
    alpha = softmax_masked_oracle(scores, [0.0] * m)
    context = [
        sum(alpha[j] * enc_states[j][x] for j in range(m)) for x in range(len(enc_states[0]))
    ]
    return alpha, context


def output_head_oracle(s, context, w_state, w_context, w_logits):
    proj_dim = len(w_state)
    hidden = []
    for p in range(proj_dim):
        acc = 0.0
        for i, sv in enumerate(s):
            acc += w_state[p][i] * sv
        for i, cv in enumerate(context):
            acc += w_context[p][i] * cv
        hidden.append(math.tanh(acc))
    return [sum(w_logits[o][p] * hidden[p] for p in range(proj_dim)) for o in range(len(w_logits))]


def metrics_oracle(pairs, num_labels):
    """Hamming loss and micro precision/recall/F1 by per-label enumeration."""
    tp = fp = fn = wrong = 0
    for true_set, pred_set in pairs:
        for lab in range(num_labels):
            in_t = lab in true_set
            in_p = lab in pred_set
            if in_t and in_p:
                tp += 1
            elif in_p:
                fp += 1
            elif in_t:
                fn += 1
            if in_t != in_p:
                wrong += 1
    hamming = wrong / (len(pairs) * num_labels)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return hamming, precision, recall, f1


def exhaustive_decode(model, token_ids, max_steps):
    """Globally best label sequence by enumerating every possibility.

    Walks the full tree of distinct-label prefixes (terminal class closes a
    branch), scoring each with the model's own step distributions, and keeps
    the same ordering key the search code uses so ties resolve identically.
    """
    from seq2label.numerics import no_grad

    results = []
    with no_grad():
        enc = model.encode(token_ids)

        def walk(state, prefix, logp, depth):
            if depth == max_steps:
                new_state, y, _ = model.decoder_step(state, enc)
                results.append((prefix + (model.eos_class,), logp + math.log(float(y.data[model.eos_class]))))
                return
            new_state, y, _ = model.decoder_step(state, enc)
            for cls in range(model.num_labels + 1):
                p = float(y.data[cls])
                if p == 0.0:
                    continue
                if cls == model.eos_class:
                    results.append((prefix + (cls,), logp + math.log(p)))
                else:
                    walk(model.advance(new_state, cls), prefix + (cls,), logp + math.log(p), depth + 1)

        walk(model.init_state(), (), 0.0, 0)
    best = min(results, key=lambda r: (-r[1], len(r[0]), r[0]))
    return list(best[0]), best[1]


def _search_key(h):
    return (-h[1], len(h[0]), h[0])


def greedy_oracle(model, token_ids, max_steps):
    """Argmax at every step, stopping at the terminal class or ``max_steps``.

    Returns (sequence, log_prob, dists, attns) with copies of each step's
    output distribution and attention row; a sequence cut off by the step
    limit is returned as it stands.
    """
    import numpy as np

    from seq2label.numerics import no_grad

    with no_grad():
        enc = model.encode(token_ids)
        state = model.init_state()
        seq, dists, attns = [], [], []
        total = 0.0
        for _ in range(max_steps):
            state, y, alpha = model.decoder_step(state, enc)
            dists.append(y.data.copy())
            attns.append(alpha.data.copy())
            cls = int(np.argmax(y.data))
            total += math.log(float(y.data[cls]))
            seq.append(cls)
            if cls == model.eos_class:
                break
            state = model.advance(state, cls)
    return seq, total, dists, attns


def beam_oracle(model, token_ids, beam_size, max_steps):
    """Beam search that scores every class of every live hypothesis.

    Each step keeps the ``beam_size`` best children overall under the same
    ordering key as the library; finished children go to a pool, and the
    search stops when the pool holds ``beam_size`` sequences or nothing is
    live. Survivors are closed with the terminal class one step later.
    """
    from seq2label.numerics import no_grad

    with no_grad():
        enc = model.encode(token_ids)
        live = [((), 0.0, model.init_state())]
        finished = []
        for _ in range(max_steps):
            children = []
            for seq, logp, state in live:
                new_state, y, _ = model.decoder_step(state, enc)
                for cls in range(model.num_labels + 1):
                    p = float(y.data[cls])
                    if p != 0.0:
                        children.append((seq + (cls,), logp + math.log(p), new_state))
            children.sort(key=_search_key)
            live = []
            for child in children[:beam_size]:
                if child[0][-1] == model.eos_class:
                    finished.append(child)
                else:
                    live.append((child[0], child[1], model.advance(child[2], child[0][-1])))
            if len(finished) >= beam_size or not live:
                break
        for seq, logp, state in live:
            _, y, _ = model.decoder_step(state, enc)
            finished.append((seq + (model.eos_class,), logp + math.log(float(y.data[model.eos_class])), state))
    best = min(finished, key=_search_key)
    return list(best[0]), best[1]
