"""Small fully-connected classifier over a flat parameter vector.

Gradients are hand-written reverse mode; Hessian-vector products are exact
forward-over-reverse (Pearlmutter 1994: a tangent is pushed through the
forward pass and then through the backward pass), so spectral routines see
machine-precision curvature. Everything is a pure function of (spec, params,
batch, loss).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyClassError, ParameterError
from .linalg import SeededRng
from .losses import LossSpec, loss_on_logits, loss_terms

TANH = "tanh"
SOFTPLUS = "softplus"
RELU = "relu"
ACTIVATIONS = (TANH, SOFTPLUS, RELU)


# activation -> (value(a), first derivative(a, h), second derivative(a, h, d1))
# with h = value(a); relu's second derivative is 0 everywhere under the kink
# convention
_ACT_FNS = {
    TANH: (np.tanh,
           lambda a, h: 1.0 - h * h,
           lambda a, h, d1: -2.0 * h * d1),
    SOFTPLUS: (lambda a: np.logaddexp(0.0, a),
               lambda a, h: 1.0 / (1.0 + np.exp(-a)),
               lambda a, h, d1: d1 * (1.0 - d1)),
    RELU: (lambda a: a * (a > 0).astype(np.float64),
           lambda a, h: (a > 0).astype(np.float64),
           lambda a, h, d1: np.zeros_like(a)),
}


@dataclass(frozen=True)
class MlpSpec:
    """layer_sizes = (input_dim, hidden..., num_classes); last layer is linear."""

    layer_sizes: tuple[int, ...]
    activation: str = TANH
    bias: bool = True

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ParameterError("need at least (input_dim, num_classes)")
        if any(s < 1 for s in self.layer_sizes):
            raise ParameterError("layer sizes must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1


@dataclass(frozen=True)
class ParamBlock:
    name: str
    offset: int
    shape: tuple


@functools.cache
def param_layout(spec: MlpSpec):
    """(blocks, total) — blocks tile the flat vector exactly, in layer order.
    The one definition of the layout: every slicing of a parameter vector
    reads it. Memoized per spec, which is frozen and so hashable."""
    blocks = []
    offset = 0
    for l in range(spec.num_layers):
        fan_in, fan_out = spec.layer_sizes[l], spec.layer_sizes[l + 1]
        blocks.append(ParamBlock(f"w{l}", offset, (fan_out, fan_in)))
        offset += fan_out * fan_in
        if spec.bias:
            blocks.append(ParamBlock(f"b{l}", offset, (fan_out,)))
            offset += fan_out
    return tuple(blocks), offset


def ParamVector(data, layout) -> np.ndarray:
    """data as a float64 parameter array, checked against layout's total: a
    length mismatch is a DimensionError. Parameters are plain arrays laid out
    by param_layout; saddlebench/checks.py is this function's one caller, and
    ROADMAP item 1a can delete it."""
    data = np.asarray(data, dtype=np.float64)
    total = sum(math.prod(b.shape) for b in layout)
    if data.shape != (total,):
        raise DimensionError(f"param data shape {data.shape} != ({total},) of the layout")
    return data


def _unpack(spec: MlpSpec, flat: np.ndarray):
    """Split a flat vector into per-layer (W, b) views of param_layout's
    blocks without copying; a vector of another shape than the layout's is a
    DimensionError."""
    blocks, total = param_layout(spec)
    if flat.shape != (total,):
        raise DimensionError(f"param vector shape {flat.shape} != ({total},) of the spec")
    views = [flat[b.offset : b.offset + math.prod(b.shape)].reshape(b.shape) for b in blocks]
    if not spec.bias:
        return views, [None] * spec.num_layers
    return views[::2], views[1::2]


def init_params(spec: MlpSpec, rng: SeededRng) -> np.ndarray:
    """Per-layer uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    blocks, total = param_layout(spec)
    data = np.zeros(total)
    for b in blocks:
        if b.name.startswith("w"):
            fan_out, fan_in = b.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            size = fan_out * fan_in
            data[b.offset : b.offset + size] = rng.generator.uniform(-bound, bound, size)
    return data


@dataclass
class Batch:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2:
            raise DimensionError("batch features must be 2-D")
        if self.labels.shape[0] != self.features.shape[0]:
            raise DimensionError("labels length != feature rows")

    def __len__(self) -> int:
        return self.features.shape[0]


def _forward_pass(spec: MlpSpec, ws, bs, x):
    """Returns (logits, hs, pre) with hs[l] the input to layer l and pre[l]
    the pre-activation of hidden layer l, so hs[l + 1] = value(pre[l])."""
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise DimensionError(f"inputs must be (n, {spec.input_dim}), got {x.shape}")
    value = _ACT_FNS[spec.activation][0]
    hs, pre = [x], []
    for l in range(spec.num_layers):
        a = hs[l] @ ws[l].T
        if bs[l] is not None:
            a = a + bs[l]
        if l == spec.num_layers - 1:
            return a, hs, pre
        pre.append(a)
        hs.append(value(a))
    raise AssertionError("unreachable")


def forward(spec: MlpSpec, w: np.ndarray, x) -> np.ndarray:
    ws, bs = _unpack(spec, w)
    logits, _, _ = _forward_pass(spec, ws, bs, np.asarray(x, dtype=np.float64))
    return logits


def loss_grad(spec: MlpSpec, w: np.ndarray, batch: Batch, loss: LossSpec):
    """(weighted mean loss, flat gradient) on one batch."""
    if len(batch) == 0:
        raise ParameterError("empty batch")
    ws, bs = _unpack(spec, w)
    logits, hs, pre = _forward_pass(spec, ws, bs, batch.features)
    value, g_logits = loss_on_logits(loss, logits, batch.labels)

    slope = _ACT_FNS[spec.activation][1]
    grad = np.zeros_like(w)
    gws, gbs = _unpack(spec, grad)
    g = g_logits
    for l in range(spec.num_layers - 1, -1, -1):
        gws[l][...] = g.T @ hs[l]
        if gbs[l] is not None:
            gbs[l][...] = g.sum(axis=0)
        if l > 0:
            g = (g @ ws[l]) * slope(pre[l - 1], hs[l])
    return value, grad


# hvp pushes the tangent through at most this many rows at a time, so its
# workspace, and a twin's, stays this size on larger batches; a batch of at
# most this many rows is one chunk.
CHUNK_ROWS = 512


class Linearization:
    """Everything an exact HVP at fixed (spec, w, batch, loss) needs that does
    not depend on the tangent: layer inputs hs[l], activation slopes d1[l],
    the gradient chain g[l] (d loss / d pre-activation of layer l), the
    products sd2[l] = (g[l+1] @ W[l+1]) * d2[l], and the loss layer's
    curvature. The pass's `logits` and weighted mean loss `value` are kept
    for callers that report them. It stays valid while w is unchanged.
    It is the operator spectral probes: apply(v) is one hvp call on it.

    hvp(v) pushes only the tangent through the batch, in row chunks of at
    most CHUNK_ROWS, and adds up each chunk's weight and bias blocks in chunk
    order. It works in a workspace allocated here and overwritten by every
    call, so one Linearization serves one caller at a time; twin() gives a
    second, concurrent caller its own. The returned vector is always fresh.
    """

    def __init__(self, spec: MlpSpec, w: np.ndarray, batch: Batch, loss: LossSpec):
        if len(batch) == 0:
            raise ParameterError("empty batch")
        self.spec, self.w, self.batch, self.loss = spec, w, batch, loss
        self.dim = w.shape[0]
        self._ws, self._bs = _unpack(spec, w)
        self.logits, hs, pre = _forward_pass(spec, self._ws, self._bs, batch.features)
        self.value, g, curvature = loss_terms(loss, self.logits, batch.labels)

        _, slope, second = _ACT_FNS[spec.activation]
        depth = spec.num_layers
        d1 = [slope(pre[l], hs[l + 1]) for l in range(depth - 1)]
        gs = [None] * depth  # g[0] is never needed
        sd2 = [None] * (depth - 1)
        for l in range(depth - 1, 0, -1):
            gs[l] = g
            s = g @ self._ws[l]
            sd2[l - 1] = s * second(pre[l - 1], hs[l], d1[l - 1])
            if l > 1:
                g = s * d1[l - 1]

        def cut(arrays, rows):
            return [None if a is None else a[rows] for a in arrays]

        # per chunk: its row count, then row views of every fixed array; bias
        # blocks sum gdot over rows as ones @ gdot
        n = len(batch)
        ones = np.ones(min(n, CHUNK_ROWS))
        self._chunks = []
        for start in range(0, n, CHUNK_ROWS):
            rows, m = slice(start, start + CHUNK_ROWS), min(n - start, CHUNK_ROWS)
            self._chunks.append((m, cut(hs, rows), cut(d1, rows), cut(gs, rows),
                                 cut(sd2, rows), curvature.rows(rows), ones[:m]))
        self._allocate()

    def _allocate(self) -> None:
        """The tangent workspace, sized for the largest chunk and viewed at
        each chunk's row count: adot[l] per layer, hdot[l] per hidden layer
        and one scratch array per distinct width; one weight-shaped buffer
        per layer; and one product buffer for the chunks after the first."""
        sizes, depth = self.spec.layer_sizes, self.spec.num_layers
        cap = self._chunks[0][0]
        adot = [np.empty((cap, sizes[l + 1])) for l in range(depth)]
        hdot = [np.empty((cap, sizes[l + 1])) for l in range(depth - 1)]
        scratch = {m: np.empty((cap, m)) for m in set(sizes[1:])}
        self._work = {m: ([a[:m] for a in adot], [h[:m] for h in hdot],
                          {k: s[:m] for k, s in scratch.items()})
                      for m in {chunk[0] for chunk in self._chunks}}
        self._wtmp, _ = _unpack(self.spec, np.empty_like(self.w))
        self._part = np.empty_like(self.w) if len(self._chunks) > 1 else None

    def twin(self) -> "Linearization":
        """A Linearization at the same point that shares every fixed array
        with this one and has its own workspace, for a second caller that
        runs at the same time."""
        twin = copy.copy(self)
        twin._allocate()
        return twin

    def apply(self, v) -> np.ndarray:
        return hvp(self.spec, self.w, self.batch, self.loss, v, lin=self)

    def hvp(self, v) -> np.ndarray:
        vws, vbs = _unpack(self.spec, np.asarray(v, dtype=np.float64))
        out = self._hvp_rows(self._chunks[0], vws, vbs, np.empty_like(self.w))
        for chunk in self._chunks[1:]:
            np.add(out, self._hvp_rows(chunk, vws, vbs, self._part), out=out)
        return out

    def _hvp_rows(self, chunk, vws, vbs, out) -> np.ndarray:
        """One chunk's share of the product, written into out."""
        rows, hs, d1, g, sd2, curvature, ones = chunk
        adot, hdot, scratch = self._work[rows]
        ws, depth = self._ws, self.spec.num_layers

        # forward: adot[l] = hdot[l-1] @ W[l].T + hs[l] @ V[l].T (+ vb[l]),
        # hdot[l] = d1[l] * adot[l]; the input carries no tangent
        for l in range(depth):
            if l == 0:
                np.matmul(hs[0], vws[0].T, out=adot[0])
            else:
                np.matmul(hdot[l - 1], ws[l].T, out=adot[l])
                np.add(adot[l], np.matmul(hs[l], vws[l].T, out=scratch[adot[l].shape[1]]),
                       out=adot[l])
            if vbs[l] is not None:
                np.add(adot[l], vbs[l], out=adot[l])
            if l < depth - 1:
                np.multiply(d1[l], adot[l], out=hdot[l])

        # reverse: only the tangent gdot of the gradient chain is carried; the
        # next gdot, sdot * d1 + sd2 * adot, is written over the dead adot[l-1]
        # and sdot over hdot[l-1], dead once this layer's weight block is done
        ohw, ohb = _unpack(self.spec, out)
        gdot = curvature.apply(adot[-1])
        for l in range(depth - 1, -1, -1):
            if ohb[l] is not None:
                np.matmul(ones, gdot, out=ohb[l])
            np.matmul(gdot.T, hs[l], out=ohw[l])
            if l == 0:
                return out
            ohw[l] += np.matmul(g[l].T, hdot[l - 1], out=self._wtmp[l])
            sdot = np.matmul(gdot, ws[l], out=hdot[l - 1])
            np.add(sdot, np.matmul(g[l], vws[l], out=scratch[sdot.shape[1]]), out=sdot)
            np.multiply(sdot, d1[l - 1], out=sdot)
            gdot = np.multiply(sd2[l - 1], adot[l - 1], out=adot[l - 1])
            np.add(sdot, gdot, out=gdot)
        raise AssertionError("unreachable")


def hvp(spec: MlpSpec, w: np.ndarray, batch: Batch, loss: LossSpec, v, *,
        lin: Linearization | None = None) -> np.ndarray:
    """Exact Hessian-vector product via forward-over-reverse.

    A tangent v is carried through the forward pass (giving d(activations))
    and then through the reverse pass (giving d(gradient) = H v). No finite
    differences anywhere. lin, a Linearization(spec, w, batch, loss) of these
    same objects, skips the tangent-free work shared by every v.
    """
    if lin is None:
        lin = Linearization(spec, w, batch, loss)
    elif not (lin.spec is spec and lin.w is w and lin.batch is batch and lin.loss is loss):
        raise ParameterError("lin was linearized at other spec, w, batch or loss objects")
    return lin.hvp(v)


def per_class_batch(ds: Batch, class_id: int) -> Batch:
    """All samples of one class."""
    idx = np.flatnonzero(ds.labels == class_id)
    if idx.size == 0:
        raise EmptyClassError(f"class {class_id} has no samples")
    return Batch(ds.features[idx], ds.labels[idx])
