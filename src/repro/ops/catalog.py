"""Cost estimators for the operation types appearing in the four NN models.

Every estimator converts an :class:`~repro.graph.op.OpInstance` (shapes +
attributes) into an :class:`~repro.ops.characteristics.OpCharacteristics`
record.  The constants encode the qualitative behaviour the paper
observes and exploits:

* convolutions and GEMMs are compute-bound with high cache reuse but pay
  a noticeable per-thread parallelisation overhead (private im2col /
  weight-gradient buffers), with ``Conv2DBackpropFilter`` paying the most
  — this reproduces Fig. 1's ordering of optimal thread counts
  (filter-grad < input-grad < forward conv) and Table II's growth of the
  optimum with input size;
* elementwise and data-movement operations are bandwidth-bound streaming
  kernels with almost no reuse — they saturate quickly and prefer small
  thread counts, which is what creates co-running opportunities
  (Strategies 3 and 4);
* reductions carry a larger serial fraction (the final combine step).

The absolute magnitudes are calibrated to a KNL-class node but the
*shape* of the resulting time-vs-threads curves is what matters for the
reproduction.
"""

from __future__ import annotations

import math

from repro.graph.op import OpInstance
from repro.ops.characteristics import OpCharacteristics
from repro.ops.registry import OpRegistry


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _kernel(op: OpInstance) -> tuple[int, int]:
    kh, kw = op.attrs.get("kernel", (3, 3))
    return int(kh), int(kw)


def _conv_dims(op: OpInstance) -> tuple[int, int, int, int, int, int, int]:
    """Return (N, OH, OW, C_in, C_out, kh, kw) for a convolution-like op."""
    kh, kw = _kernel(op)
    activation = op.inputs[0]
    if op.op_type == "Conv2DBackpropInput":
        # output is the activation gradient (N, H, W, C_in); the gradient
        # w.r.t. the layer output arrives as an input.
        grad = op.inputs[-1]
        n, oh, ow, c_out = grad.dims if grad.rank == 4 else (grad.dims[0], 1, 1, grad.dims[-1])
        c_in = op.output.channels
    elif op.op_type == "Conv2DBackpropFilter":
        grad = op.inputs[-1]
        n, oh, ow, c_out = grad.dims if grad.rank == 4 else (grad.dims[0], 1, 1, grad.dims[-1])
        c_in = activation.channels
    else:  # forward conv / transposed conv
        n = activation.batch
        c_in = activation.channels
        out = op.output
        if out.rank == 4:
            _, oh, ow, c_out = out.dims
        else:
            oh = ow = 1
            c_out = out.channels
    return int(n), int(oh), int(ow), int(c_in), int(c_out), kh, kw


def _streaming(
    op: OpInstance,
    *,
    flops_per_element: float,
    passes: float = 1.0,
    serial_fraction: float = 0.02,
    per_thread_overhead: float = 2.0e-7,
    branchiness: float = 0.05,
) -> OpCharacteristics:
    """Characteristics of a streaming (bandwidth-bound) kernel."""
    elements = op.output.num_elements
    bytes_touched = (op.total_input_bytes + op.output.num_bytes) * passes
    return OpCharacteristics(
        flops=flops_per_element * elements,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 4 * 1024 * 1024)),
        serial_fraction=serial_fraction,
        reuse_potential=0.1,
        parallel_grains=max(1, elements // 4096),
        per_thread_overhead=per_thread_overhead,
        branchiness=branchiness,
        memory_bound=0.85,
    )


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------


def conv2d(op: OpInstance) -> OpCharacteristics:
    """Forward 2-D convolution (MKL-DNN direct/Winograd kernel)."""
    n, oh, ow, c_in, c_out, kh, kw = _conv_dims(op)
    flops = 2.0 * n * oh * ow * c_in * c_out * kh * kw
    weight_bytes = kh * kw * c_in * c_out * 4
    bytes_touched = op.total_input_bytes + op.output.num_bytes + weight_bytes
    return OpCharacteristics(
        flops=flops,
        bytes_touched=float(bytes_touched),
        working_set=float(weight_bytes + 512 * 1024),
        serial_fraction=0.035,
        reuse_potential=0.85,
        parallel_grains=max(1, n * oh * ow),
        per_thread_overhead=2e-6 + 1.9e-9 * math.sqrt(flops),
        branchiness=0.04,
        memory_bound=0.25,
    )


def conv2d_backprop_input(op: OpInstance) -> OpCharacteristics:
    """Gradient w.r.t. the convolution input (transposed convolution)."""
    n, oh, ow, c_in, c_out, kh, kw = _conv_dims(op)
    flops = 2.0 * n * oh * ow * c_in * c_out * kh * kw
    weight_bytes = kh * kw * c_in * c_out * 4
    bytes_touched = op.total_input_bytes + op.output.num_bytes + weight_bytes
    return OpCharacteristics(
        flops=flops,
        bytes_touched=float(bytes_touched),
        working_set=float(weight_bytes + 512 * 1024),
        serial_fraction=0.04,
        reuse_potential=0.8,
        parallel_grains=max(1, n * oh * ow),
        per_thread_overhead=2e-6 + 3.3e-9 * math.sqrt(flops),
        branchiness=0.05,
        memory_bound=0.3,
    )


def conv2d_backprop_filter(op: OpInstance) -> OpCharacteristics:
    """Gradient w.r.t. the convolution weights.

    Every thread accumulates into a private copy of the weight gradient,
    which is reduced at the end — the largest per-thread overhead of the
    three convolution kernels, hence the smallest optimal thread count
    (26 threads in Fig. 1).
    """
    n, oh, ow, c_in, c_out, kh, kw = _conv_dims(op)
    flops = 2.0 * n * oh * ow * c_in * c_out * kh * kw
    weight_bytes = kh * kw * c_in * c_out * 4
    bytes_touched = op.total_input_bytes + op.output.num_bytes + weight_bytes
    return OpCharacteristics(
        flops=flops,
        bytes_touched=float(bytes_touched),
        working_set=float(weight_bytes + 512 * 1024),
        serial_fraction=0.045,
        reuse_potential=0.8,
        parallel_grains=max(1, n * oh * ow),
        per_thread_overhead=3e-6 + 5.4e-9 * math.sqrt(flops),
        branchiness=0.05,
        memory_bound=0.3,
    )


def conv2d_transpose(op: OpInstance) -> OpCharacteristics:
    """Transposed ("deconvolution") forward op used by the DCGAN generator."""
    chars = conv2d_backprop_input(op)
    # The forward transposed conv behaves like backprop-input but without
    # the gradient-accumulation bookkeeping.
    return OpCharacteristics(
        flops=chars.flops,
        bytes_touched=chars.bytes_touched,
        working_set=chars.working_set,
        serial_fraction=0.04,
        reuse_potential=0.8,
        parallel_grains=chars.parallel_grains,
        per_thread_overhead=2e-6 + 2.8e-9 * math.sqrt(chars.flops),
        branchiness=0.05,
        memory_bound=0.3,
    )


# ---------------------------------------------------------------------------
# dense (GEMM) family
# ---------------------------------------------------------------------------


def matmul(op: OpInstance) -> OpCharacteristics:
    """Dense matrix multiply (fully connected layers, LSTM gates)."""
    a = op.inputs[0]
    b = op.inputs[1] if len(op.inputs) > 1 else op.output
    m = a.dims[0]
    k = a.dims[-1]
    n = op.output.dims[-1]
    flops = 2.0 * m * k * n
    bytes_touched = a.num_bytes + b.num_bytes + op.output.num_bytes
    return OpCharacteristics(
        flops=flops,
        bytes_touched=float(bytes_touched),
        working_set=float(min(b.num_bytes, 8 * 1024 * 1024) + 256 * 1024),
        serial_fraction=0.03,
        reuse_potential=0.9,
        parallel_grains=max(1, (m * n) // 1024),
        per_thread_overhead=1e-6 + 2.0e-9 * math.sqrt(flops),
        branchiness=0.03,
        memory_bound=0.3,
    )


def matmul_grad(op: OpInstance) -> OpCharacteristics:
    """Gradient GEMMs (dX = dY.W^T, dW = X^T.dY) — same cost family."""
    chars = matmul(op)
    return OpCharacteristics(
        flops=chars.flops,
        bytes_touched=chars.bytes_touched,
        working_set=chars.working_set,
        serial_fraction=0.035,
        reuse_potential=0.85,
        parallel_grains=chars.parallel_grains,
        per_thread_overhead=1e-6 + 3.0e-9 * math.sqrt(chars.flops),
        branchiness=0.03,
        memory_bound=0.35,
    )


# ---------------------------------------------------------------------------
# pooling family
# ---------------------------------------------------------------------------


def _pool(op: OpInstance, *, flops_per_window_element: float, serial: float) -> OpCharacteristics:
    kh, kw = op.attrs.get("kernel", (3, 3))
    window = int(kh) * int(kw)
    elements = op.output.num_elements
    flops = flops_per_window_element * window * elements
    bytes_touched = op.total_input_bytes + op.output.num_bytes
    return OpCharacteristics(
        flops=flops,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 2 * 1024 * 1024)),
        serial_fraction=serial,
        reuse_potential=0.4,
        parallel_grains=max(1, elements // 256),
        per_thread_overhead=4e-7 + 1.0e-9 * math.sqrt(flops),
        branchiness=0.12,
        memory_bound=0.7,
    )


def max_pool(op: OpInstance) -> OpCharacteristics:
    return _pool(op, flops_per_window_element=1.0, serial=0.03)


def max_pool_grad(op: OpInstance) -> OpCharacteristics:
    return _pool(op, flops_per_window_element=1.5, serial=0.05)


def avg_pool(op: OpInstance) -> OpCharacteristics:
    return _pool(op, flops_per_window_element=1.0, serial=0.03)


def avg_pool_grad(op: OpInstance) -> OpCharacteristics:
    return _pool(op, flops_per_window_element=1.0, serial=0.05)


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------


def fused_batch_norm(op: OpInstance) -> OpCharacteristics:
    elements = op.output.num_elements
    bytes_touched = 2.5 * (op.total_input_bytes + op.output.num_bytes)
    return OpCharacteristics(
        flops=10.0 * elements,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 2 * 1024 * 1024)),
        serial_fraction=0.06,
        reuse_potential=0.3,
        parallel_grains=max(1, elements // 1024),
        per_thread_overhead=4e-7,
        branchiness=0.04,
        memory_bound=0.8,
    )


def fused_batch_norm_grad(op: OpInstance) -> OpCharacteristics:
    chars = fused_batch_norm(op)
    return OpCharacteristics(
        flops=chars.flops * 1.4,
        bytes_touched=chars.bytes_touched * 1.2,
        working_set=chars.working_set,
        serial_fraction=0.08,
        reuse_potential=0.3,
        parallel_grains=chars.parallel_grains,
        per_thread_overhead=6e-7,
        branchiness=0.04,
        memory_bound=0.8,
    )


def lrn(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=12.0, passes=1.5, serial_fraction=0.04)


# ---------------------------------------------------------------------------
# elementwise / activation family
# ---------------------------------------------------------------------------


def relu(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=1.0)


def relu_grad(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=2.0)


def sigmoid(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=8.0)


def tanh(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=10.0)


def activation_grad(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=4.0)


def elementwise_binary(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=1.0)


def addn(op: OpInstance) -> OpCharacteristics:
    num_inputs = max(2, len(op.inputs))
    return _streaming(op, flops_per_element=float(num_inputs - 1), passes=1.0)


def bias_add(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=1.0)


def square(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=1.0)


def sqrt_op(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=4.0)


def real_div(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=4.0)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _reduction(op: OpInstance, *, flops_per_element: float) -> OpCharacteristics:
    elements = op.total_input_elements
    bytes_touched = op.total_input_bytes + op.output.num_bytes
    return OpCharacteristics(
        flops=flops_per_element * elements,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 2 * 1024 * 1024)),
        serial_fraction=0.1,
        reuse_potential=0.2,
        parallel_grains=max(1, elements // 2048),
        per_thread_overhead=5e-7,
        branchiness=0.06,
        memory_bound=0.8,
    )


def bias_add_grad(op: OpInstance) -> OpCharacteristics:
    return _reduction(op, flops_per_element=1.0)


def reduce_sum(op: OpInstance) -> OpCharacteristics:
    return _reduction(op, flops_per_element=1.0)


def reduce_mean(op: OpInstance) -> OpCharacteristics:
    return _reduction(op, flops_per_element=1.2)


def l2_loss(op: OpInstance) -> OpCharacteristics:
    return _reduction(op, flops_per_element=2.0)


# ---------------------------------------------------------------------------
# softmax / loss family
# ---------------------------------------------------------------------------


def softmax(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=12.0, passes=2.0, serial_fraction=0.06)


def log_softmax(op: OpInstance) -> OpCharacteristics:
    return _streaming(op, flops_per_element=14.0, passes=2.0, serial_fraction=0.06)


def sparse_softmax_cross_entropy(op: OpInstance) -> OpCharacteristics:
    elements = op.total_input_elements
    bytes_touched = 2.0 * (op.total_input_bytes + op.output.num_bytes)
    return OpCharacteristics(
        flops=16.0 * elements,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 2 * 1024 * 1024)),
        serial_fraction=0.08,
        reuse_potential=0.25,
        parallel_grains=max(1, op.inputs[0].dims[0]),
        per_thread_overhead=8e-7,
        branchiness=0.1,
        memory_bound=0.7,
    )


# ---------------------------------------------------------------------------
# optimiser updates
# ---------------------------------------------------------------------------


def apply_adam(op: OpInstance) -> OpCharacteristics:
    elements = op.inputs[0].num_elements
    bytes_touched = 5.0 * op.inputs[0].num_bytes  # params, grad, m, v, out
    return OpCharacteristics(
        flops=12.0 * elements,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 4 * 1024 * 1024)),
        serial_fraction=0.02,
        reuse_potential=0.05,
        parallel_grains=max(1, elements // 4096),
        per_thread_overhead=3e-7,
        branchiness=0.03,
        memory_bound=0.9,
    )


def apply_gradient_descent(op: OpInstance) -> OpCharacteristics:
    elements = op.inputs[0].num_elements
    bytes_touched = 3.0 * op.inputs[0].num_bytes
    return OpCharacteristics(
        flops=2.0 * elements,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 4 * 1024 * 1024)),
        serial_fraction=0.02,
        reuse_potential=0.05,
        parallel_grains=max(1, elements // 4096),
        per_thread_overhead=3e-7,
        branchiness=0.03,
        memory_bound=0.9,
    )


def apply_momentum(op: OpInstance) -> OpCharacteristics:
    elements = op.inputs[0].num_elements
    bytes_touched = 4.0 * op.inputs[0].num_bytes
    return OpCharacteristics(
        flops=4.0 * elements,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 4 * 1024 * 1024)),
        serial_fraction=0.02,
        reuse_potential=0.05,
        parallel_grains=max(1, elements // 4096),
        per_thread_overhead=3e-7,
        branchiness=0.03,
        memory_bound=0.9,
    )


# ---------------------------------------------------------------------------
# data movement / layout
# ---------------------------------------------------------------------------


def _data_movement(op: OpInstance, *, passes: float = 1.0) -> OpCharacteristics:
    bytes_touched = (op.total_input_bytes + op.output.num_bytes) * passes
    elements = op.output.num_elements
    return OpCharacteristics(
        flops=0.25 * elements,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 2 * 1024 * 1024)),
        serial_fraction=0.03,
        reuse_potential=0.05,
        parallel_grains=max(1, elements // 8192),
        per_thread_overhead=2e-7,
        branchiness=0.04,
        memory_bound=0.95,
    )


def tile(op: OpInstance) -> OpCharacteristics:
    return _data_movement(op)


def concat(op: OpInstance) -> OpCharacteristics:
    return _data_movement(op)


def split(op: OpInstance) -> OpCharacteristics:
    return _data_movement(op)


def transpose(op: OpInstance) -> OpCharacteristics:
    return _data_movement(op, passes=1.3)


def pad(op: OpInstance) -> OpCharacteristics:
    return _data_movement(op)


def input_conversion(op: OpInstance) -> OpCharacteristics:
    """MKL layout conversion of an input tensor (``InputConversion``)."""
    return _data_movement(op, passes=1.5)


def to_tf(op: OpInstance) -> OpCharacteristics:
    """MKL-to-TensorFlow layout conversion (``ToTf``)."""
    return _data_movement(op, passes=1.5)


def cast(op: OpInstance) -> OpCharacteristics:
    return _data_movement(op)


def reshape(op: OpInstance) -> OpCharacteristics:
    # Metadata-only in TF, but still a schedulable node; near-zero cost.
    return OpCharacteristics(
        flops=1.0,
        bytes_touched=64.0,
        working_set=64.0,
        serial_fraction=0.5,
        reuse_potential=0.0,
        parallel_grains=1,
        per_thread_overhead=1e-7,
        branchiness=0.1,
        memory_bound=0.5,
    )


def identity(op: OpInstance) -> OpCharacteristics:
    return reshape(op)


def gather(op: OpInstance) -> OpCharacteristics:
    """Embedding lookup (LSTM input layer)."""
    bytes_touched = op.output.num_bytes * 2.0
    elements = op.output.num_elements
    return OpCharacteristics(
        flops=0.5 * elements,
        bytes_touched=float(bytes_touched),
        working_set=float(min(bytes_touched, 2 * 1024 * 1024)),
        serial_fraction=0.04,
        reuse_potential=0.05,
        parallel_grains=max(1, elements // 4096),
        per_thread_overhead=3e-7,
        branchiness=0.15,
        memory_bound=0.95,
    )


def one_hot(op: OpInstance) -> OpCharacteristics:
    return _data_movement(op)


def fallback(op: OpInstance) -> OpCharacteristics:
    """Conservative streaming estimate for unknown operation types."""
    return _streaming(op, flops_per_element=2.0)


# ---------------------------------------------------------------------------
# registry population
# ---------------------------------------------------------------------------

_ESTIMATORS = {
    "Conv2D": conv2d,
    "Conv2DBackpropInput": conv2d_backprop_input,
    "Conv2DBackpropFilter": conv2d_backprop_filter,
    "Conv2DTranspose": conv2d_transpose,
    "MatMul": matmul,
    "MatMulGrad": matmul_grad,
    "MaxPooling": max_pool,
    "MaxPool": max_pool,
    "MaxPoolGrad": max_pool_grad,
    "AvgPool": avg_pool,
    "AvgPoolGrad": avg_pool_grad,
    "FusedBatchNorm": fused_batch_norm,
    "FusedBatchNormGrad": fused_batch_norm_grad,
    "LRN": lrn,
    "Relu": relu,
    "ReluGrad": relu_grad,
    "LeakyRelu": relu,
    "LeakyReluGrad": relu_grad,
    "Sigmoid": sigmoid,
    "SigmoidGrad": activation_grad,
    "Tanh": tanh,
    "TanhGrad": activation_grad,
    "Add": elementwise_binary,
    "Sub": elementwise_binary,
    "Mul": elementwise_binary,
    "RealDiv": real_div,
    "Square": square,
    "Sqrt": sqrt_op,
    "AddN": addn,
    "BiasAdd": bias_add,
    "BiasAddGrad": bias_add_grad,
    "Sum": reduce_sum,
    "Mean": reduce_mean,
    "L2Loss": l2_loss,
    "Softmax": softmax,
    "LogSoftmax": log_softmax,
    "SparseSoftmaxCross": sparse_softmax_cross_entropy,
    "SparseSoftmaxCrossEntropyWithLogits": sparse_softmax_cross_entropy,
    "ApplyAdam": apply_adam,
    "ApplyGradientDescent": apply_gradient_descent,
    "ApplyMomentum": apply_momentum,
    "Tile": tile,
    "ConcatV2": concat,
    "Concat": concat,
    "Split": split,
    "Transpose": transpose,
    "Pad": pad,
    "InputConversion": input_conversion,
    "ToTf": to_tf,
    "Cast": cast,
    "Reshape": reshape,
    "Identity": identity,
    "Gather": gather,
    "OneHot": one_hot,
}


def populate(registry: OpRegistry) -> None:
    """Register every catalog estimator (and the fallback) in ``registry``."""
    for op_type, estimator in _ESTIMATORS.items():
        registry.register(op_type, estimator, overwrite=True)
    registry.set_fallback(fallback)


def known_op_types() -> tuple[str, ...]:
    """All operation types with a dedicated estimator."""
    return tuple(sorted(_ESTIMATORS))
