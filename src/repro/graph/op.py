"""Operation instances — the schedulable unit of the dataflow graph.

Terminology follows the paper:

* an **operation** (or operation type) is a primitive such as ``Conv2D``;
* an **operation instance** is one node of the training-step graph — a
  specific invocation of an operation with concrete input tensor shapes
  (Inception-v3 has e.g. 42 instances of ``Conv2DBackpropFilter``, each
  with different input sizes).

The runtime's Strategy 1 picks a thread count per *signature* (operation
type + input sizes); Strategy 2 collapses that to one thread count per
operation type, keyed by its largest-input instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.graph.shapes import TensorShape


@dataclass(frozen=True)
class OpSignature:
    """Operation type plus input shapes: the key of the performance model."""

    op_type: str
    input_dims: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        shapes = ", ".join("x".join(map(str, dims)) for dims in self.input_dims)
        return f"{self.op_type}[{shapes}]"


@dataclass(frozen=True)
class OpInstance:
    """A node of the dataflow graph.

    Attributes
    ----------
    name:
        Unique node name within its graph (e.g.
        ``"res2a/branch2b/Conv2DBackpropFilter"``).
    op_type:
        The operation primitive name (``"Conv2D"``, ``"MatMul"``, ...).
    inputs:
        Input tensor shapes.
    output:
        Output tensor shape.
    attrs:
        Additional operation attributes (kernel size, strides, ...).
    implementation:
        Which kernel library provides the op.  The paper only retunes
        intra-op parallelism for MKL-DNN ops (Eigen ops pay a large
        re-configuration overhead), so the runtime needs to know this.
    """

    name: str
    op_type: str
    inputs: tuple[TensorShape, ...]
    output: TensorShape
    # attrs is excluded from equality/hashing so instances stay hashable
    # (names are unique within a graph, so identity is unambiguous anyway).
    # A memo of anything computed from attrs must key on them as well.
    attrs: Mapping[str, Any] = field(default_factory=dict, compare=False)
    implementation: str = "mkl"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operation instance needs a non-empty name")
        if not self.op_type:
            raise ValueError("operation instance needs a non-empty op_type")
        if self.implementation not in ("mkl", "eigen"):
            raise ValueError("implementation must be 'mkl' or 'eigen'")

    @property
    def signature(self) -> OpSignature:
        """Type + input-shape key used by the performance models."""
        return OpSignature(
            op_type=self.op_type,
            input_dims=tuple(s.dims for s in self.inputs),
        )

    @property
    def total_input_bytes(self) -> int:
        return sum(s.num_bytes for s in self.inputs)

    @property
    def total_input_elements(self) -> int:
        return sum(s.num_elements for s in self.inputs)

    @property
    def total_bytes(self) -> int:
        """Bytes of all inputs plus the output."""
        return self.total_input_bytes + self.output.num_bytes

    @property
    def is_tunable(self) -> bool:
        """Whether the runtime may change this op's intra-op parallelism."""
        return self.implementation == "mkl"

    def primary_input(self) -> TensorShape:
        """The first (usually the data) input shape."""
        if not self.inputs:
            raise ValueError(f"{self.name} has no inputs")
        return self.inputs[0]

    def __str__(self) -> str:
        return f"{self.name} <{self.op_type}>"
