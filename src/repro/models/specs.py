"""Transformer model specifications.

Rubick's performance model (paper §4, Table 1) depends on a small set of
architectural constants per model: sequence length ``s``, hidden size ``h``,
layer count ``l`` and total parameter size ``P``.  :class:`ModelSpec` captures
those, plus the structural divisibility information needed to enumerate
parallel execution plans (attention-head counts bound the tensor-parallel
degree; the layer count bounds pipeline staging).

The specs are *architectural descriptions*, not weights: the reproduction
never instantiates real networks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description of one trainable model.

    Parameters mirror the paper's Table 1 "Model" row (``s``, ``h``, ``l``,
    ``P``) with enough extra structure to drive plan enumeration and the
    memory model.

    Attributes:
        name: Unique catalog key, e.g. ``"gpt2-1.5b"``.
        display_name: Name used in paper-style tables, e.g. ``"GPT-2"``.
        param_count: Total trainable parameters ``P`` (count, not bytes).
        num_layers: Transformer block count ``l``.
        hidden_size: Hidden dimension ``h``.
        num_heads: Attention heads; bounds the tensor-parallel degree.
        seq_len: Training sequence length ``s`` (tokens per sample).
        vocab_size: Vocabulary size (drives the logits activation buffer).
        global_batch_size: Global mini-batch size ``b`` in samples.  Rubick
            keeps ``b`` fixed across reconfigurations, so it is a property of
            the model workload, not of the plan.
        dataset: Dataset label, for reporting parity with the paper's Table 2.
        is_language_model: Language models materialize a ``seq × vocab``
            logits buffer; vision models do not.
    """

    name: str
    display_name: str
    param_count: float
    num_layers: int
    hidden_size: int
    num_heads: int
    seq_len: int
    vocab_size: int
    global_batch_size: int
    dataset: str = ""
    is_language_model: bool = True

    def __post_init__(self) -> None:
        if self.param_count <= 0:
            raise ValueError(f"{self.name}: param_count must be positive")
        if self.num_layers <= 0 or self.hidden_size <= 0:
            raise ValueError(f"{self.name}: layer/hidden sizes must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"{self.name}: hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.global_batch_size <= 0:
            raise ValueError(f"{self.name}: global_batch_size must be positive")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def fwd_flops_per_sample(self) -> float:
        """Approximate forward-pass FLOPs for one sample (dense transformer).

        Uses the standard ``2 · P · s`` estimate for parameter FLOPs plus the
        quadratic attention term ``2 · l · s² · h`` (two batched matmuls per
        layer), which matters for long-sequence models such as LLaMA.
        """
        param_flops = 2.0 * self.param_count * self.seq_len
        attn_flops = 2.0 * 2.0 * self.num_layers * self.seq_len**2 * self.hidden_size
        return param_flops + attn_flops

    def valid_tp(self, tp: int, node_limit: int = 8) -> bool:
        """Whether ``tp`` is a structurally valid tensor-parallel degree."""
        return (
            1 <= tp <= node_limit
            and self.num_heads % tp == 0
            and self.hidden_size % tp == 0
        )

    def valid_pp(self, pp: int) -> bool:
        """Whether ``pp`` pipeline stages evenly partition the layer stack."""
        return 1 <= pp <= self.num_layers and self.num_layers % pp == 0
