"""The seven evaluation models from the paper's Table 2.

Architectural constants follow the published architectures; where the paper
leaves a knob open (global batch size, sequence length for the custom 1.2B T5
configuration) we choose standard values and record them here.  The paper's
Fig. 2 trains GPT-2 with a global batch of 16, which we adopt.

Models with < 1B parameters are evaluated by the paper on the DP/ZeRO plan
family only ("we disable TP and PP as they are mostly unnecessary for these
relatively small models"); this catalog carries that policy flag so trace
generation can honor it.
"""

from __future__ import annotations

from repro.models.specs import ModelSpec

#: Models the paper restricts to DP-family plans in the trace experiments.
SMALL_MODEL_NAMES = ("vit", "roberta", "bert")

#: Models counted as "large" for the Fig. 11 model-mix sweep.
LARGE_MODEL_NAMES = ("llama2-7b", "llama-30b")

VIT = ModelSpec(
    name="vit",
    display_name="ViT",
    param_count=86e6,
    num_layers=12,
    hidden_size=768,
    num_heads=12,
    seq_len=197,  # 14x14 patches + [CLS]
    vocab_size=1000,  # ImageNet-1K classes; stands in for the head fan-out
    global_batch_size=256,
    dataset="ImageNet-1K",
    is_language_model=False,
)

ROBERTA = ModelSpec(
    name="roberta",
    display_name="RoBERTa",
    param_count=355e6,
    num_layers=24,
    hidden_size=1024,
    num_heads=16,
    seq_len=512,
    vocab_size=50265,
    global_batch_size=64,
    dataset="WikiText-2",
)

BERT = ModelSpec(
    name="bert",
    display_name="BERT",
    param_count=336e6,
    num_layers=24,
    hidden_size=1024,
    num_heads=16,
    seq_len=512,
    vocab_size=30522,
    global_batch_size=64,
    dataset="Wikipedia",
)

T5 = ModelSpec(
    name="t5-1.2b",
    display_name="T5",
    param_count=1.2e9,
    num_layers=48,  # encoder + decoder stacks flattened for plan purposes
    hidden_size=1536,
    num_heads=24,
    seq_len=512,
    vocab_size=32128,
    global_batch_size=32,
    dataset="Wikipedia",
)

GPT2 = ModelSpec(
    name="gpt2-1.5b",
    display_name="GPT-2",
    param_count=1.5e9,
    num_layers=48,
    hidden_size=1600,
    num_heads=25,
    seq_len=1024,
    vocab_size=50257,
    global_batch_size=16,  # paper Fig. 2 uses a global batch of 16
    dataset="Wikipedia",
)

LLAMA2_7B = ModelSpec(
    name="llama2-7b",
    display_name="LLaMA-2-7B",
    param_count=6.7e9,
    num_layers=32,
    hidden_size=4096,
    num_heads=32,
    seq_len=2048,
    vocab_size=32000,
    global_batch_size=32,
    dataset="WuDaoCorpora",
)

LLAMA_30B = ModelSpec(
    name="llama-30b",
    display_name="LLaMA-30B",
    param_count=32.5e9,
    num_layers=60,
    hidden_size=6656,
    num_heads=52,
    seq_len=2048,
    vocab_size=32000,
    global_batch_size=64,
    dataset="WuDaoCorpora",
)

#: Catalog in the paper's Table 2 order.
CATALOG: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (VIT, ROBERTA, BERT, T5, GPT2, LLAMA2_7B, LLAMA_30B)
}


def get_model(name: str) -> ModelSpec:
    """Look up a model spec by catalog key (raises ``KeyError`` if unknown)."""
    try:
        return CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None


def all_models() -> list[ModelSpec]:
    """All catalog models, in the paper's Table 2 order."""
    return list(CATALOG.values())


def is_small_model(spec: ModelSpec) -> bool:
    """Whether the paper restricts this model to the DP plan family."""
    return spec.name in SMALL_MODEL_NAMES


def scaled_large_model_weights(factor: float) -> dict[str, float]:
    """Uniform sampling weights with the large models scaled by ``factor``.

    The Fig. 11 model-mix knob as data: used by the trace generator's
    large-model sweep and by workload scenario mixes (``largemodel-heavy``).
    """
    weights = {name: 1.0 for name in CATALOG}
    for name in LARGE_MODEL_NAMES:
        weights[name] = factor
    return weights
