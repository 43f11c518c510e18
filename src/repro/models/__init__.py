"""Model catalog: transformer architecture specs for the paper's workloads."""

from repro.models.catalog import (
    BERT,
    CATALOG,
    GPT2,
    LARGE_MODEL_NAMES,
    LLAMA2_7B,
    LLAMA_30B,
    ROBERTA,
    SMALL_MODEL_NAMES,
    T5,
    VIT,
    all_models,
    get_model,
    is_small_model,
    scaled_large_model_weights,
)
from repro.models.specs import ModelSpec

__all__ = [
    "BERT",
    "CATALOG",
    "GPT2",
    "LARGE_MODEL_NAMES",
    "LLAMA2_7B",
    "LLAMA_30B",
    "ROBERTA",
    "SMALL_MODEL_NAMES",
    "T5",
    "VIT",
    "ModelSpec",
    "all_models",
    "get_model",
    "is_small_model",
    "scaled_large_model_weights",
]
