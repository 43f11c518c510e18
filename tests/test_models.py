"""Model catalog and spec invariants."""

from __future__ import annotations

import pytest

from repro.models import (
    CATALOG,
    GPT2,
    LARGE_MODEL_NAMES,
    LLAMA2_7B,
    LLAMA_30B,
    ModelSpec,
    VIT,
    all_models,
    get_model,
    is_small_model,
)


class TestCatalog:
    def test_has_seven_models(self):
        assert len(CATALOG) == 7

    def test_get_model_roundtrip(self):
        for spec in all_models():
            assert get_model(spec.name) is spec

    def test_unknown_model_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="gpt2-1.5b"):
            get_model("nope")

    def test_paper_table2_scales(self):
        # Param counts match Table 2's reported sizes.
        assert CATALOG["vit"].param_count == pytest.approx(86e6)
        assert CATALOG["gpt2-1.5b"].param_count == pytest.approx(1.5e9)
        assert CATALOG["llama-30b"].param_count == pytest.approx(32.5e9)

    def test_small_large_split(self):
        assert is_small_model(VIT)
        assert not is_small_model(GPT2)
        assert LLAMA2_7B.name in LARGE_MODEL_NAMES
        assert LLAMA_30B.name in LARGE_MODEL_NAMES
        assert GPT2.name not in LARGE_MODEL_NAMES

    def test_gpt2_uses_paper_batch(self):
        assert GPT2.global_batch_size == 16  # paper Fig. 2


class TestModelSpecValidation:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError, match="not divisible"):
            ModelSpec(
                name="bad",
                display_name="Bad",
                param_count=1e6,
                num_layers=2,
                hidden_size=100,
                num_heads=7,
                seq_len=8,
                vocab_size=10,
                global_batch_size=4,
            )

    @pytest.mark.parametrize("field,value", [
        ("param_count", 0),
        ("num_layers", 0),
        ("global_batch_size", 0),
    ])
    def test_positive_fields(self, field, value):
        kwargs = dict(
            name="bad", display_name="Bad", param_count=1e6, num_layers=2,
            hidden_size=64, num_heads=4, seq_len=8, vocab_size=10,
            global_batch_size=4,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)


class TestDerivedQuantities:
    def test_fwd_flops_positive_and_scales_with_params(self):
        assert VIT.fwd_flops_per_sample > 0
        assert LLAMA2_7B.fwd_flops_per_sample > GPT2.fwd_flops_per_sample

    def test_valid_tp_non_power_of_two(self):
        # 25 heads admit tp=5 (divides heads and hidden 1600), but no
        # power of two beyond 1.
        assert GPT2.valid_tp(5, node_limit=8)
        assert not any(GPT2.valid_tp(tp, node_limit=8) for tp in (2, 4, 8))
        # LLaMA-2 has 32 heads: TP up to the node limit.
        assert LLAMA2_7B.valid_tp(8, node_limit=8)
        assert LLAMA2_7B.valid_tp(4, node_limit=4)
        assert not LLAMA2_7B.valid_tp(8, node_limit=4)

    def test_valid_pp_divides_layers(self):
        assert GPT2.valid_pp(8)  # 48 layers
        assert not GPT2.valid_pp(5)
        assert GPT2.valid_pp(6)

    def test_layers_per_stage_rejects_invalid(self):
        assert not GPT2.valid_pp(7)  # 7 stages cannot split 48 layers
