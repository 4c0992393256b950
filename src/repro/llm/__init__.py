"""Simulated LLM service: completion client, prompts, faults, accounting."""

from .accounting import O3_MINI_PRICING, PricingModel, UsageMeter, count_tokens
from .client import LLMClient, LLMResponse, ScriptedLLM
from .errors import (
    PIPELINE_ABORT_ERRORS,
    BudgetExhausted,
    CircuitOpenError,
    LLMError,
    LLMExhaustedError,
    LLMMalformedResponseError,
    LLMRateLimitError,
    LLMRetryExhausted,
    LLMServerError,
    LLMTimeoutError,
    LLMTransportError,
)
from .faults import MALFORMED_RESPONSE, FaultModel, TransportFaultModel
from .prompts import (
    PayloadJSON,
    decode_payload,
    encode_payload,
    fix_execution_prompt,
    fix_semantics_prompt,
    refine_template_prompt,
    template_generation_prompt,
    validate_semantics_prompt,
)
from .simulated import SimulatedLLM, extract_json, extract_sql, spec_from_payload
from .synthesizer import SchemaModel, TemplateSynthesizer

__all__ = [
    "BudgetExhausted",
    "CircuitOpenError",
    "FaultModel",
    "LLMClient",
    "LLMError",
    "LLMExhaustedError",
    "LLMMalformedResponseError",
    "LLMRateLimitError",
    "LLMResponse",
    "LLMRetryExhausted",
    "LLMServerError",
    "LLMTimeoutError",
    "LLMTransportError",
    "MALFORMED_RESPONSE",
    "O3_MINI_PRICING",
    "PIPELINE_ABORT_ERRORS",
    "PayloadJSON",
    "TransportFaultModel",
    "PricingModel",
    "SchemaModel",
    "ScriptedLLM",
    "SimulatedLLM",
    "TemplateSynthesizer",
    "UsageMeter",
    "count_tokens",
    "decode_payload",
    "encode_payload",
    "extract_json",
    "extract_sql",
    "fix_execution_prompt",
    "fix_semantics_prompt",
    "refine_template_prompt",
    "spec_from_payload",
    "template_generation_prompt",
    "validate_semantics_prompt",
]
