"""Token counting, usage metering, and pricing.

The reproduction tracks LLM usage exactly the way the paper's cost study
(Table 2) does: prompt + completion tokens per call, converted to USD with a
per-million-token price list.  Token counts use a deterministic heuristic
(~4 characters per token) in lieu of a provider tokenizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# The ASCII characters ``str.split()`` splits at.
_ASCII_WHITESPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "


def count_tokens(text: str) -> int:
    """Deterministic token estimate: ~4 characters/token, floor 1 per word.

    A text holds at most one word more than it holds whitespace, so an ASCII
    text with fewer whitespace characters than ``len(text) // 4`` counts
    ``len(text) // 4`` without being split into words.
    """
    if not text:
        return 0
    by_chars = len(text) // 4
    if text.isascii():
        data = text.encode("ascii")
        if len(data) - len(data.translate(None, _ASCII_WHITESPACE)) < by_chars:
            return by_chars
    return max(by_chars, len(text.split()), 1)


@dataclass(frozen=True)
class PricingModel:
    """USD per million tokens, input and output priced separately."""

    name: str = "o3-mini"
    usd_per_million_input: float = 1.10
    usd_per_million_output: float = 4.40

    def cost_usd(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (
            prompt_tokens * self.usd_per_million_input
            + completion_tokens * self.usd_per_million_output
        ) / 1_000_000.0


O3_MINI_PRICING = PricingModel()


@dataclass
class UsageMeter:
    """Accumulates per-call token usage."""

    prompt_tokens: int = 0
    completion_tokens: int = 0
    num_calls: int = 0
    calls_by_task: dict[str, int] = field(default_factory=dict)
    # Per-task token spend — the raw material of the paper's Table-2 cost
    # breakdown: {task: {"prompt_tokens": int, "completion_tokens": int}}.
    tokens_by_task: dict[str, dict[str, int]] = field(default_factory=dict)

    def record(
        self, prompt_tokens: int, completion_tokens: int, task: str = "unknown"
    ) -> None:
        self.prompt_tokens += prompt_tokens
        self.completion_tokens += completion_tokens
        self.num_calls += 1
        self.calls_by_task[task] = self.calls_by_task.get(task, 0) + 1
        bucket = self.tokens_by_task.setdefault(
            task, {"prompt_tokens": 0, "completion_tokens": 0}
        )
        bucket["prompt_tokens"] += prompt_tokens
        bucket["completion_tokens"] += completion_tokens

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def cost_usd(self, pricing: PricingModel = O3_MINI_PRICING) -> float:
        return pricing.cost_usd(self.prompt_tokens, self.completion_tokens)

    def task_cost_usd(
        self, task: str, pricing: PricingModel = O3_MINI_PRICING
    ) -> float:
        bucket = self.tokens_by_task.get(task)
        if bucket is None:
            return 0.0
        return pricing.cost_usd(
            bucket["prompt_tokens"], bucket["completion_tokens"]
        )

    def merge(self, other: "UsageMeter") -> None:
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.num_calls += other.num_calls
        for task, count in other.calls_by_task.items():
            self.calls_by_task[task] = self.calls_by_task.get(task, 0) + count
        for task, tokens in other.tokens_by_task.items():
            bucket = self.tokens_by_task.setdefault(
                task, {"prompt_tokens": 0, "completion_tokens": 0}
            )
            bucket["prompt_tokens"] += tokens["prompt_tokens"]
            bucket["completion_tokens"] += tokens["completion_tokens"]

    def snapshot(self) -> dict:
        return {
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total_tokens": self.total_tokens,
            "num_calls": self.num_calls,
            "calls_by_task": dict(self.calls_by_task),
            "tokens_by_task": {
                task: dict(tokens)
                for task, tokens in self.tokens_by_task.items()
            },
        }
