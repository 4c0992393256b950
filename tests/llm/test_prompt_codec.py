"""The prompt codec is exact: every prompt is the one the former codec built.

The former codec is kept here verbatim as the reference:
``encode_payload`` encoded the whole payload with ``json.dumps``,
``decode_payload`` found the payload with a lazy DOTALL regex, and
``count_tokens`` split every text into words.  The codec now splices a
schema summary's JSON (:class:`~repro.llm.prompts.PayloadJSON`, encoded once
per statistics epoch) into the payload it writes, finds the payload with
``str.find`` and counts most texts without splitting them.
"""

from __future__ import annotations

import json
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.schema_summary as schema_summary
import repro.llm.client as client_module
import repro.llm.prompts as prompts
import repro.llm.simulated as simulated
from repro.core import BarberConfig, SQLBarber
from repro.datasets import registry
from repro.llm import LLMClient, PayloadJSON, SimulatedLLM, count_tokens
from repro.llm.prompts import decode_payload, encode_payload
from repro.resilience.clock import SimulatedClock
from repro.serve import Job, JobRequest, JobRunner
from repro.workload import CostDistribution, TemplateSpec

# -- the former codec, verbatim ---------------------------------------------------------

_PAYLOAD_RE = re.compile(r"<payload>(.*?)</payload>", re.DOTALL)


def reference_encode_payload(payload: dict) -> str:
    return f"<payload>{json.dumps(payload, sort_keys=True)}</payload>"


def reference_decode_payload(prompt: str) -> dict:
    match = _PAYLOAD_RE.search(prompt)
    if match is None:
        raise ValueError("prompt carries no <payload> block")
    return json.loads(match.group(1))


def reference_count_tokens(text: str) -> int:
    """Deterministic token estimate: ~4 characters/token, floor 1 per word."""
    if not text:
        return 0
    by_chars = len(text) // 4
    by_words = len(text.split())
    return max(by_chars, by_words, 1)


# -- strategies -------------------------------------------------------------------------

# Text that needs escapes: quotes, backslashes, control characters,
# non-ASCII letters, astral characters.
texts = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀\u2028'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | texts,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=8,
)
payloads = st.dictionaries(texts, json_values, max_size=6)

#: Every character ``str.split()`` splits at (``str.isspace()``).
WHITESPACE = "".join(
    chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()
)


class TestEncode:
    @settings(max_examples=100, deadline=None)
    @given(payloads)
    @example({})
    @example({"a": {}, "b": [], "c": "", "d": None, "e": 1.5, "f": False})
    def test_equals_json_dumps(self, payload):
        assert encode_payload(payload) == reference_encode_payload(payload)

    @settings(max_examples=100, deadline=None)
    @given(payloads, json_values, texts)
    @example({}, {}, "schema")
    @example({"task": "t", "template": "SELECT 1"}, {"tables": []}, "schema")
    def test_spliced_member_equals_json_dumps(self, payload, value, key):
        spliced = dict(payload)
        spliced[key] = PayloadJSON(json.dumps(value, sort_keys=True))
        whole = dict(payload)
        whole[key] = value
        assert encode_payload(spliced) == reference_encode_payload(whole)

    def test_member_order_is_key_order(self):
        schema = PayloadJSON('{"tables": []}')
        payload = {"task": "t", "schema": schema, "a": 1, "z": [2]}
        assert encode_payload(payload) == (
            '<payload>{"a": 1, "schema": {"tables": []}, "task": "t", "z": [2]}'
            "</payload>"
        )

    def test_only_a_top_level_member_is_spliced(self):
        nested = {"outer": {"schema": PayloadJSON("{}")}}
        assert encode_payload(nested) == reference_encode_payload(nested)
        assert '"schema": "{}"' in encode_payload(nested)


def outcome(decode, prompt):
    """What *decode* makes of *prompt*: its value, or its error."""
    try:
        return "value", repr(decode(prompt))
    except ValueError as exc:
        return "error", type(exc).__name__, str(exc)


prose = st.text(
    alphabet=st.sampled_from("ab <>/{}[]\":,1\n"), max_size=10
)
markers = st.sampled_from(["<payload>", "</payload>", "<payload", "payload>"])
json_texts = json_values.map(lambda v: json.dumps(v, sort_keys=True))
prompt_texts = st.lists(st.one_of(prose, markers, json_texts), max_size=8).map(
    "".join
)


class TestDecode:
    @settings(max_examples=200, deadline=None)
    @given(prompt_texts)
    def test_equals_regex(self, prompt):
        assert outcome(decode_payload, prompt) == outcome(
            reference_decode_payload, prompt
        )

    @pytest.mark.parametrize(
        "prompt",
        [
            "",
            "no payload here",
            'prose <payload>{"a": 1}</payload>',
            '<payload>{"a": 1}</payload> and <payload>{"b": 2}</payload>',
            '</payload> first, then <payload>{"a": [1, "x"]}</payload>',
            '</payload><payload>{"a": 1}',
            '<payload>{"a": 1}',
            'the <payload> tag wraps it: <payload>{"a": 1}</payload>',
            "<payload></payload>",
            "<payload>\n{\n}\n</payload>",
            '<payload>{"s": "</pay"}</payload>',
        ],
    )
    def test_marker_cases(self, prompt):
        assert outcome(decode_payload, prompt) == outcome(
            reference_decode_payload, prompt
        )


words = st.text(alphabet="abcXYZé€01", max_size=9)
token_texts = st.lists(
    st.tuples(words, st.text(alphabet=WHITESPACE, min_size=0, max_size=3)),
    max_size=40,
).map(lambda parts: "".join(w + s for w, s in parts))
# ASCII only, with short words: near the bound where the split decides.
ASCII_WHITESPACE = "".join(c for c in WHITESPACE if c.isascii())
ascii_token_texts = st.lists(
    st.tuples(
        st.text(alphabet="ab", min_size=1, max_size=4),
        st.text(alphabet=ASCII_WHITESPACE, min_size=1, max_size=2),
    ),
    max_size=40,
).map(lambda parts: "".join(w + s for w, s in parts))


class TestCountTokens:
    def test_whitespace_alphabet(self):
        # The ASCII whitespace str.split() uses, and some beyond ASCII.
        assert ASCII_WHITESPACE == "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
        for char in "\x85\xa0\u2028\u3000":
            assert char in WHITESPACE

    @settings(max_examples=300, deadline=None)
    @given(token_texts | st.text(alphabet="ab" + WHITESPACE, max_size=40))
    def test_equals_split(self, text):
        assert count_tokens(text) == reference_count_tokens(text)

    @settings(max_examples=300, deadline=None)
    @given(ascii_token_texts)
    def test_equals_split_on_ascii(self, text):
        assert count_tokens(text) == reference_count_tokens(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "a",
            " ",
            "abcd",
            "a b c d e",
            "aaaaaaaaaaaa bbbb",
            "aaaa\x1cbbbb\x1dcccc\x1edddd\x1f",
            "a\x1c" * 10,
            "a\x1fb\x1ec\x1dd\x0b" * 3,
            "aaaa\x85bbbb\xa0cccc\u2028dddd\u3000",
            "x" * 400,
            "SELECT * FROM users WHERE age > 5",
            "€" * 40 + " a",
        ],
    )
    def test_cases(self, text):
        assert count_tokens(text) == reference_count_tokens(text)


# -- whole runs -------------------------------------------------------------------------


def transcript(run, monkeypatch, reference: bool):
    """Every LLM call of *run*: (task, prompt, response, tokens), and what
    *run* returns.

    With *reference*, the former codec and a freshly built, unspliced
    schema summary per call stand in for the current ones, which is how the
    former code built every prompt.  Without it, every payload is also
    checked against the former encoder as it is encoded.
    """
    calls = []
    complete = LLMClient.complete

    def recording(self, prompt, task="unknown"):
        response = complete(self, prompt, task=task)
        calls.append(
            (
                task,
                prompt,
                response.text,
                response.prompt_tokens,
                response.completion_tokens,
            )
        )
        return response

    spliced = []
    encode = prompts.encode_payload

    def checking(payload):
        text = encode(payload)
        whole = {
            key: json.loads(value) if isinstance(value, PayloadJSON) else value
            for key, value in payload.items()
        }
        assert text == reference_encode_payload(whole)
        spliced.append(any(isinstance(v, PayloadJSON) for v in payload.values()))
        return text

    def fresh_summary(db):
        schema = schema_summary._schema_of(db)
        return schema, schema

    with monkeypatch.context() as patch:
        patch.setattr(LLMClient, "complete", recording)
        if reference:
            patch.setattr(prompts, "encode_payload", reference_encode_payload)
            patch.setattr(simulated, "decode_payload", reference_decode_payload)
            patch.setattr(client_module, "count_tokens", reference_count_tokens)
            patch.setattr(schema_summary, "_summary", fresh_summary)
        else:
            patch.setattr(prompts, "encode_payload", checking)
        result = run()
    if not reference:
        assert spliced and all(spliced)
    return calls, result


def imdb_run():
    distribution = CostDistribution.uniform(0.0, 8000.0, 24, 3)
    barber = SQLBarber(
        registry.build_database("imdb", scale=None, cached=False),
        llm=SimulatedLLM(seed=5),
        config=BarberConfig(seed=5),
    )
    specs = [
        TemplateSpec(spec_id="joins", num_joins=2),
        TemplateSpec(spec_id="grouped", num_joins=1, require_group_by=True),
    ]
    return barber.generate_workload(specs, distribution).fingerprint_json()


def fuzz_job_run():
    job = Job(
        job_id="job-0001",
        request=JobRequest(
            tenant="t", seed=7, specs=({"num_joins": 1},), queries=8, intervals=2
        ),
    )
    outcome = JobRunner(clock=SimulatedClock()).run(job)  # a fuzz database
    assert outcome.error is None
    return outcome.result["fingerprint"]


class TestWholeRuns:
    @pytest.mark.parametrize("run", [imdb_run, fuzz_job_run])
    def test_every_prompt_is_the_former_codecs(self, run, monkeypatch):
        calls, result = transcript(run, monkeypatch, reference=False)
        expected_calls, expected_result = transcript(
            run, monkeypatch, reference=True
        )
        assert len(calls) >= 5
        assert [c[0] for c in calls] == [c[0] for c in expected_calls]
        for call, expected in zip(calls, expected_calls):
            assert call == expected
        assert len(calls) == len(expected_calls)
        assert result == expected_result
