"""Response serialisation: raw-field splicing stays byte-identical."""

from __future__ import annotations

import json
import secrets

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.http import dumps_with_raw


def _placeholder_dumps(payload, raw=None) -> str:
    """The earlier implementation, kept as the oracle: serialise the
    document with a random placeholder per raw field, then replace each
    quoted placeholder by its text."""
    if not raw:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    document = dict(payload)
    tokens: dict[str, str] = {}
    for name, text in raw.items():
        token = f"__raw_{secrets.token_hex(16)}__"
        document[name] = token
        tokens[token] = text
    body = json.dumps(document, sort_keys=True, separators=(",", ":"))
    for token, text in tokens.items():
        body = body.replace(f'"{token}"', text, 1)
    return body


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: Raw field names that sort before, between and after the payload
#: keys below.
_RAW_NAMES = st.sampled_from(["!first", "result", "m", "~last", "__raw_"])

_KEYS = st.one_of(
    _RAW_NAMES,
    st.sampled_from(["cached", "digest", "job_id", "status", '"q"']),
    st.text(max_size=8),
)

_STRINGS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['__raw_', '"__raw_x__"', 'a"b', '\\"', "result"]),
)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


class TestDumpsWithRaw:
    def test_no_raw_is_canonical_json(self):
        payload = {"b": 1, "a": [True, None]}
        assert dumps_with_raw(payload) == '{"a":[true,null],"b":1}'
        assert dumps_with_raw(payload, {}) == dumps_with_raw(payload)

    def test_splice_positions(self):
        payload = {"cached": True, "status": "done"}
        assert dumps_with_raw(payload, {"!": "1", "m": "[2]", "~": "{}"}) == (
            '{"!":1,"cached":true,"m":[2],"status":"done","~":{}}'
        )

    def test_raw_replaces_a_payload_field_of_the_same_name(self):
        assert dumps_with_raw({"result": "old", "a": 0}, {"result": "7"}) == (
            '{"a":0,"result":7}'
        )

    def test_only_raw_fields(self):
        assert dumps_with_raw({}, {"b": "2", "a": "1"}) == '{"a":1,"b":2}'

    @settings(max_examples=300, deadline=None)
    @given(
        payload=st.dictionaries(_KEYS, _JSON, max_size=6),
        raw=st.dictionaries(_RAW_NAMES, _JSON.map(_canonical), max_size=2),
    )
    def test_matches_the_placeholder_oracle(self, payload, raw):
        assert dumps_with_raw(payload, raw) == _placeholder_dumps(payload, raw)

    @settings(max_examples=100, deadline=None)
    @given(payload=st.dictionaries(_KEYS, _JSON, max_size=6), value=_JSON)
    def test_splice_equals_serialising_the_parsed_value(self, payload, value):
        text = _canonical(value)
        merged = {**payload, "result": json.loads(text)}
        assert dumps_with_raw(payload, {"result": text}) == _canonical(merged)
