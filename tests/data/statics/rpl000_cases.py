"""RPL000 fixture: the suppression contract policing itself."""

import json


def reasonless_suppression(payload: dict) -> str:
    return json.dumps(payload)  # repro-lint: disable=RPL004


def unused_suppression(x: int) -> int:
    return x + 1  # repro-lint: disable=RPL001 -- nothing on this line triggers RPL001


def malformed_directive(x: int) -> int:
    return x + 1  # repro-lint: disable everything please


def directive_in_string() -> str:
    return "# repro-lint: disable=RPL004 -- not a comment, must be ignored"
