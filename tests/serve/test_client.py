"""``repro submit`` offers exactly the engine and check values the
server accepts.

Every choice the client's parser offers must build a submission that
:func:`~repro.serve.protocol.parse_submission` (the server's own
validation, backed by :class:`~repro.core.problem.SynthesisParameters`)
accepts, and the offered sets must equal the accepted ones — a value
the server rejects is a guaranteed 4xx, and an accepted value the
client hides cannot be chosen at all.
"""

from __future__ import annotations

import pytest

from repro.check.report import CHECK_MODES
from repro.core.problem import SynthesisParameters
from repro.errors import ReproError
from repro.place.annealing import PLACEMENT_ENGINES
from repro.route.router import ROUTE_ENGINES
from repro.serve.client import _build_submission, _submit_parser
from repro.serve.protocol import parse_submission

#: (flag, argparse dest, parameter name, accepted values)
_OPTIONS = [
    ("--engine", "engine", "placement_engine", PLACEMENT_ENGINES),
    ("--route-engine", "route_engine", "route_engine", ROUTE_ENGINES),
    ("--check", "check", "check", CHECK_MODES),
]


def _offered(dest: str) -> tuple[str, ...]:
    for action in _submit_parser()._actions:
        if action.dest == dest:
            return tuple(action.choices)
    raise AssertionError(f"no --{dest} option")


@pytest.mark.parametrize("flag,dest,name,accepted", _OPTIONS)
def test_offered_set_equals_accepted_set(flag, dest, name, accepted):
    assert set(_offered(dest)) == set(accepted)


@pytest.mark.parametrize("flag,dest,name,accepted", _OPTIONS)
def test_every_offered_choice_is_accepted(flag, dest, name, accepted):
    parser = _submit_parser()
    for choice in _offered(dest):
        submission = _build_submission(parser.parse_args(["PCR", flag, choice]))
        assert submission["parameters"][name] == choice
        SynthesisParameters(**submission["parameters"])
        parse_submission(submission)


@pytest.mark.parametrize("value", ["flat2", "grid", "naive", "basic"])
def test_retired_names_are_refused(value):
    """Names older clients offered fail here as they do on the server."""
    with pytest.raises(SystemExit):
        _submit_parser().parse_args(["PCR", "--route-engine", value])
    with pytest.raises(ReproError):
        parse_submission(
            {"benchmark": "PCR", "parameters": {"route_engine": value}}
        )
