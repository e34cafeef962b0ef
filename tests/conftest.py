from __future__ import annotations

import glob
import os

import pytest

from lexgram import pipeline

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "fixtures")


def fixture_path(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


@pytest.fixture(scope="session")
def run_config():
    return pipeline.parse_config(fixture_path("run.cfg"))


@pytest.fixture(scope="session")
def fixture_run(run_config):
    return pipeline.Run(run_config)


@pytest.fixture(scope="session")
def entries(fixture_run):
    return fixture_run.entries


@pytest.fixture(scope="session")
def index(fixture_run):
    return fixture_run.index


@pytest.fixture(scope="session")
def corpus_docs(fixture_run):
    return fixture_run.docs


@pytest.fixture(scope="session")
def tagged_docs(fixture_run):
    return fixture_run.tagged_docs


@pytest.fixture(scope="session")
def grammars(fixture_run):
    return fixture_run.grammars


@pytest.fixture(scope="session")
def subcat_inputs(fixture_run):
    """The leading arguments of ``by_subcategory`` for the fixture run,
    and the flattened grammar set."""
    flats = fixture_run.flats
    return (fixture_run.tagged_docs, fixture_run.counts, fixture_run.index,
            flats.pn, flats.svc), flats


@pytest.fixture(scope="session")
def all_grammar_files():
    return sorted(glob.glob(fixture_path("grammars", "*.grm"))
                  + glob.glob(fixture_path("grammars", "extra", "*.grm")))
