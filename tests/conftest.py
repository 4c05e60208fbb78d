import os
from pathlib import Path

import pytest
from hypothesis import settings

from anaprop.data import load_relation

# Property tests do trivial work per example; drop the per-example deadline
# so a loaded machine cannot flake them.
settings.register_profile("anaprop", deadline=None)
# tests/mutate.py sets this variable, and nothing else does: under it every
# run draws the same examples, so a mutant that survives survives again.
# Without it the search stays random.
MUTATION_RUN = "ANAPROP_MUTATION_RUN"
settings.register_profile("anaprop-mutation", settings.get_profile("anaprop"),
                          derandomize=True, database=None)
settings.load_profile("anaprop-mutation" if os.environ.get(MUTATION_RUN) else "anaprop")

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def coffee_table():
    """The four-row serve-a-coffee decision table."""
    return load_relation(DATA_DIR / "coffee.csv",
                         schema_file=DATA_DIR / "coffee.schema.json")


@pytest.fixture(scope="session")
def courses_relation():
    """Eight course/teacher/time rows with both captioned dependencies."""
    return load_relation(DATA_DIR / "courses.csv")
